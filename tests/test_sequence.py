import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from apcover.sequence import (
    BLOCK_SEQUENCE,
    Element,
    count_leq,
    decompose,
    element_at,
    encode,
    iter_range,
    level_max,
    level_min,
    level_of,
    member,
)


def elements_strategy(max_level=8):
    return st.integers(0, max_level).flatmap(
        lambda l: st.tuples(
            st.just(l),
            st.integers(1, 4),
            st.lists(st.sampled_from([1, 2]), min_size=l, max_size=l),
        )
    )


@pytest.mark.parametrize(
    "level, lead, low, value",
    [
        (0, 1, (), 1),
        (2, 1, (2, 2), 26),
        (1, 4, (1,), 17),
    ],
)
def test_encode_examples(level, lead, low, value):
    assert encode(Element(level=level, lead=lead, low=low)) == value


def test_element_validation():
    with pytest.raises(ValueError):
        Element(level=1, lead=5, low=(1,))
    with pytest.raises(ValueError):
        Element(level=1, lead=1, low=(3,))
    with pytest.raises(ValueError):
        Element(level=2, lead=1, low=(1,))
    with pytest.raises(ValueError):
        Element(level=-1, lead=1, low=())
    with pytest.raises(ValueError):
        Element._make((1, 1, (3,)))
    with pytest.raises(ValueError):
        decompose(17)._replace(lead=5)


def test_element_record_contract():
    e = decompose(17)
    assert repr(e) == "Element(level=1, lead=4, low=(1,))"
    assert hash(e) == hash(Element(level=1, lead=4, low=(1,)))
    with pytest.raises(AttributeError):
        e.lead = 3
    assert pickle.loads(pickle.dumps(e)) == e


def test_decompose_examples():
    assert decompose(1) == Element(level=0, lead=1, low=())
    assert decompose(17) == Element(level=1, lead=4, low=(1,))
    assert decompose(20) is None
    assert decompose(0) is None


def test_member_examples():
    assert member(4)
    assert not member(19)
    assert member(26)


@given(elements_strategy())
def test_encode_decompose_round_trip(parts):
    level, lead, low = parts
    e = Element(level=level, lead=lead, low=tuple(low))
    n = encode(e)
    assert decompose(n) == e
    assert member(n)
    assert level_min(level) <= n <= level_max(level)


def test_membership_agrees_with_brute(brute_set_10k):
    for n in range(0, 10_001):
        assert member(n) == (n in brute_set_10k), n


@given(st.integers(0, 10**6))
@settings(max_examples=300)
def test_member_iff_decompose(n):
    assert member(n) == (decompose(n) is not None)


def level_by_digits(n):
    """Level of n straight from its base-4 digits, or -1.

    A lead worth 1..4 fills one top digit (1..3) or two (4 is [0, 1]),
    and every digit below it must be 1 or 2.
    """
    digits = brute.to_digits(n)
    for level in (len(digits) - 1, len(digits) - 2):
        if level >= 0 and 1 <= brute.from_digits(digits[level:]) <= 4:
            if set(digits[:level]) <= {1, 2}:
                return level
    return -1


@st.composite
def digit_cases(draw, max_level=3000):
    """lead * 4**level plus low digits: lead 1..5, low digits mostly 1 or 2."""
    level = draw(st.integers(0, max_level))
    lead = draw(st.integers(1, 5))
    twos = draw(st.integers(0, (1 << level) - 1))
    low = [1 + (twos >> i & 1) for i in range(level)]
    if level:
        bad = st.tuples(st.integers(0, level - 1), st.sampled_from([0, 3]))
        for i, d in draw(st.lists(bad, max_size=3)):
            low[i] = d
    return (lead << 2 * level) + brute.from_digits(low)


@given(digit_cases())
@settings(max_examples=300, deadline=None)
def test_membership_matches_digit_definition(n):
    level = level_by_digits(n)
    assert level_of(n) == level
    assert member(n) == (level >= 0)
    if level < 0:
        assert decompose(n) is None
    else:
        digits = brute.to_digits(n)
        lead = brute.from_digits(digits[level:])
        assert decompose(n) == Element(level, lead, tuple(digits[:level]))


@pytest.mark.parametrize("n, digits", [(0, []), (7, [3, 1]), (100, [0, 1, 2, 1])])
def test_brute_to_digits_examples(n, digits):
    assert brute.to_digits(n) == digits


@pytest.mark.parametrize("digits, n", [([], 0), ([2, 2], 10), ([0, 1, 2, 1], 100)])
def test_brute_from_digits_examples(digits, n):
    assert brute.from_digits(digits) == n


@given(st.integers(0, 4**40))
@example(0)
@example(1)
@example(4**30)
def test_brute_digits_round_trip(n):
    digits = brute.to_digits(n)
    assert brute.from_digits(digits) == n
    assert all(0 <= d <= 3 for d in digits)


@given(st.integers(1, 10**9))
def test_brute_digits_canonical_no_trailing_zero(n):
    assert brute.to_digits(n)[-1] != 0


@given(st.integers(1, 4**40))
def test_brute_digits_length_is_floor_log4_plus_one(n):
    length = len(brute.to_digits(n))
    assert 4 ** (length - 1) <= n < 4**length


@st.composite
def huge_members(draw):
    """A member of level 60..6000 with random lead and low digits."""
    level = draw(st.integers(60, 6000))
    twos = draw(st.integers(0, (1 << level) - 1))
    low = [1 + (twos >> i & 1) for i in range(level)]
    return (draw(st.integers(1, 4)) << 2 * level) + brute.from_digits(low)


@given(huge_members())
@settings(max_examples=100, deadline=None)
@example(1)  # level 0
@example(4)
@example(4**60)  # not in A: digits 0 below the lead
@example(level_max(59))  # the largest member below 4**60
@example(level_min(60))
@example(level_min(6000))
@example(level_max(6000))
@example(4**6000 + 3)  # not in A
def test_decompose_and_encode_match_brute_digits(n):
    digits = brute.to_digits(n)
    level = level_by_digits(n)
    e = decompose(n)
    if level < 0:
        assert e is None
        return
    lead = brute.from_digits(digits[level:])
    assert e == Element(level, lead, tuple(digits[:level]))
    assert encode(e) == brute.from_digits(digits) == n


@pytest.mark.parametrize(
    "n, expected",
    [(0, 0), (5, 5), (19, 12), (26, 16)],
)
def test_count_leq_examples(n, expected):
    assert count_leq(n) == expected


def count_leq_by_digit_walk(n):
    """A(n) by walking the straddling level's digits from the top.

    Full levels below count 4 * (2**l - 1) and each smaller lead 2**l;
    then a digit 2 admits the 2**i members with digit 1 there, a digit
    3 admits all 2**(i+1) below it and stops, a digit 0 stops, and n
    is itself counted when every digit is 1 or 2.
    """
    if n < 1:
        return 0
    level = 0
    while level_min(level + 1) <= n:
        level += 1
    if n >= level_max(level):
        return 4 * (2 ** (level + 1) - 1)
    total = 4 * (2**level - 1) + ((n >> 2 * level) - 1) * 2**level
    for i in range(level - 1, -1, -1):
        d = (n >> 2 * i) & 3
        if d == 3:
            return total + 2 ** (i + 1)
        if d == 0:
            return total
        total += (d - 1) * 2**i
    return total + 1


@given(digit_cases())
@settings(max_examples=300, deadline=None)
def test_count_leq_matches_digit_walk(n):
    assert count_leq(n) == count_leq_by_digit_walk(n)


@pytest.mark.parametrize("level", [*range(12), 60, 500, 2000, 6000])
def test_count_leq_at_level_edges_matches_digit_walk(level):
    q = (1 << 2 * level) + 2 * (4**level - 1) // 3  # q(1, level)
    for n in (level_max(level) - 1, level_max(level), level_max(level) + 1, q - 1):
        assert count_leq(n) == count_leq_by_digit_walk(n), (level, n)


def test_count_leq_matches_brute_prefix():
    counts = brute.prefix_counts(5000)
    for n in range(5001):
        assert count_leq(n) == counts[n], n


@pytest.mark.parametrize("j, expected", [(1, 1), (5, 5), (16, 26)])
def test_element_at_examples(j, expected):
    assert element_at(j) == expected


def test_element_at_rejects_bad_rank():
    with pytest.raises(ValueError):
        element_at(0)


def test_rank_unrank_bijection_small(brute_elements_10k):
    for j, n in enumerate(brute_elements_10k, start=1):
        assert element_at(j) == n
        assert count_leq(n) == j


def test_element_at_strictly_increasing_to_1e4():
    prev = 0
    for j in range(1, 10_001):
        n = element_at(j)
        assert n > prev
        prev = n


@given(st.integers(1, 10**15))
@settings(max_examples=200)
def test_rank_unrank_inverse_large(j):
    assert count_leq(element_at(j)) == j


@given(st.integers(60, 6000).flatmap(
    lambda l: st.integers(4 * ((1 << l) - 1) + 1, 4 * ((2 << l) - 1))
))
@settings(max_examples=100, deadline=None)
def test_rank_unrank_inverse_huge(j):
    assert count_leq(element_at(j)) == j


def test_rank_unrank_past_int_str_digit_limit():
    # level 7200: more decimal digits than int() will parse from a
    # decimal string by default (4300); element_at reads base 4 only
    level = 7200
    j = 5 * 2**level - 4  # lead 1, every low digit 2
    n = element_at(j)
    assert n == (1 << 2 * level) + 2 * (4**level - 1) // 3
    assert n > 10**4300
    assert level_of(n) == level
    assert count_leq(n) == j


def test_iter_range_examples():
    assert list(iter_range(1, 6)) == [1, 2, 3, 4, 5, 6]
    assert list(iter_range(19, 20)) == []
    assert list(iter_range(25, 27)) == [25, 26]
    with pytest.raises(ValueError):
        list(iter_range(5, 4))


def test_iter_range_matches_brute(brute_elements_10k):
    assert list(iter_range(0, 10_000)) == brute_elements_10k


def _rank_walk(lo, hi):
    # the members in [lo, hi], one element_at per rank
    out = []
    j = count_leq(lo - 1) + 1
    while (n := element_at(j)) <= hi:
        out.append(n)
        j += 1
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**5), st.integers(0, 10**5))
def test_iter_range_matches_rank_walk(x, y):
    lo, hi = min(x, y), max(x, y)
    assert list(iter_range(lo, hi)) == _rank_walk(lo, hi)


@pytest.mark.parametrize("level", [0, 3, 7, 8, 9, 12, 60])
@pytest.mark.parametrize("offset", [0, 1, 100, 255, 256, 300])
def test_iter_range_from_inside_a_chunk(level, offset):
    # a start `offset` ranks into a lead's block: inside, at the end of or
    # past a 256-member chunk once the level reaches 8, and across leads
    # and levels below it, where a chunk is a whole lead
    j = 4 * (2**level - 1) + 1 + offset
    lo = element_at(j)
    hi = element_at(j + 700) + 1
    assert list(iter_range(lo, hi)) == _rank_walk(lo, hi)
    assert list(iter_range(lo + 1, hi))[:1] == [element_at(j + 1)]


@pytest.mark.parametrize("start", [4**60, 4**60 - 12_345, level_min(60) + 7, level_max(60) - 3])
def test_iter_range_huge_start(start):
    hi = element_at(count_leq(start) + 700)
    got = list(iter_range(start, hi))
    assert len(got) == 700 + member(start)
    assert got == _rank_walk(start, hi)


def test_level_cardinality_and_ordering():
    for level in range(9):
        lo, hi = level_min(level), level_max(level)
        block = list(iter_range(lo, hi))
        assert len(block) == 4 * 2**level
        assert block[0] == lo and block[-1] == hi
        assert hi < level_min(level + 1)


def test_representation_unique(brute_elements_10k):
    # the level-by-level enumeration never produces a value twice
    assert len(set(brute_elements_10k)) == len(brute_elements_10k)


def test_rank_unrank_bijection_to_1e6():
    j = 0
    for n in iter_range(1, 10**6):
        j += 1
        assert count_leq(n) == j
        assert element_at(j) == n
    assert j == len(brute.elements_upto(10**6))


def test_unbounded_values():
    # a level-60 member: decompose, count and rank must stay exact
    n = (1 << 120) + 2 * (4**60 - 1) // 3
    e = decompose(n)
    assert e is not None and e.level == 60 and set(e.low) == {2}
    j = count_leq(n)
    assert j == 5 * 2**60 - 4
    assert element_at(j) == n


def test_block_sequence_protocol():
    assert list(BLOCK_SEQUENCE.iter_upto(6)) == [1, 2, 3, 4, 5, 6]
    assert list(BLOCK_SEQUENCE.iter_upto(-1)) == []
