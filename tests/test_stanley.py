from contextlib import contextmanager
from itertools import count as naturals, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from apcover import stanley
from apcover.stanley import generate, generate_upto, greedy_next

STANLEY_01_16 = [0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40]


def test_greedy_next_examples():
    assert greedy_next([0, 1], 3) == 3
    assert greedy_next([0, 1, 3, 4], 3) == 9
    assert greedy_next([0, 1, 2], 4) == 4


def test_generate_examples():
    assert generate([0, 1], 3, 8) == [0, 1, 3, 4, 9, 10, 12, 13]
    assert generate([0], 3, 4) == [0, 1, 3, 4]
    assert generate([0, 1, 2], 4, 6) == [0, 1, 2, 4, 5, 7]


def test_generate_16_regression():
    assert generate([0, 1], 3, 16) == STANLEY_01_16


def test_generate_matches_naive_oracle():
    assert generate([0, 1], 3, 16) == brute.stanley_naive([0, 1], 3, 16)
    assert generate([0, 2, 3], 3, 12) == brute.stanley_naive([0, 2, 3], 3, 12)
    assert generate([0, 1, 2], 4, 12) == brute.stanley_naive([0, 1, 2], 4, 12)


def test_output_is_ap_free():
    for seed, k in (([0, 1], 3), ([0], 3), ([0, 1, 2], 4), ([1, 5], 3)):
        terms = generate(seed, k, 60)
        assert not brute.contains_k_ap(terms, k)
        assert all(y > x for x, y in zip(terms, terms[1:]))


def test_greedy_minimality_first_200_terms():
    # every integer skipped by the greedy rule would have completed a 3-AP
    terms = generate([0, 1], 3, 200)
    prefix = set(terms[:2])
    for i in range(2, len(terms)):
        for skipped in range(terms[i - 1] + 1, terms[i]):
            assert brute.ap_completes_at(prefix, skipped, 3), skipped
        prefix.add(terms[i])


def test_determinism():
    assert generate([0, 1], 3, 40) == generate([0, 1], 3, 40)


def test_generate_upto():
    terms = generate_upto([0, 1], 3, 40)
    assert terms == STANLEY_01_16
    with pytest.raises(ValueError):
        generate_upto([0, 50], 3, 40)


def test_seed_rejections():
    with pytest.raises(ValueError):
        generate([0, 1, 2], 3, 5)  # seed is itself a 3-AP
    with pytest.raises(ValueError):
        generate([], 3, 5)
    with pytest.raises(ValueError):
        generate([1, 0], 3, 5)
    with pytest.raises(ValueError):
        generate([-2, 0], 3, 5)
    with pytest.raises(ValueError):
        generate([0, 1], 3, 1)  # count below seed length
    # 2 is prime, but the closed form has no term after 0 at p = 2
    for call in (
        lambda: generate([0, 1], 2, 5),
        lambda: generate([0], 2, 3),
        lambda: generate_upto([0], 2, 10),
        lambda: generate([0, 1], 1, 5),
    ):
        with pytest.raises(ValueError, match="progression length must be >= 3"):
            call()


def one_step(seed, k, count):
    """The definition: greedy_next applied once per term."""
    terms = list(seed)
    while len(terms) < count:
        terms.append(greedy_next(terms, k))
    return terms


@st.composite
def stanley_cases(draw):
    """(seed, k, count): a small AP-free seed, often followed by a gap.

    A gap of 10^18 or more keeps the terms after it far above the seed
    terms before it; a gap of 20..200 is one the terms later reach.  A
    chain seed is 0 followed by 2^i + c, each gap at most one wider than
    the span below it, so k-APs lying wholly below the sieve's floor end
    just above the seed.
    """
    k = draw(st.integers(3, 8))
    gap = draw(st.sampled_from([None, "near", "far", "chain"]))
    if gap == "chain":
        seed = [0]
        for i in range(draw(st.integers(0, 12))):
            v = 2**i + draw(st.integers(0, 3))
            fits = seed[-1] < v <= 2 * seed[-1] + 1
            if fits and not brute.contains_k_ap(seed + [v], k):
                seed.append(v)
        return seed, k, len(seed) + draw(st.integers(0, 40))
    seed = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=4)))
    if gap is not None:
        step = draw(
            st.integers(20, 200) if gap == "near" else st.integers(10**18, 10**21)
        )
        tail = draw(st.sets(st.integers(0, 30), min_size=1, max_size=3))
        seed += sorted(seed[-1] + step + x for x in tail)
    assume(not brute.contains_k_ap(seed, k))
    return seed, k, len(seed) + draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None)
@given(stanley_cases())
def test_generators_match_definition(case):
    seed, k, count = case
    terms = generate(seed, k, count)
    assert terms == one_step(seed, k, count)
    assert terms == brute.stanley_naive(seed, k, count)
    assert generate_upto(seed, k, terms[-1]) == terms


@pytest.mark.parametrize(
    "seed, k",
    [([0, 1], 3), ([0, 1], 4), ([0, 1], 5), ([0, 4, 5], 3), ([0, 300], 3),
     ([0, 10**20], 3), ([0, 10**20], 4)],
)
def test_generate_upto_limit_at_and_below_a_term(seed, k):
    terms = generate(seed, k, 300)
    for i in (len(seed), 17, 151, 299):
        assert generate_upto(seed, k, terms[i]) == terms[: i + 1]
        assert generate_upto(seed, k, terms[i] - 1) == terms[:i]


@pytest.mark.parametrize(
    "seed, k",
    [([0, 300], 3), ([0, 1, 700], 3), ([0, 2, 500, 503], 4), ([1, 400], 5)],
)
def test_seed_gap_marks_reached(seed, k):
    # the terms after the gap run past twice its width, so k-APs with
    # terms on both sides of the gap come into play
    terms = generate(seed, k, 400)
    assert terms[-1] > 2 * seed[-1]
    assert terms == one_step(seed, k, 400)


@pytest.mark.parametrize("k", [3, 4])
def test_run_crosses_two_floors(k):
    # no k-AP ending below 2 * 1000 - 41 straddles the gap under 1000, so
    # the sieve's floor starts at 1000 and drops to 0 once terms pass that
    seed = [0, 1, 40, 41, 1000]
    terms = generate(seed, k, 400)
    assert terms == one_step(seed, k, 400)
    crossed = next(i for i, t in enumerate(terms) if t >= 2 * 1000 - 41)
    assert crossed < 300
    assert terms[: crossed + 5] == brute.stanley_naive(seed, k, crossed + 5)


def test_base3_closed_form_2000_terms():
    # from 0, 1 the order-3 terms are the numbers with base-3 digits 0/1
    terms = generate([0, 1], 3, 2000)
    assert terms == [int(bin(i)[2:], 3) for i in range(2000)]



def no_top_digit(n, p):
    """n has no base-p digit p - 1."""
    while n:
        n, d = divmod(n, p)
        if d == p - 1:
            return False
    return True


def digit_free(p, count):
    """The first count numbers with no base-p digit p - 1."""
    return list(islice((n for n in naturals() if no_top_digit(n, p)), count))


@contextmanager
def sieve_calls():
    """Record the (seed, k) of every call to the sieve `_extend`."""
    calls = []
    extend = stanley._extend

    def counted(seed, k):
        calls.append((seed, k))
        return extend(seed, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stanley, "_extend", counted)
        yield calls


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 6),
    st.integers(0, 300),
    st.integers(0, 24),
)
def test_closed_form_matches_sieve_and_naive(p, length, extra, small):
    # every prefix of the order-p sequence from 0 takes the closed form
    seed = digit_free(p, length)
    count = length + extra
    with sieve_calls() as calls:
        terms = generate(seed, p, count)
        short = generate(seed, p, length + small)
    assert calls == []
    sieve = seed + list(islice(stanley._extend(seed, p), extra))
    assert terms == sieve == digit_free(p, count)
    assert short == brute.stanley_naive(seed, p, length + small)
    for i in range(length, count, max(1, extra // 5)):
        assert generate_upto(seed, p, terms[i]) == terms[: i + 1]
        assert generate_upto(seed, p, terms[i] - 1) == terms[:i]


@pytest.mark.parametrize(
    "seed, k",
    [([0, 2], 3), ([0, 1, 3], 5), ([0, 1, 2, 3, 4, 6], 7), ([1], 3),
     ([0], 4), ([0, 1], 4), ([0, 1, 2, 4], 4), ([0, 1], 6), ([0, 1, 2, 3, 4], 6)],
)
def test_near_miss_seeds_and_composite_orders_keep_the_sieve(seed, k):
    with sieve_calls() as calls:
        terms = generate(seed, k, 120)
        assert generate_upto(seed, k, terms[-1]) == terms
    assert calls == [(seed, k)] * 2
    assert terms == one_step(seed, k, 120)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 6]), st.sets(st.integers(0, 40), min_size=1, max_size=6))
def test_composite_orders_always_sieve(k, values):
    seed = sorted(values)
    assume(not brute.contains_k_ap(seed, k))
    with sieve_calls() as calls:
        generate(seed, k, len(seed) + 5)
    assert calls == [(seed, k)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_base_seed_never_reaches_the_sieve(p):
    with sieve_calls() as calls:
        terms = generate([0, 1], p, 500)
        upto = generate_upto([0, 1], p, 1000)
    assert calls == []
    assert terms == digit_free(p, 500)
    assert upto == [n for n in range(1001) if no_top_digit(n, p)]


def test_seed_check_skips_closed_form_prefixes(monkeypatch):
    # a prefix of the closed form is p-AP-free by its proof, so only
    # other seeds pay for the quadratic has_k_ap
    calls = []
    has_k_ap = stanley.has_k_ap

    def counted(values, k):
        calls.append(k)
        return has_k_ap(values, k)

    monkeypatch.setattr(stanley, "has_k_ap", counted)
    base3 = [int(bin(i)[2:], 3) for i in range(16_010)]
    seed = base3[:16_000]
    assert generate(seed, 3, 16_010) == base3
    assert generate_upto(seed, 3, base3[-1]) == base3
    assert calls == []
    assert generate([0, 2], 3, 4) == [0, 2, 3, 5]
    assert calls == [3]
