from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from apcover import oracle, stanley
from apcover.oracle import (
    FiniteSet,
    ap_tails,
    has_k_ap,
    min_threshold,
    uncovered_in_range,
)
from apcover.sequence import BLOCK_DFA, BLOCK_SEQUENCE
from apcover.certify import _form_dfa
from apcover.stanley import generate_upto
from apcover.witness import Witness, find_witness
from apcover.witness import validate as wvalidate
from test_stanley import form_of


class Naturals:
    def iter_upto(self, limit):
        return iter(range(limit + 1))


class Evens:
    def iter_upto(self, limit):
        return iter(range(0, limit + 1, 2))


def test_covers_rejects_short_progressions():
    with pytest.raises(ValueError, match="progression length"):
        has_k_ap([0, 1], 2)


def test_construction_and_oracle_agree_to_1e4(brute_set_10k):
    # every n in [32, 1e4] is covered, and both witness routes validate;
    # the smallest difference gives the brute-force pair
    assert uncovered_in_range(BLOCK_SEQUENCE, 32, 10_000, 3) == []
    for n in range(32, 10_000, 97):
        diffs = brute.all_cover_diffs(brute_set_10k, n, 3)
        assert diffs
        d = diffs[0]
        assert wvalidate(Witness(a=n - 2 * d, b=n - d, n=n))
        assert wvalidate(find_witness(n))


def test_min_threshold_examples():
    assert min_threshold(Naturals(), 3, 100) == 1
    assert min_threshold(Evens(), 3, 100) == 99
    # frozen by the first brute-force run; every n >= 3 has a witness in A
    assert min_threshold(BLOCK_SEQUENCE, 3, 10_000) == 2
    with pytest.raises(ValueError, match="scan_to"):
        min_threshold(BLOCK_SEQUENCE, 3, 0)


def test_min_threshold_dense_set():
    # n = 1 can never extend two smaller terms, so 1 is the floor
    dense = FiniteSet(range(0, 50))
    assert min_threshold(dense, 3, 49) == 1


def test_uncovered_scan_agrees_with_covers(brute_set_10k):
    uncovered = set(uncovered_in_range(BLOCK_SEQUENCE, 0, 400, 3))
    for n in range(401):
        assert (not brute.all_cover_diffs(brute_set_10k, n, 3)) == (n in uncovered), n


def test_uncovered_scan_order_k4():
    values = [0, 1, 2, 4, 5, 7]
    uncovered = uncovered_in_range(FiniteSet(values), 0, 10, 4)
    for n in range(11):
        assert (not brute.all_cover_diffs(set(values), n, 4)) == (n in uncovered), n


def test_has_k_ap_examples():
    assert has_k_ap([0, 1, 2], 3)
    assert not has_k_ap([0, 1, 3, 4], 3)
    assert not has_k_ap([0, 1, 2, 4, 5, 7], 4)
    assert has_k_ap([0, 1, 2, 4, 5, 7, 10], 4)  # 1, 4, 7, 10


def test_has_k_ap_rejects_unsorted():
    with pytest.raises(ValueError):
        has_k_ap([3, 1, 2], 3)
    with pytest.raises(ValueError):
        has_k_ap([1, 1, 2], 3)


def test_has_k_ap_below_zero():
    # the lowest term bounds the difference, not 0
    assert has_k_ap([-5, 0, 5], 3)
    assert has_k_ap([-9, -6, -4, -3, 0], 4)  # -9, -6, -3, 0
    assert not has_k_ap([-5, 0, 6], 3)


ORDERS = st.sampled_from([3, 4, 5, 6, 10**18])


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-40, 40), max_size=12), ORDERS)
def test_has_k_ap_matches_brute(values, k):
    values = sorted(values)
    assert has_k_ap(values, k) == brute.contains_k_ap(values, k)


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(0, 60), min_size=1, max_size=12),
    st.integers(1, 60),
    ORDERS,
)
def test_ap_tails_matches_brute(values, above, k):
    members = sorted(values)
    c = members[-1] + above
    tails = ap_tails(c, members, set(members), k)
    diffs = brute.all_cover_diffs(set(members), c, k)
    assert tails == [c - d for d in reversed(diffs)]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 60), max_size=12), st.integers(0, 80), st.sampled_from([3, 4, 5]))
def test_brute_covered_at_matches_all_cover_diffs(values, n, k):
    assert brute.covered_at(values, n, k) == bool(brute.all_cover_diffs(values, n, k))


@pytest.mark.parametrize(
    "lo, hi, k, message",
    [
        (0, 10, 2, "progression length"),
        (5, 4, 3, "bad scan range"),
        (-1, 10, 3, "bad scan range"),
    ],
    ids=["k=2", "hi<lo", "lo<0"],
)
def test_uncovered_in_range_validation(lo, hi, k, message):
    with pytest.raises(ValueError, match=message):
        uncovered_in_range(BLOCK_SEQUENCE, lo, hi, k)


def test_ap_tails_with_nothing_earlier():
    assert ap_tails(5, [], set(), 3) == []


def test_finite_set_validation():
    with pytest.raises(ValueError):
        FiniteSet([3, 2])
    with pytest.raises(ValueError):
        FiniteSet([-1, 2])
    assert list(FiniteSet([0, 4, 9]).iter_upto(4)) == [0, 4]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_digit_automaton_matches_brute(brute_set_10k, k):
    expected = [n for n in range(401) if not brute.all_cover_diffs(brute_set_10k, n, k)]
    assert oracle.digit_automaton(BLOCK_DFA, 4, k).uncovered(400) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(0, 2 * 10**4))
def test_digit_automaton_matches_scan(k, upto):
    # the cached automaton's live rows grow and are reused across calls
    # of every size, in hypothesis's order
    expected = uncovered_in_range(BLOCK_SEQUENCE, 0, upto, k)
    assert oracle.digit_automaton(BLOCK_DFA, 4, k).uncovered(upto) == expected


@pytest.mark.parametrize(
    "dfa, base, k, states, size",
    [(BLOCK_DFA, 4, 3, 80, 115), (_form_dfa((0,), 5, 0), 5, 4, 35, 44),
     (_form_dfa((0,), 7, 0), 7, 6, 244, 269)],
    ids=["A k=3", "closed form p=5", "closed form p=7"],
)
def test_covering_automaton_cap(dfa, base, k, states, size):
    # size counts NFA states and subsets: a cap below it gives up, and a
    # cap at it builds what digit_automaton holds
    cached = oracle.digit_automaton(dfa, base, k)
    assert (len(cached.delta), cached.size) == (states, size)
    for cap in (0, 1, size - 1):
        assert oracle.covering_automaton(dfa, base, k, cap) is None
    built = oracle.covering_automaton(dfa, base, k, size)
    assert built is not cached
    assert (built.delta, built.covered, built.size) == (cached.delta, cached.covered, size)


def _reached(delta, sources):
    """Every state some digit string leads to from a state in sources."""
    seen = set(sources)
    todo = list(seen)
    while todo:
        for t in delta[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def test_block_set_uncovered_set_is_0_1_2():
    """A's uncovered set at k = 3 is exactly {0, 1, 2}, for every n.

    By `digit_automaton`'s proof, n is uncovered iff its base-4 digits,
    low first and padded with any number of high zeros, end in a state
    that is not covered.  Pair the automaton with the sign of
    (n mod 4^i) - (2 mod 4^i) after i digits: a digit that differs from
    2's digit at its place sets the sign, as it outweighs every lower
    place, and an equal digit keeps it.  After at least one digit, 2's
    digit count, the sign is that of n - 2 for the number n the string
    spells, and every n > 2 is spelled by some string.  So an uncovered
    n > 2 exists iff some reached pair, one digit or more in, has sign
    +1 and an uncovered state.  The search visits every reached pair
    and finds none.
    """
    automaton = oracle.digit_automaton(BLOCK_DFA, 4, 3)
    start = (0, 0, 0)  # (state, digits read capped at 1, sign)
    seen = {start}
    todo = [start]
    while todo:
        s, read, sign = todo.pop()
        c = 0 if read else 2  # 2's digit at this place
        for x, t in enumerate(automaton.delta[s]):
            pair = (t, 1, (x > c) - (x < c) or sign)
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    assert not [s for s, read, sign in seen if read and sign > 0 and not automaton.covered[s]]
    assert automaton.uncovered(2) == [0, 1, 2]


#: For each of the 12 closed forms with m <= 2 that the 25 order-5
#: sequences from 0 with a seed of at most four terms below 26 take, its
#: first seed; [0] starts S(0) and the rest are certified.
ORDER5_FORM_SEEDS = [
    [0], [0, 3], [0, 4], [0, 5], [0, 1, 4], [0, 1, 5], [0, 2, 4], [0, 2, 5],
    [0, 1, 2, 5], [0, 1, 3, 5], [0, 3, 5, 7], [0, 5, 6, 8],
]


def test_short_order5_seeds_take_twelve_forms():
    # 100 terms pass the level at m = 2; hundreds more of these seeds
    # are certified at m = 3
    forms = {}
    for size in range(4):
        for rest in combinations(range(1, 26), size):
            seed = [0, *rest]
            if not has_k_ap(seed, 5) and (form := form_of(seed, 5, 100)) and form[2] <= 2:
                forms.setdefault(form, []).append(seed)
    assert sum(map(len, forms.values())) == 25
    assert [seeds[0] for seeds in forms.values()] == ORDER5_FORM_SEEDS


def order5_form_dfa(seed):
    """The base-5 DFA of the closed form that the order-5 sequence from seed is."""
    low, below, m = form_of(seed, 5, 100)
    return _form_dfa(below, 5, m)


@pytest.mark.parametrize(
    "dfa, base, k",
    [(BLOCK_DFA, 4, 4), (_form_dfa((0,), 5, 0), 5, 4), (_form_dfa((0,), 7, 0), 7, 6),
     *((order5_form_dfa(seed), 5, 4) for seed in ORDER5_FORM_SEEDS[1:])],
    ids=["A k=4", "closed form p=5", "closed form p=7",
         *(f"form of {','.join(map(str, seed))} p=5" for seed in ORDER5_FORM_SEEDS[1:])],
)
def test_uncovered_set_is_infinite(dfa, base, k):
    """Infinitely many n are uncovered: A at k = 4, and the closed forms.

    So no order-5 sequence that takes one of the forms of
    ORDER5_FORM_SEEDS, nor one moved up by a constant, covers AP_4.

    Take a state s reached from the start by a string u, a digit c != 0
    from s to a state t that leads back to s by a string w, and a string
    v from s to an uncovered state.  Each string u (c w)^m v, m >= 0,
    ends uncovered, and the number it spells grows with m: going to
    m + 1 adds the block c w, of value at least 1, at place
    |u| + m |c w| and moves v up.  So each m gives another uncovered n.
    """
    automaton = oracle.digit_automaton(dfa, base, k)
    delta, covered = automaton.delta, automaton.covered
    uncovered = {s for s, c in enumerate(covered) if not c}
    leads_on = [s for s in _reached(delta, [0]) if _reached(delta, [s]) & uncovered]
    assert any(
        s in _reached(delta, [t]) for s in leads_on for t in delta[s][1:]
    )


def test_closed_form_uncovered_counts_at_p_5():
    # the uncovered n below 5^L, L = 3 .. 10, keep growing
    automaton = oracle.digit_automaton(_form_dfa((0,), 5, 0), 5, 4)
    counts = [len(automaton.uncovered(5**L - 1)) for L in range(3, 11)]
    assert counts == [11, 18, 27, 38, 51, 66, 83, 102]


@pytest.mark.parametrize(
    "seed, upto, count",
    [([0], 10**5, 65), ([0], 10**7, 103), ([0, 3], 10**5, 20), ([0, 3], 10**7, 24)],
)
def test_problem1_uncovered_counts_at_order5(seed, upto, count):
    assert len(stanley.explore(seed, 4, upto)[2]) == count


def test_explore_keeps_the_automaton_cache_bounded():
    # 300 seeds with 12 forms, more than the cache holds, so it drops the
    # automaton used least recently
    oracle.digit_automaton.cache_clear()
    for low in range(25):
        for seed in ORDER5_FORM_SEEDS:
            moved = [low + t for t in seed]
            terms = generate_upto(moved, 5, 300)
            expected = uncovered_in_range(FiniteSet(terms), 0, 300, 4)
            assert stanley.explore(moved, 4, 300) == (len(terms), terms[-1], expected)
    info = oracle.digit_automaton.cache_info()
    assert info.currsize == info.maxsize < len(ORDER5_FORM_SEEDS) <= info.misses
