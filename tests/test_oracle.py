import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from apcover import oracle
from apcover.oracle import (
    FiniteSet,
    ap_tails,
    covers,
    has_k_ap,
    min_threshold,
    uncovered_in_range,
    weak_covers,
)
from apcover.sequence import BLOCK_SEQUENCE
from apcover.witness import Witness, find_witness
from apcover.witness import validate as wvalidate


class Naturals:
    def member(self, n):
        return n >= 0

    def iter_upto(self, limit):
        return iter(range(limit + 1))


class Evens:
    def member(self, n):
        return n >= 0 and n % 2 == 0

    def iter_upto(self, limit):
        return iter(range(0, limit + 1, 2))


def test_covers_examples():
    assert covers(Naturals(), 5, 3) == [3, 4]
    assert covers(BLOCK_SEQUENCE, 20, 3) == [14, 17]
    assert covers(Evens(), 7, 3) is None


def test_covers_rejects_short_progressions():
    with pytest.raises(ValueError):
        covers(Naturals(), 5, 2)
    with pytest.raises(ValueError, match="progression length"):
        weak_covers(BLOCK_SEQUENCE, 26, 2)  # a member, checked after k
    with pytest.raises(ValueError, match="progression length"):
        has_k_ap([0, 1], 2)


def test_covers_terms_are_ordered_members():
    w = covers(BLOCK_SEQUENCE, 1000, 3)
    assert w is not None and len(w) == 2
    a, b = w
    assert 0 <= a < b < 1000
    assert BLOCK_SEQUENCE.member(a) and BLOCK_SEQUENCE.member(b)
    assert a + 1000 == 2 * b


def test_covers_longer_progressions():
    # 4-term AP ending at 9 inside the naturals
    assert covers(Naturals(), 9, 4) == [6, 7, 8]
    assert covers(Evens(), 9, 4) is None


def test_covers_picks_minimal_difference(brute_set_10k):
    for n in range(1, 2001):
        w = covers(BLOCK_SEQUENCE, n, 3)
        diffs = brute.all_cover_diffs(brute_set_10k, n, 3)
        if w is None:
            assert diffs == []
        else:
            assert diffs and n - w[-1] == diffs[0]


def test_construction_and_oracle_agree_to_1e4():
    # every n in [32, 1e4] is covered, and both witness routes validate
    assert uncovered_in_range(BLOCK_SEQUENCE, 32, 10_000, 3) == []
    for n in range(32, 10_000, 97):
        pair = covers(BLOCK_SEQUENCE, n, 3)
        assert pair is not None
        assert wvalidate(Witness(a=pair[0], b=pair[1], n=n))
        assert wvalidate(find_witness(n))


def test_weak_covers():
    assert weak_covers(BLOCK_SEQUENCE, 26, 3) == []
    assert weak_covers(BLOCK_SEQUENCE, 20, 3) == [14, 17]
    assert weak_covers(Evens(), 7, 3) is None


def test_weak_equals_covers_off_sequence():
    for n in range(0, 500):
        if not BLOCK_SEQUENCE.member(n):
            assert weak_covers(BLOCK_SEQUENCE, n, 3) == covers(
                BLOCK_SEQUENCE, n, 3
            )


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


def test_uncovered_scan_agrees_with_covers():
    uncovered = set(uncovered_in_range(BLOCK_SEQUENCE, 0, 400, 3))
    for n in range(401):
        assert (covers(BLOCK_SEQUENCE, n, 3) is None) == (n in uncovered), n


def test_uncovered_scan_order_k4():
    seq = FiniteSet([0, 1, 2, 4, 5, 7])
    uncovered = uncovered_in_range(seq, 0, 10, 4)
    for n in range(11):
        assert (covers(seq, n, 4) is None) == (n in uncovered), n


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
    assert bool(tails) == brute.ap_completes_at(set(members), c, k)
    diffs = brute.all_cover_diffs(set(members), c, k)
    assert tails == [c - d for d in reversed(diffs)]


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
    s = FiniteSet([0, 4, 9])
    assert s.member(4) and not s.member(5)
    assert not s.member(10) and not s.member(-1)
    assert list(s.iter_upto(4)) == [0, 4]
