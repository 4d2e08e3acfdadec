import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from apcover import oracle
from apcover.oracle import (
    FiniteSet,
    ap_tails,
    has_k_ap,
    min_threshold,
    uncovered_in_range,
)
from apcover.sequence import BLOCK_SEQUENCE
from apcover.witness import Witness, find_witness
from apcover.witness import validate as wvalidate


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
