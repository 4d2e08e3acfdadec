from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from apcover import oracle, stanley, witness
from apcover.witness import find_witness, validate


def test_pure_sweep_clean_small():
    assert witness.witness_sweep(32, 3000) == []


def test_pure_sweep_rejects_low_start():
    with pytest.raises(ValueError):
        witness.witness_sweep(1, 100)


def _per_n(lo, hi):
    return [n for n in range(lo, hi + 1) if not validate(find_witness(n))]


WINDOWS = {
    "lowest-levels": (32, 40_000),  # levels 2..7, every m boundary
    "level-boundary": (2 * 4**10 - 3_000, 2 * 4**10 + 3_000),
    "m-boundary-unaligned": (3 * 4**10 - 1_234, 3 * 4**10 + 777),
    "level-boundary-tiny": (8 * 4**7 - 5, 8 * 4**7 + 4),
    "inside-one-block": (4**6 * 37 + 1, 4**6 * 38 - 2),
    "2^63": (2**63 - 1_000, 2**63 + 2_000),
    "4^60": (4**60 - 1_500, 4**60 + 1_500),
    "3*4^40": (3 * 4**40 - 100, 3 * 4**40 + 100),
    "4^500": (4**500 - 100, 4**500 + 100),
}


@pytest.mark.parametrize("lo, hi", WINDOWS.values(), ids=WINDOWS.keys())
def test_sweep_matches_per_n_loop(lo, hi):
    assert witness.witness_sweep(lo, hi) == _per_n(lo, hi)


@settings(max_examples=20, deadline=None)
@given(st.integers(32, 4**70), st.integers(0, 3_000))
def test_sweep_matches_per_n_loop_random_windows(lo, width):
    assert witness.witness_sweep(lo, lo + width) == _per_n(lo, lo + width)


@pytest.mark.parametrize(
    "digit_row, lead_row",
    [
        # a + n = 2b still holds, but a gets the non-member digit 3;
        # a + n = 2b fails for every n with m = 5
        ((1, (2, 3)), (5, (3, 2))),
        # a drops to level l-2 when n's digit l-1 is 2 and the rest
        # avoid 2; b lands in level l+1 for m = 6
        ((2, (1, 0)), (6, (5, 4))),
    ],
)
def test_sweep_catches_broken_pair_table(monkeypatch, digit_row, lead_row):
    monkeypatch.setitem(witness.DIGIT_PAIRS, *digit_row)
    monkeypatch.setitem(witness.LEAD_PAIRS, *lead_row)
    for lo, hi in [(32, 20_000), (2**63, 2**63 + 3_000)]:
        failures = witness.witness_sweep(lo, hi)
        assert failures
        assert failures == _per_n(lo, hi)


@pytest.mark.parametrize("lead_row", [(4, (4, 4)), (2, (2, 2)), (5, (3, 2))])
def test_certified_blocks_match_per_n_loop_under_patched_leads(monkeypatch, lead_row):
    # the digit table stays canonical, so blocks are still certified by
    # their first n; under (4, (4, 4)) b < n and a < b hold for some n
    # with m = 4 and fail for others, so a failing first n must not
    # decide the rest of its block
    monkeypatch.setitem(witness.LEAD_PAIRS, *lead_row)
    windows = [(32, 40_000), (2**63, 2**63 + 30_000), (4**11 - 7_000, 4**11 + 70_000)]
    results = [(witness.witness_sweep(lo, hi), _per_n(lo, hi)) for lo, hi in windows]
    assert any(expected for _, expected in results)
    for got, expected in results:
        assert got == expected


def _sweep_witness_calls(monkeypatch, hi):
    calls = []

    def counted(n):
        calls.append(n)
        return find_witness(n)

    monkeypatch.setattr(witness, "find_witness", counted)
    assert witness.witness_sweep(32, hi) == []
    return len(calls)


@pytest.mark.parametrize("hi", [4**60, 4**500])
def test_sweep_work_grows_with_levels_not_width(monkeypatch, hi):
    assert _sweep_witness_calls(monkeypatch, hi) <= 30 * (witness.level_for(hi) + 1)


@pytest.mark.parametrize("hi, most", [(4**60, 360), (4**500, 3_000)], ids=["4^60", "4^500"])
def test_sweep_certifies_whole_levels(monkeypatch, hi, most):
    # blocks of 4**level n, one per coarse quotient, are certified whole
    assert _sweep_witness_calls(monkeypatch, hi) <= most


def _table_of(values, length):
    table = bytearray(length)
    for v in values:
        table[v] = 1
    return table


@lru_cache(maxsize=None)
def _brute_uncovered(values, lo, hi, k):
    member_set = set(values)
    return [n for n in range(lo, hi + 1) if not brute.all_cover_diffs(member_set, n, k)]


A_3000 = tuple(brute.elements_upto(3_000))
EVENS_200 = tuple(range(0, 201, 2))
STANLEY_2000 = {
    order: tuple(stanley.generate_upto([0, 1], order, 2_000))
    for order in (4, 5, 6, 7)
}

SCANS = {
    "A-k3": (A_3000, 3_001, 0, 3_000, 3),
    "evens-k3": (EVENS_200, 201, 0, 200, 3),
    "evens-k4": (EVENS_200, 201, 0, 200, 4),
    "evens-k6": (EVENS_200, 201, 0, 200, 6),
    **{
        f"stanley{order}-k{k}": (STANLEY_2000[order], 2_001, 0, 2_000, k)
        for order in (4, 5, 6)
        for k in (3, 4, 5)
    },
    **{f"stanley{order}-k6": (STANLEY_2000[order], 2_001, 0, 2_000, 6) for order in (6, 7)},
    # hi is covered only by the largest difference hi // (k-1)
    "largest-d-k3": ((0, 150), 301, 0, 300, 3),
    "largest-d-k4": ((0, 100, 200), 301, 0, 300, 4),
    "largest-d-k5": ((0, 100, 200, 300), 401, 0, 400, 5),
    "largest-d-k6": ((0, 100, 200, 300, 400), 501, 0, 500, 6),
    # only 299 and 300 are covered, each with d = 1 through 298 lower terms
    "consecutive-k300": (tuple(range(301)), 301, 0, 300, 300),
    "A-window-lo>0": (A_3000, 3_001, 1_700, 2_345, 3),
    "A-table-longer-than-hi": (A_3000, 3_001, 0, 1_000, 3),
    "stanley5-window-longer-table-k4": (STANLEY_2000[5], 2_001, 37, 1_234, 4),
    "stanley7-window-longer-table-k6": (STANLEY_2000[7], 2_001, 101, 1_500, 6),
}


@pytest.mark.parametrize("values, length, lo, hi, k", SCANS.values(), ids=SCANS.keys())
def test_scan_matches_brute(values, length, lo, hi, k):
    # windows are checked against the brute list of the whole table
    whole = _brute_uncovered(values, 0, length - 1, k)
    expected = [n for n in whole if lo <= n <= hi]
    table = _table_of(values, length)
    assert oracle.uncovered_scan(table, list(values), lo, hi, k) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(0, 300)),
    st.integers(3, 6),
    st.integers(0, 300),
    st.integers(0, 300),
)
def test_scan_matches_brute_random_sets(members, k, x, y):
    lo, hi = min(x, y), max(x, y)
    values = tuple(sorted(members))
    table = _table_of(values, 301)
    expected = _brute_uncovered(values, lo, hi, k)
    assert oracle.uncovered_scan(table, list(values), lo, hi, k) == expected


def _brute_covered(values, length, hi, k):
    # bit n set iff n <= hi is covered, as _covered_by_passes returns it
    uncovered = [n for n in _brute_uncovered(values, 0, length - 1, k) if n <= hi]
    return ((1 << (hi + 1)) - 1) ^ sum(1 << n for n in uncovered)


def _covered_by_passes(table, hi, k, lag=None):
    # one covering_pass per member t <= hi, its run placed at bit
    # off = min(t + 1, lag) and shifted back up by t + 1 - off: the k = 3
    # pass takes its single shift while off <= hi - t + 1: with no lag
    # for t up to hi / 2, with a short lag for every t but the last few
    members = [v for v in range(hi + 1) if table[v]]
    rev = sum(1 << (hi - v) for v in members)
    classes = {}
    covered = 0
    for t in members:
        off = t + 1 if lag is None else min(t + 1, lag)
        covered |= oracle.covering_pass(rev, hi - t, off, classes, k) << (t + 1 - off)
    return covered & ((1 << (hi + 1)) - 1)


@pytest.mark.parametrize("values, length, lo, hi, k", SCANS.values(), ids=SCANS.keys())
def test_covered_matches_brute(values, length, lo, hi, k):
    table = _table_of(values, length)
    expected = _brute_covered(values, length, hi, k)
    for lag in (None, 1, 7):
        assert _covered_by_passes(table, hi, k, lag) == expected, lag


@settings(max_examples=150, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=301), st.integers(3, 6), st.data())
def test_covered_matches_brute_random_tables(flags, k, data):
    # about half of each table is set, so k-APs up to k = 6 are common
    hi = data.draw(st.integers(0, len(flags) - 1))
    lag = data.draw(st.sampled_from([None, 1, 7]))
    values = tuple(i for i, flag in enumerate(flags) if flag)
    assert _covered_by_passes(flags, hi, k, lag) == _brute_covered(values, len(flags), hi, k)


def test_residue_class():
    rev = int("1011001110001", 2)
    for j in range(1, 6):
        for r in range(8):
            bits = [rev >> q & 1 for q in range(r, rev.bit_length(), j)]
            assert oracle.residue_class(rev, j, r) == sum(b << i for i, b in enumerate(bits))


#: tables longer than 3 * SETTLE, so that the scan reads out and shifts
#: down its settled bits more than once
LONG = 13_000
A_LONG = tuple(brute.elements_upto(LONG))
LONG_TABLES = {
    "A-k3": (A_LONG, 3),
    "A-k4": (A_LONG, 4),  # some 40 uncovered n in each window
    "stanley5-k4": (tuple(stanley.generate_upto([0, 1], 5, LONG)), 4),
    "stanley3-k3": (tuple(stanley.generate_upto([0, 1], 3, LONG)), 3),
}


def _settle_points(values, hi):
    # the n = t + 1 at which the scan's `covered` starts over: the first
    # member t more than SETTLE past the last such point
    base, points = 0, []
    for t in values:
        if t <= hi and t + 1 - base > oracle.SETTLE:
            base = t + 1
            points.append(base)
    return points


@pytest.mark.parametrize("name", LONG_TABLES)
def test_scan_windows_around_shift_down(name):
    values, k = LONG_TABLES[name]
    table = _table_of(values, LONG + 1)
    points = _settle_points(values, LONG)
    assert points
    for point in points:
        # before, across and after the point; the brute check covers the
        # window only, while the scan runs every member below hi and so
        # shifts down at each earlier point as well
        for lo, hi in [(point - 48, point - 1), (point - 24, point + 24), (point, point + 48)]:
            expected = _brute_uncovered(values, lo, hi, k)
            assert oracle.uncovered_scan(table, [], lo, hi, k) == expected, (lo, hi)


def test_scan_reads_members_from_the_table():
    # `elements` is not read: a list that disagrees with the table
    # changes nothing
    table = _table_of(A_3000, 3_001)
    expected = _brute_uncovered(A_3000, 0, 3_000, 3)
    assert oracle.uncovered_scan(table, [], 0, 3_000, 3) == expected
    assert oracle.uncovered_scan(table, list(EVENS_200), 0, 3_000, 3) == expected


def test_scan_table_must_cover_range():
    values = list(EVENS_200[:51])
    with pytest.raises(ValueError):
        oracle.uncovered_scan(_table_of(values, 101), values, 0, 200, 3)
