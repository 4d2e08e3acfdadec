import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcover import _kernels, witness
from apcover._kernels import _pykernels
from apcover.sequence import iter_range
from apcover.witness import find_witness, validate

compiled = pytest.mark.skipif(
    _kernels._ckernels is None, reason="compiled kernel not built"
)


def _table_for(limit):
    table = bytearray(limit + 1)
    elements = []
    for v in iter_range(1, limit):
        table[v] = 1
        elements.append(v)
    return table, elements


def test_pure_sweep_clean_small():
    assert _pykernels.witness_sweep(32, 3000) == []


def test_pure_sweep_rejects_low_start():
    with pytest.raises(ValueError):
        _pykernels.witness_sweep(1, 100)


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
    assert _pykernels.witness_sweep(lo, hi) == _per_n(lo, hi)


@settings(max_examples=20, deadline=None)
@given(st.integers(32, 4**70), st.integers(0, 3_000))
def test_sweep_matches_per_n_loop_random_windows(lo, width):
    assert _pykernels.witness_sweep(lo, lo + width) == _per_n(lo, lo + width)


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
    _pykernels._low_tables.cache_clear()
    for lo, hi in [(32, 20_000), (2**63, 2**63 + 3_000)]:
        failures = _pykernels.witness_sweep(lo, hi)
        assert failures
        assert failures == _per_n(lo, hi)


@compiled
def test_backends_agree_on_uncovered_scan():
    c = _kernels._ckernels
    table, elements = _table_for(3000)
    assert c.uncovered_scan(table, elements, 0, 3000, 3) == (
        _pykernels.uncovered_scan(table, elements, 0, 3000, 3)
    )
    evens = list(range(0, 201, 2))
    etable = bytearray(201)
    for v in evens:
        etable[v] = 1
    assert c.uncovered_scan(etable, evens, 0, 200, 3) == (
        _pykernels.uncovered_scan(etable, evens, 0, 200, 3)
    )
    assert c.uncovered_scan(etable, evens, 0, 200, 4) == (
        _pykernels.uncovered_scan(etable, evens, 0, 200, 4)
    )


def test_scan_table_must_cover_range():
    table, elements = _table_for(100)
    with pytest.raises(ValueError):
        _pykernels.uncovered_scan(table, elements, 0, 200, 3)
    if _kernels._ckernels is not None:
        with pytest.raises(ValueError):
            _kernels._ckernels.uncovered_scan(table, elements, 0, 200, 3)


def test_dispatcher_routes_huge_bounds_to_pure():
    # beyond machine words the sweep stays exact
    lo = 1 << 63
    assert _kernels.witness_sweep(lo, lo + 200) == []


def test_dispatcher_witness_sweep_matches_backends():
    assert _kernels.witness_sweep(32, 2000) == _pykernels.witness_sweep(
        32, 2000
    )
