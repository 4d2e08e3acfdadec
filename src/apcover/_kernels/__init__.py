"""Sweep kernels.

The witness sweep is pure Python only.  The uncovered scan uses the
compiled Cython backend when it was built and the progression length is
sane; otherwise the pure-Python backend takes over.  Set APCOVER_PURE=1
to force the pure backend regardless.
"""

from __future__ import annotations

import os

from . import _pykernels

if os.environ.get("APCOVER_PURE") == "1":
    _ckernels = None
else:
    try:
        from . import _ckernels
    except ImportError:
        _ckernels = None

BACKEND = "c" if _ckernels is not None else "python"

_C_SCAN_MAX_K = 1000

witness_sweep = _pykernels.witness_sweep


def uncovered_scan(table, elements, lo: int, hi: int, k: int) -> list[int]:
    """All n in [lo, hi] with no k-AP witness inside the tabulated set."""
    if _ckernels is not None and 3 <= k <= _C_SCAN_MAX_K:
        return _ckernels.uncovered_scan(table, elements, lo, hi, k)
    return _pykernels.uncovered_scan(table, elements, lo, hi, k)
