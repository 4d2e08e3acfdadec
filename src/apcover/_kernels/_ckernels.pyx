# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel backend: an int64 reimplementation of the uncovered scan.

Must return exactly what _pykernels.uncovered_scan returns on any shared
input; the dispatcher routes absurd progression lengths to the pure
backend instead.
"""

import array as _array

from cpython cimport array

ctypedef long long i64

BACKEND = "c"


def uncovered_scan(const unsigned char[:] table, elements, i64 lo, i64 hi, int k):
    """All n in [lo, hi] with no k-AP witness inside the tabulated set."""
    cdef array.array buf = _array.array("q", elements)
    cdef i64[:] elems = buf
    cdef Py_ssize_t top = 0, idx, cnt = elems.shape[0]
    cdef i64 n, b, d
    cdef int j
    cdef bint found
    if table.shape[0] <= hi:
        raise ValueError("membership table must cover [0, hi]")
    if lo < 0:
        raise ValueError(f"scan range must be nonnegative, got lo={lo}")
    uncovered = []
    for n in range(lo, hi + 1):
        while top < cnt and elems[top] < n:
            top += 1
        found = False
        for idx in range(top - 1, -1, -1):
            b = elems[idx]
            d = n - b
            if n - (k - 1) * d < 0:
                break
            found = True
            for j in range(2, k):
                if not table[n - j * d]:
                    found = False
                    break
            if found:
                break
        if not found:
            uncovered.append(n)
    return uncovered
