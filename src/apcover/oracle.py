"""Brute-force ground truth for AP_k covering questions.

Everything here works against any sequence object with member(n) and
iter_upto(limit) (the members up to limit, increasing), so the same
oracle validates the block construction, Stanley sequences and ad-hoc
sets.  Single queries scan the common difference d = 1, 2, ...
directly.  Bulk range scans go through _kernels.uncovered_scan, which
covers every n at once with shifted big-int bitsets of the members,
one `_kernels.covering_pass` per member t for every k: t + d is covered
when t - d is a member, and each further term ANDs in one residue class
of the members (same verdicts as covers, much cheaper).

`ap_tails` is the one k-AP filter on explicit ascending lists: the
terms s < t with t - j(t - s) present for every lower j.  `has_k_ap`
asks it of every term against those before it and `greedy_next` of
each candidate.  The Stanley sieve runs the same covering pass online
instead, and asks `ap_tails` only about k-APs that lie wholly in the
seed terms below its floor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from . import _kernels


class FiniteSet:
    """Sequence view (member, iter_upto) of an explicit strictly increasing list."""

    def __init__(self, values) -> None:
        values = list(values)
        if any(y <= x for x, y in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        if values and values[0] < 0:
            raise ValueError("values must be nonnegative")
        self._values = values
        self._set = set(values)

    def member(self, n: int) -> bool:
        return n in self._set

    def iter_upto(self, limit: int) -> Iterator[int]:
        return iter(self._values[: bisect_right(self._values, limit)])


def covers(seq, n: int, k: int = 3) -> list[int] | None:
    """Smallest-difference witness that k-1 members of seq extend to n.

    Scans d = 1, 2, ... while n - (k-1)*d >= 0 and returns the full
    ascending witness [n-(k-1)d, ..., n-d], or None when no difference
    works.  All witness terms are nonnegative and below n.
    """
    if k < 3:
        raise ValueError(f"progression length must be >= 3, got {k}")
    for d in range(1, n // (k - 1) + 1):
        if not seq.member(n - d):
            continue
        if all(seq.member(n - j * d) for j in range(2, k)):
            return [n - j * d for j in range(k - 1, 0, -1)]
    return None


def weak_covers(seq, n: int, k: int = 3) -> list[int] | None:
    """Like covers, but members of seq are exempt from the requirement.

    A member n returns [], since it needs no earlier terms; any other n
    returns what covers returns.  Both [] and None are falsy: tell them
    apart with `is None`.
    """
    if k < 3:
        raise ValueError(f"progression length must be >= 3, got {k}")
    if seq.member(n):
        return []
    return covers(seq, n, k)


def uncovered_in_range(
    seq, lo: int, hi: int, k: int = 3
) -> list[int]:
    """All n in [lo, hi] that covers() would report as uncovered.

    Materializes seq up to hi into a membership table once and hands
    it to the bitset scan in _kernels.
    """
    if k < 3:
        raise ValueError(f"progression length must be >= 3, got {k}")
    if lo < 0 or hi < lo:
        raise ValueError(f"bad scan range [{lo}, {hi}]")
    table = bytearray(hi + 1)
    for v in seq.iter_upto(hi):
        table[v] = 1
    # the scan reads its members off the table
    return _kernels.uncovered_scan(table, (), lo, hi, k)


def min_threshold(seq, k: int, scan_to: int) -> int | None:
    """Largest n <= scan_to with no covering witness, or None if all covered.

    The empirical covering threshold: above the returned value every
    n <= scan_to extends k-1 smaller members of seq to a k-term AP.
    """
    if scan_to < 1:
        raise ValueError(f"scan_to must be >= 1, got {scan_to}")
    uncovered = uncovered_in_range(seq, 0, scan_to, k)
    return uncovered[-1] if uncovered else None


def ap_tails(t: int, earlier: list[int], present, m: int) -> list[int]:
    """Each s < t in `earlier` whose d = t - s gives an m-term AP ending at t.

    s qualifies when t - j*d is in `present` for j = 2..m-1.  `earlier`
    is ascending and no term may lie below its first value, so only
    s >= t - (t - earlier[0]) // (m-1) are tried; the candidates are
    filtered one j at a time, stopping once none is left.
    """
    if not earlier:
        return []
    lo = bisect_left(earlier, t - (t - earlier[0]) // (m - 1))
    tails = earlier[lo : bisect_left(earlier, t, lo)]
    for j in range(2, m):
        if not tails:  # huge m: stop after the last candidate goes
            break
        tails = [s for s in tails if t - j * (t - s) in present]
    return tails


def has_k_ap(values, k: int = 3) -> bool:
    """True iff the strictly increasing list contains a k-term AP.

    Some term t must end a k-term AP whose other terms come before it.
    """
    if k < 3:
        raise ValueError(f"progression length must be >= 3, got {k}")
    values = list(values)
    if any(y <= x for x, y in zip(values, values[1:])):
        raise ValueError("values must be strictly increasing")
    present = set(values)
    return any(ap_tails(t, values, present, k) for t in values)
