"""Brute-force ground truth for AP_k covering questions.

Everything here works against any sequence object with member(n) and
iter_upto(limit) (the members up to limit, increasing), so the same
oracle validates the block construction, Stanley sequences and ad-hoc
sets.  Single queries scan the common difference d = 1, 2, ...
directly.  Bulk range scans go through `uncovered_scan`, which covers
every n at once with one `covering_pass` per member (same verdicts as
covers, much cheaper); `covering_pass` says how.

`ap_tails` is the one k-AP filter on explicit ascending lists: the
terms s < t with t - j(t - s) present for every lower j.  `has_k_ap`
asks it of every term against those before it and `greedy_next` of
each candidate.  The Stanley sieve runs `covering_pass` online
instead, and asks `ap_tails` only about k-APs that lie wholly in the
seed terms below its floor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator


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
    it to `uncovered_scan`.
    """
    if k < 3:
        raise ValueError(f"progression length must be >= 3, got {k}")
    if lo < 0 or hi < lo:
        raise ValueError(f"bad scan range [{lo}, {hi}]")
    table = bytearray(hi + 1)
    for v in seq.iter_upto(hi):
        table[v] = 1
    # the scan reads its members off the table
    return uncovered_scan(table, (), lo, hi, k)


#: Maps a 0/1 membership byte to the binary digit int() reads.
_BITS = bytes.maketrans(b"\x00\x01", b"01")

#: How far behind the newest member the low end of `covered` may lag
#: before its settled bits are read out and shifted off.
SETTLE = 4096


def covering_pass(rev: int, p: int, off: int, classes: dict, k: int) -> int:
    """The k-APs whose second-highest term is the member t = top - p.

    `rev` has bit top - v set for each member v <= top.  The result has
    bit off + d - 1 set iff t - d, t - 2d, ..., t - (k-2)d are members,
    so that t + d completes a k-AP of members below it.

    `rev >> (p + 1)` puts t - d at bit d - 1 and drops the members at or
    above t.  The term t - j*d, j = 2 .. k-2, is bit r + j*(p//j + d) of
    `rev` with r = p % j, so the residue class G[j][r] (bit i set iff
    bit r + j*i of `rev` is), shifted right by p//j + 1, lines it up
    too, and one AND per j keeps the d where all are members.  `classes`
    maps j to {r: G[j][r]}, each class built on first use; a k more than
    2 above t less the lowest member builds none.  The run is shifted up
    by off.

    At k = 3 with off <= p + 1 a pass is one shift: `rev` goes right by
    p + 1 - off straight to bit off + d - 1, and t and the members above
    it, which land below bit off, are cleared.  The sieve adds t after
    its pass, so there it finds none to clear.

    Both covering computations are this pass.  `uncovered_scan` runs it
    once per member of a fixed table, and the Stanley sieve
    (`stanley._extend`) once per new term, adding the term to `rev` and
    `classes` after its pass.  Each ORs the result into a bitset
    `covered` whose bit i stands for base + i, with off = t + 1 - base,
    and shifts `covered` down to base = t + 1 once off passes SETTLE.
    """
    if k == 3:
        if off <= p + 1:
            run = rev >> (p + 1 - off)
            above = run & ((1 << off) - 1)
            return run ^ above if above else run
        return (rev >> (p + 1)) << off
    run = rev >> (p + 1)
    if run.bit_length() < k - 2:  # even d = 1 reaches below the lowest member
        return 0
    for j in range(2, k - 1):
        if not run:
            break
        r = p % j
        cls = classes.get(j)
        if cls is None:
            cls = classes[j] = {}
        g = cls.get(r)
        if g is None:
            g = cls[r] = residue_class(rev, j, r)
        run &= g >> (p // j + 1)
    return run << off


def residue_class(rev: int, j: int, r: int) -> int:
    """The int whose bit i is bit r + j*i of rev."""
    bits = format(rev >> r, "b")  # bit q is character len - 1 - q
    return int(bits[(len(bits) - 1) % j :: j], 2)


def uncovered_scan(table, elements, lo: int, hi: int, k: int) -> list[int]:
    """All n in [lo, hi] with no k-AP witness inside the tabulated set.

    `table` is a 0/1 membership array covering [0, hi]; `elements`
    lists the same members in increasing order and is not read: the
    answer depends on the table alone.  n is covered when some d >= 1
    puts all of n - (k-1)*d, ..., n - d in the set.

    One `covering_pass` per member t, in increasing order, ORs its run
    into `covered` as that pass describes, so bit n - base is set iff n
    ends a k-AP found so far.  No later pass reaches n <= t, so the bits
    that `covered` shifts off are final, and their zeros are read out
    first.  No int in a pass is wider than about twice the member it
    runs for.
    """
    if len(table) <= hi:
        raise ValueError("membership table must cover [0, hi]")
    rev = int(bytes(table[: hi + 1]).translate(_BITS), 2)  # bit hi - v: member v
    classes: dict[int, dict[int, int]] = {}
    uncovered: list[int] = []
    covered = base = 0
    t = table.find(1, 0, hi + 1)
    while t >= 0:
        off = t + 1 - base
        if off > SETTLE:
            _read_zeros(covered, base, t + 1, lo, uncovered)
            covered >>= off
            base, off = t + 1, 0
        covered |= covering_pass(rev, hi - t, off, classes, k)
        t = table.find(1, t + 1, hi + 1)
    _read_zeros(covered, base, hi + 1, lo, uncovered)
    return uncovered


def _read_zeros(covered: int, base: int, stop: int, lo: int, out: list[int]) -> None:
    """Append each n in [max(lo, base), stop) whose bit n - base is clear."""
    first = max(lo, base)
    width = stop - first
    if width <= 0:
        return
    # below a sentinel 1 the reversed string has n = first + i at character i
    bits = bin(covered >> (first - base) & ((1 << width) - 1) | 1 << width)[:2:-1]
    i = bits.find("0")
    while i >= 0:
        out.append(first + i)
        i = bits.find("0", i + 1)


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
