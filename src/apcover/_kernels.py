"""Sweep kernels: the witness sweep and the uncovered scan.

Both are pure Python over exact integers; BACKEND names the only
backend there is.
"""

from __future__ import annotations

from functools import lru_cache

from .sequence import level_of
from .witness import DIGIT_PAIRS, MIN_N, find_witness, level_for

BACKEND = "python"

#: The sweep walks aligned blocks of 4**BLOCK_DIGITS consecutive n.
BLOCK_DIGITS = 6


@lru_cache(maxsize=4)
def _low_tables(digit_pairs: tuple[tuple[int, int], ...]):
    """Low parts of b and a for every remainder, one table pair per width.

    Entry t holds (low_b, low_a), indexed by r in [0, 4**t): the sum of
    the pair-table images of r's t base-4 digits, which is what
    find_witness adds below position t.  Keyed by the digit pair rows
    themselves, so a changed pair table never meets stale tables.
    """
    low_b, low_a = (0,), (0,)
    tables = [(low_b, low_a)]
    for _ in range(BLOCK_DIGITS):
        low_b = tuple(4 * x + v_b for x in low_b for v_b, _ in digit_pairs)
        low_a = tuple(4 * x + v_a for x in low_a for _, v_a in digit_pairs)
        tables.append((low_b, low_a))
    return tuple(tables)


def witness_sweep(lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] whose constructed witness fails validation.

    An empty list is the expected outcome; any entry is a
    counterexample to the covering construction.

    Equivalent to collecting every n with not validate(find_witness(n)),
    but walks [lo, hi] in aligned blocks of 4**t consecutive n, with
    t = min(BLOCK_DIGITS, level).  Level, coarse quotient and the digits
    above position t are fixed inside a block, so each a and b is the
    block's high part, read off find_witness at the block's first n,
    plus a low part from _low_tables.  Every n still gets the checks
    validate makes; membership of a and b is decided by level_of, once
    per distinct low part in the block.
    """
    if lo < MIN_N:
        raise ValueError(f"sweep starts at {MIN_N}, got lo={lo}")
    tables = _low_tables(tuple(DIGIT_PAIRS[d] for d in range(4)))
    failures: list[int] = []
    start = lo
    while start <= hi:
        level = level_for(start)
        t = min(BLOCK_DIGITS, level)
        base = start >> (2 * t) << (2 * t)
        stop = min(hi, base + (1 << (2 * t)) - 1)
        failures += _sweep_block(level, base, start, stop, tables[t])
        start = stop + 1
    return failures


def _sweep_block(level, base, start, stop, low) -> list[int]:
    """Failures among n in [start, stop], all inside the block at `base`."""
    w = find_witness(base)
    high_b = w.b - low[0][0]
    high_a = w.a - low[1][0]
    low_b = low[0][start - base:stop - base + 1]
    low_a = low[1][start - base:stop - base + 1]
    ok_b = {v for v in set(low_b) if level_of(high_b + v) == level}
    ok_a = {v for v in set(low_a) if level_of(high_a + v) in (level, level - 1)}
    return [
        n
        for n, v_b, v_a in zip(range(start, stop + 1), low_b, low_a)
        if not (
            1 <= (a := high_a + v_a) < (b := high_b + v_b) < n
            and a + n == 2 * b
            and v_b in ok_b
            and v_a in ok_a
        )
    ]


#: Maps a 0/1 membership byte to the binary digit int() reads.
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def uncovered_scan(table, elements, lo: int, hi: int, k: int) -> list[int]:
    """All n in [lo, hi] with no k-AP witness inside the tabulated set.

    `table` is a 0/1 membership array covering [0, hi]; `elements`
    lists the same members in increasing order and is not needed here.
    n is covered when some d >= 1 puts all of n - (k-1)*d, ..., n - d
    in the set.

    One big-int bitset holds the members up to hi, written from the
    top: bit p of `rev` is set iff hi - p is a member, so shifting rev
    right by j*d moves member v to position hi - v - j*d.  For each d,
    the AND of rev >> j*d over j = 0 .. k-2 marks at p every t = hi - p
    with t, t - d, ..., t - (k-2)*d all members.  That run covers
    n = t + d, at position p - d, so one more shift by d adds it to
    `covered`, which is indexed like rev.  The AND stops at the first
    empty result.
    """
    if len(table) <= hi:
        raise ValueError("membership table must cover [0, hi]")
    rev = int(bytes(table[: hi + 1]).translate(_BITS), 2)
    covered = 0
    for d in range(1, hi // (k - 1) + 1):
        run = rev
        for shift in range(d, (k - 1) * d, d):
            run &= rev >> shift
            if not run:
                break
        else:
            covered |= run >> d
    # character i of the bit string, below a sentinel 1, is n = lo + i
    width = hi - lo + 1
    bits = bin(covered & ((1 << width) - 1) | 1 << width)[3:]
    uncovered = []
    i = bits.find("0")
    while i >= 0:
        uncovered.append(lo + i)
        i = bits.find("0", i + 1)
    return uncovered
