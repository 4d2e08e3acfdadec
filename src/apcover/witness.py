"""Constructive 3-term-AP witnesses: for any n >= 32 build a, b in A
with a < b < n and a + n = 2b.

The construction picks the level l with 2*4**l <= n < 8*4**l and splits
n into its coarse quotient m = n // 4**l (2..7) and its l low base-4
digits d.  b has lead ceil(m/2) and low digits 1 + d // 2, and
a = 2b - n.  Position by position, a's lead is 2*ceil(m/2) - m, 0 or 1,
and its low digit 2*(1 + d // 2) - d is 2, 1, 2, 1 for d = 0..3, so no
position carries.  b always lands in T_l; a lands in T_l when its lead
is 1 and in T_{l-1} when its lead is 0.  `witness_sweep` checks the
construction for every n in a range.
Witness is a named tuple, so it also iterates, indexes and compares
equal to the plain tuple (a, b, n, level, m).
"""

from __future__ import annotations

from collections import namedtuple

from .sequence import digit_mask, level_of

MIN_N = 32


class Witness(namedtuple("Witness", "a b n level m", defaults=(None, None))):
    """A 3-term arithmetic progression a < b < n with a, b in A.

    `level` and `m` record which construction case produced it; both
    are None for ad-hoc triples built by hand.
    """

    __slots__ = ()


def level_for(n: int) -> int:
    """The unique l >= 2 with 2 * 4**l <= n < 8 * 4**l (n >= 32)."""
    if n < MIN_N:
        raise ValueError(f"construction needs n >= {MIN_N}, got {n}")
    return ((n >> 1).bit_length() - 1) >> 1


def find_witness(n: int) -> Witness:
    """Canonical witness for n >= 32, in closed form.

    `ones` has a 1 at the bottom of each of the level low digit
    positions, so (n >> 1) & ones holds d // 2 for each low digit d of
    n, and adding `ones` gives b's low digits 1 + d // 2.
    """
    level = level_for(n)
    shift = 2 * level
    m = n >> shift
    ones = digit_mask(level)
    b = (((m + 1) >> 1) << shift) + ones + ((n >> 1) & ones)
    return Witness(2 * b - n, b, n, level, m)  # a, b, n, level, m


def validate(w: Witness) -> bool:
    """Exact check of every Witness invariant.

    Ordering, the progression identity a + n = 2b, membership of both
    terms, and (when the witness carries its construction level) that
    b sits in T_level and a in T_level or T_{level-1}.
    """
    if not (1 <= w.a < w.b < w.n):
        return False
    if w.a + w.n != 2 * w.b:
        return False
    level_a, level_b = level_of(w.a), level_of(w.b)
    if level_a < 0 or level_b < 0:
        return False
    if w.level is None:
        return True
    return level_b == w.level and level_a in (w.level - 1, w.level)


def witness_sweep(lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] whose constructed witness fails validation.

    An empty list is the expected outcome; any entry is a
    counterexample to the covering construction.

    Equivalent to collecting every n with not validate(find_witness(n)),
    but walks from lo and validates only the first n of each maximal
    aligned block of 4**t consecutive n, t <= level, that it meets.
    That n certifies its whole block:

    * level, coarse quotient and the digits of n above position t are
      fixed, so a and b are fixed high parts plus t low digits: b's
      digit 1 + d // 2 and a's digit 2*(1 + d // 2) - d, both 1 or 2.
      Membership and level of a and b follow from the high parts alone,
      except when t == level and a's lead is 0: then a's high part is
      0, and its level low digits, all 1 or 2, put a in T_{level-1};
    * a + n == 2b holds for every n, as a is 2b - n;
    * per digit, n's less b's (d - v_b) and b's less a's (v_b - v_a,
      also d - v_b) are -1, 0, 0, 1 for d = 0..3, smallest at d = 0, so
      b < n and a < b are tightest at the first n; a is at least its
      high part plus (4**t - 1) // 3, which is at least 1 once t >= 1.

    A certified block may run past hi; it holds no failure to miss.  A
    failing n is reported and the walk goes on from n + 1, whose maximal
    aligned blocks are the quarters of the failed block, their quarters
    and so on.
    """
    if lo < MIN_N:
        raise ValueError(f"sweep starts at {MIN_N}, got lo={lo}")
    failures: list[int] = []
    n = lo
    while n <= hi:
        if validate(find_witness(n)):
            aligned = ((n & -n).bit_length() - 1) >> 1
            n += 1 << (2 * min(level_for(n), aligned))
        else:
            failures.append(n)
            n += 1
    return failures
