"""Constructive 3-term-AP witnesses: for any n >= 32 build a, b in A
with a < b < n and a + n = 2b.

The construction picks the level l with 2*4**l <= n < 8*4**l, splits n
into its coarse quotient m = n // 4**l (2..7) and low base-4 digits,
and maps each piece through a fixed pair table.  The tables satisfy

    lead_small + m     == 2 * lead_big      for every m in 2..7
    digit_small + d    == 2 * digit_big     for every digit d in 0..3

so a + n = 2b holds position by position as an integer identity, with
no carry analysis needed.  b always lands in T_l; a lands in T_l when
its lead is 1 and in T_{l-1} when its lead is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequence import level_of

#: m -> (lead of b, lead of a); the two leads average to m.
LEAD_PAIRS: dict[int, tuple[int, int]] = {
    2: (1, 0),
    3: (2, 1),
    4: (2, 0),
    5: (3, 1),
    6: (3, 0),
    7: (4, 1),
}

#: low digit of n -> (low digit of b, low digit of a); averages likewise.
DIGIT_PAIRS: dict[int, tuple[int, int]] = {
    0: (1, 2),
    1: (1, 1),
    2: (2, 2),
    3: (2, 1),
}

MIN_N = 32


@dataclass(frozen=True)
class Witness:
    """A 3-term arithmetic progression a < b < n with a, b in A.

    `level` and `m` record which construction case produced it; both
    are None for ad-hoc triples built by hand.
    """

    a: int
    b: int
    n: int
    level: int | None = None
    m: int | None = None


def level_for(n: int) -> int:
    """The unique l >= 2 with 2 * 4**l <= n < 8 * 4**l (n >= 32)."""
    if n < MIN_N:
        raise ValueError(f"construction needs n >= {MIN_N}, got {n}")
    return ((n >> 1).bit_length() - 1) >> 1


def find_witness(n: int) -> Witness:
    """Canonical witness for n >= 32, built from the tables.

    The low digits are mapped all at once: mask_d has a 1 at the bottom
    of every digit position where n's digit is d, so b's low part is
    the sum of v_b * mask_d over the four table rows, and a's likewise.
    """
    level = level_for(n)
    m = n >> (2 * level)
    rem = n - (m << (2 * level))
    ones = ((1 << (2 * level)) - 1) // 3
    low_bit = rem & ones
    high_bit = (rem >> 1) & ones
    both = low_bit & high_bit
    masks = (ones ^ (low_bit | high_bit), low_bit ^ both, high_bit ^ both, both)
    lead_b, lead_a = LEAD_PAIRS[m]
    b = lead_b << (2 * level)
    a = lead_a << (2 * level)
    for d, mask in enumerate(masks):
        v_b, v_a = DIGIT_PAIRS[d]
        b += v_b * mask
        a += v_a * mask
    return Witness(a=a, b=b, n=n, level=level, m=m)


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
