"""The block-built covering set A and its exact counting machinery.

A is the disjoint union over levels l >= 0 of the blocks

    T_l = { lead * 4**l  +  sum(low[i] * 4**i for i in range(l))
            : lead in {1,2,3,4}, low[i] in {1,2} }

so a member of level l is a number whose top base-4 digit position is
worth 1..4 and whose l low digits are all 1 or 2.  Levels are ordered
(max T_l < min T_{l+1}) and |T_l| = 4 * 2**l, which makes membership,
counting, ranking and unranking all cheap digit work on exact integers
of any size.

Membership is decided in one place, level_of, by a few operations on
the whole integer with no loop over digits; member, decompose,
witness.validate and the witness sweep all build on it.  decompose and
encode are the only places that read or write a digit vector.
Element is a named tuple, so it also iterates, indexes and compares
equal to the plain tuple (level, lead, low).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from functools import cache


class Element(namedtuple("Element", "level lead low")):
    """Canonical representation of a member of level `level`.

    `lead` is the coefficient of 4**level (1..4); `low` holds the
    little-endian coefficients of 4**i for i < level, each 1 or 2.
    """

    __slots__ = ()

    def __new__(cls, level: int, lead: int, low: tuple[int, ...]) -> Element:
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if not 1 <= lead <= 4:
            raise ValueError(f"lead digit must be in 1..4, got {lead}")
        if len(low) != level:
            raise ValueError(f"expected {level} low digits, got {len(low)}")
        if low.count(1) + low.count(2) != level:
            raise ValueError(f"low digits must be 1 or 2, got {low}")
        return super().__new__(cls, level, lead, low)

    @classmethod
    def _make(cls, iterable) -> Element:
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


#: byte maps for the two digit conversions: a low digit 1 or 2 to its
#: base-4 character (encode), a member's bit 2i + 1 to its low digit i
#: (decompose).
_DIGIT_CHAR = bytes.maketrans(b"\x01\x02", b"12")
_BIT_DIGIT = bytes.maketrans(b"01", b"\x01\x02")


def encode(e: Element) -> int:
    """Integer value lead * 4**level + sum(low[i] * 4**i).

    The low digits, top first, are one base-4 string for int().
    """
    low = bytes(e.low[::-1]).translate(_DIGIT_CHAR)
    return (e.lead << (2 * e.level)) + int(b"0" + low, 4)  # "0": level 0


def level_of(n: int) -> int:
    """Level of n in A, or -1 when n is not in A.

    Levels are ordered, so the only candidate is _top_level(n), the
    largest level whose smallest member is <= n.  A base-4 digit is 1
    or 2 exactly when its two bits differ, so all `level` low digits
    pass at once when (low ^ low >> 1) has every even bit set.  The
    lead n >> 2*level needs no check of its own: it is at least 1, and
    it can be 5 only with n < level_min(level + 1), which forces a low
    digit 0 that the digit test rejects.
    """
    if n < 1:
        return -1
    level = _top_level(n)
    ones = ((1 << 2 * level) - 1) // 3  # the even bit of each low digit
    low = n & (3 * ones)
    return level if (low ^ low >> 1) & ones == ones else -1


def member(n: int) -> bool:
    """True iff n is in A."""
    return level_of(n) >= 0


def decompose(n: int) -> Element | None:
    """Canonical Element for n, or None when n is not in A.

    A low digit of a member is 1 or 2, so digit i is 2 exactly when bit
    2i + 1 is set: the low digits are bits 1, 3, ..., 2*level - 1 of n,
    read off its binary string from the end.
    """
    level = level_of(n)
    if level < 0:
        return None
    bits = bin(n)[-2 : -2 * level - 1 : -2]
    low = tuple(bits.encode().translate(_BIT_DIGIT))
    return Element(level=level, lead=n >> (2 * level), low=low)


def level_min(level: int) -> int:
    """Smallest member of T_level: all digits at their minimum."""
    return (4 ** (level + 1) - 1) // 3


def level_max(level: int) -> int:
    """Largest member of T_level: lead 4, all low digits 2."""
    return (14 * 4**level - 2) // 3


def _top_level(n: int) -> int:
    """Largest level whose smallest member is <= n (requires n >= 1)."""
    # level_min(l) <= n  iff  4**(l+1) <= 3n + 1
    return ((3 * n + 1).bit_length() - 1) // 2 - 1


#: hex digit -> base-4 digit, for hex digits made of two base-4 digits
#: that are each 0 or 1: packs two binary digits into one base-4 digit.
_PACK_HEX = str.maketrans("0145", "0123")


def count_leq(n: int) -> int:
    """Number of members of A that are <= n (the counting function A(n)).

    Levels strictly below the straddling one contribute 4 * (2**l - 1)
    and each lead below n's contributes 2**l, in closed form.  Within
    the lead, count the members whose low digits are <= n's, with no
    loop over digits:

    * mask: ~(rest ^ rest >> 1) & ones has the even bit of every low
      digit that is 0 or 3 (its two bits agree).  The top one is the
      digit i where the tight walk stops; every digit above it is 1
      or 2.
    * pack: a digit 2 above i admits all 2**j members with digit 1
      there.  The high bits of those digits, read off the hex string
      with each pair of base-4 digits 0/1 packed into one, are that
      count shifted down by i + 1.
    * a stopping digit 3 admits both choices below it (2 << i), a
      stopping 0 admits none, and with no stopping digit n is itself
      a member (+ 1).

    Every step is linear in the digit count.
    """
    if n < 1:
        return 0
    level = _top_level(n)
    if n >= level_max(level):
        return 4 * ((1 << (level + 1)) - 1)
    total = 4 * ((1 << level) - 1)
    lead = n >> (2 * level)  # in 1..4 since level_min <= n < level_max
    total += (lead - 1) << level
    ones = ((1 << 2 * level) - 1) // 3  # the even bit of each low digit
    rest = n & (3 * ones)
    stop = ((~(rest ^ rest >> 1) & ones).bit_length() - 1) >> 1  # -1: none
    twos = (rest >> (2 * stop + 3)) & ones  # high bits of the digits above
    total += int(format(twos, "x").translate(_PACK_HEX), 4) << (stop + 1)
    if stop < 0:  # every digit matched: n itself is a member
        return total + 1
    if (rest >> 2 * stop) & 3 == 3:  # both choices at the stop fall below
        total += 2 << stop
    return total


def element_at(j: int) -> int:
    """The j-th smallest member of A (1-based); inverse of count_leq on A.

    The level is the one with 4*(2**l - 1) < j <= 4*(2**(l+1) - 1); the
    remaining rank splits into the lead digit and the bits of the low
    digits (bit i set means low digit i is 2).
    """
    if j < 1:
        raise ValueError(f"rank must be >= 1, got {j}")
    level = (((j - 1) >> 2) + 1).bit_length() - 1
    r = j - 4 * ((1 << level) - 1) - 1
    lead = 1 + (r >> level)
    bits = r & ((1 << level) - 1)
    ones = ((1 << 2 * level) - 1) // 3
    # read in base 4, the binary string of bits puts bit i at digit i
    return (lead << (2 * level)) + ones + int(f"{bits:b}", 4)


@cache
def _spread_table() -> tuple[int, ...]:
    """Entry b puts bit i of b at base-4 digit i, for the 256 values of b.

    Built on first use: importing the module stays free of it.
    """
    return tuple(int(f"{b:b}", 4) for b in range(256))


def iter_range(lo: int, hi: int) -> Iterator[int]:
    """Yield the members of A in [lo, hi] in increasing order.

    Walks A in chunks of up to 256 members that share their level, lead
    and all low digits but the 8 lowest: the member of rank j + 1 sits
    at place b in its chunk, where b holds the low rank bits below
    min(level, 8), so its chunk is element_at(j + 1 - b) plus each
    spread-table entry from b on.  That is one element_at per chunk, not
    per member, and memory stays O(1) for huge ranges.
    """
    if lo > hi:
        raise ValueError(f"empty range bounds: lo={lo} > hi={hi}")
    spread = _spread_table()
    j = count_leq(lo - 1)  # members below the next one
    while True:
        level = ((j >> 2) + 1).bit_length() - 1  # of rank j + 1, as in element_at
        width = min(level, 8)
        b = (j - 4 * ((1 << level) - 1)) & ((1 << width) - 1)
        start = element_at(j + 1 - b)
        chunk = spread[b : 1 << width]
        if start + chunk[-1] > hi:
            yield from map(start.__add__, chunk[: bisect_right(chunk, hi - start)])
            return
        yield from map(start.__add__, chunk)
        j += len(chunk)


class BlockSequence:
    """A as a sequence for the covering checks in oracle: iter_upto alone."""

    def iter_upto(self, limit: int) -> Iterator[int]:
        return iter_range(0, limit) if limit >= 0 else iter(())


BLOCK_SEQUENCE = BlockSequence()

#: A's members by their base-4 digits, low first, as a DFA (step,
#: accept) for `oracle.digit_automaton`.  Read high first a member is
#: ([123] | 10)[12]*, the lead and then the low digits, so read low
#: first and padded with high zeros it is [12]*([123] | 01)0*.  States:
#: 0 start; 1 after [12]+, which may have been the lead; 2 the lead
#: read, only zeros left; 3 a first digit 0, which only lead 4 (01)
#: follows; 4 a 0 after [12]+, ending the member or starting lead 4.
BLOCK_DFA = (
    ((3, 1, 1, 2), (4, 1, 1, 2), (2, None, None, None), (None, 2, None, None),
     (2, 2, None, None)),
    (False, True, True, False, True),
)
