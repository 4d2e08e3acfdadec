"""Sweep kernels: the witness sweep and the uncovered scan.

The witness sweep certifies aligned blocks of 4**t consecutive n by
their first n, so its work grows with the number of levels in the
range, not with its width.  The uncovered scan ORs shifted big-int
bitsets of the members: at k = 3 one shift per member y (n = 2y - x),
and for every k >= 4 one shift-AND pass per common difference.  Both
are pure Python over exact integers; BACKEND names the only backend
there is.
"""

from __future__ import annotations

from .witness import DIGIT_PAIRS, MIN_N, find_witness, level_for, validate

BACKEND = "python"


def witness_sweep(lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] whose constructed witness fails validation.

    An empty list is the expected outcome; any entry is a
    counterexample to the covering construction.

    Equivalent to collecting every n with not validate(find_witness(n)),
    but walks from lo and validates only the first n of each maximal
    aligned block of 4**t consecutive n, t <= level, that it meets.
    That n certifies its whole block when every DIGIT_PAIRS row
    (v_b, v_a) has v_b, v_a in {1, 2} and v_a + d == 2 * v_b:

    * level, coarse quotient and the digits of n above position t are
      fixed, so a and b are fixed high parts plus t low digits that are
      all 1 or 2; membership and level of a and b follow from the high
      parts alone, except when t == level and a's lead is 0: then a's
      high part is 0, and its level low digits, all 1 or 2, put a in
      T_{level-1};
    * a + n == 2b holds for every n once it holds for one, by linearity;
    * per digit, d - v_b and v_a - v_b are smallest at d = 0, so b < n
      and a < b are tightest at the first n; a is at least its high
      part plus (4**t - 1) // 3, which is at least 1.

    A certified block may run past hi; it holds no failure to miss.  A
    failing n is reported and the walk goes on from n + 1, whose maximal
    aligned blocks are the quarters of the failed block, their quarters
    and so on.  Any other digit table gets the per-n loop.
    """
    if lo < MIN_N:
        raise ValueError(f"sweep starts at {MIN_N}, got lo={lo}")
    if not all(
        v_b in (1, 2) and v_a in (1, 2) and v_a + d == 2 * v_b
        for d in range(4)
        for v_b, v_a in [DIGIT_PAIRS[d]]
    ):
        return [n for n in range(lo, hi + 1) if not validate(find_witness(n))]
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


#: Maps a 0/1 membership byte to the binary digit int() reads.
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def uncovered_scan(table, elements, lo: int, hi: int, k: int) -> list[int]:
    """All n in [lo, hi] with no k-AP witness inside the tabulated set.

    `table` is a 0/1 membership array covering [0, hi]; `elements`
    lists the same members in increasing order and is not read: the
    answer depends on the table alone.  n is covered when some d >= 1
    puts all of n - (k-1)*d, ..., n - d in the set.

    Either loop below returns `covered`, a big int whose bit hi - n is
    set iff n is covered: the per-member loop at k = 3, the per-d loop
    for every k >= 4, where scaling by k - 1 is not a shift.
    """
    if len(table) <= hi:
        raise ValueError("membership table must cover [0, hi]")
    if k == 3:
        covered = _covered_by_members(table, hi)
    else:
        covered = _covered_by_differences(table, hi, k)
    # character i of the bit string, below a sentinel 1, is n = lo + i
    width = hi - lo + 1
    bits = bin(covered & ((1 << width) - 1) | 1 << width)[3:]
    uncovered = []
    i = bits.find("0")
    while i >= 0:
        uncovered.append(lo + i)
        i = bits.find("0", i + 1)
    return uncovered


def _covered_by_differences(table, hi: int, k: int) -> int:
    """`covered` for k >= 3 by one shift-AND-OR pass per difference d.

    One big-int bitset holds the members up to hi, written from the
    top: bit p of `rev` is set iff hi - p is a member, so shifting rev
    right by j*d moves member v to position hi - v - j*d.  For each d,
    the AND of rev >> j*d over j = 0 .. k-2 marks at p every t = hi - p
    with t, t - d, ..., t - (k-2)*d all members.  That run covers
    n = t + d, at position p - d, so one more shift by d adds it to
    `covered`, which is indexed like rev.  The AND stops at the first
    empty result.  The cost grows with the square of hi.
    """
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
    return covered


def _covered_by_members(table, hi: int) -> int:
    """`covered` for k = 3 by one shift-OR per member y <= hi.

    n is covered iff n = 2y - x for members x < y.  Bit x of the forward
    bitset F is set iff x is a member; shifting the members below y,
    F & ((1 << y) - 1), by hi - 2y (left when that is >= 0, right
    otherwise) moves x to bit hi - (2y - x), where `covered` is indexed
    like the per-d loop's.  Values 2y - x above hi fall off the bottom.
    A holds about 3.6 * sqrt(hi) members up to hi, so this is about
    sqrt(hi) passes against the per-d loop's hi // 2.  The members are
    walked in the table, not in a separate list.
    """
    forward = int(bytes(table[hi::-1]).translate(_BITS), 2)
    covered = 0
    y = table.find(1, 0, hi + 1)
    while y >= 0:
        below = forward & ((1 << y) - 1)
        shift = hi - 2 * y
        covered |= below << shift if shift >= 0 else below >> -shift
        y = table.find(1, y + 1, hi + 1)
    return covered
