"""Sweep kernels: the witness sweep and the uncovered scan.

The witness sweep certifies aligned blocks of 4**t consecutive n by
their first n, so its work grows with the number of levels in the
range, not with its width.  The uncovered scan ORs shifted big-int
bitsets of the members, one pass per member for every k: at k = 3 the
pass is one shift (n = 2y - x), and each further AP term ANDs in one
residue class of the members.  Both are pure Python over exact
integers; BACKEND names the only backend there is.
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
    """
    if len(table) <= hi:
        raise ValueError("membership table must cover [0, hi]")
    covered = _covered(table, hi, k)
    # character i of the bit string, below a sentinel 1, is n = lo + i
    width = hi - lo + 1
    bits = bin(covered & ((1 << width) - 1) | 1 << width)[3:]
    uncovered = []
    i = bits.find("0")
    while i >= 0:
        uncovered.append(lo + i)
        i = bits.find("0", i + 1)
    return uncovered


def _covered(table, hi: int, k: int) -> int:
    """A big int whose bit hi - n is set iff n <= hi is covered.

    One pass per member z <= hi, taken as the term n - d of a k-AP and
    paired with each candidate y = z - d below it, so n = 2z - y.  The
    lower terms z - j*d = j*y - (j-1)*z, j = 2 .. k-2, are congruent to
    r = z mod j; such a term is a member iff bit y - c of G[j][r] is
    set, where bit i of G[j][r] is set iff r + j*i is a member and
    c = z - z//j is the least y that keeps the term >= 0.

    A pass starts from the members y in [z - z//(k-2), z), where every
    term is >= 0, taken from the forward bitset (bit x set iff x is a
    member), and ANDs in each G[j][r] masked to its low z//j bits and
    shifted up by c.  What is left is every y that completes a k-AP
    below z; shifting it by hi - 2z (left when that is >= 0, right
    otherwise) moves y to bit hi - (2z - y), and values 2z - y above hi
    fall off the bottom.  At k = 3 there is no G, and a pass is one
    shift-OR.  Each G[j][r] is one int() over every j-th character of
    the table's 0/1 string, built when a pass first needs it, so a
    large k builds only the classes that some pass reaches.
    """
    line = bytes(table[: hi + 1]).translate(_BITS)
    forward = int(line[::-1], 2)
    classes = {}  # (j, r): G[j][r]
    steps = range(2, k - 1)  # built once: small scans are bound by per-pass overhead
    covered = 0
    z = table.find(1, 0, hi + 1)
    while z >= 0:
        run = forward & ((1 << z) - (1 << (z - z // (k - 2))))
        for j in steps:
            if not run:
                break
            r = z % j
            g = classes.get((j, r))
            if g is None:
                g = classes[j, r] = int(line[r::j][::-1], 2)
            width = z // j
            run &= (g & ((1 << width) - 1)) << (z - width)
        shift = hi - 2 * z
        covered |= run << shift if shift >= 0 else run >> -shift
        z = table.find(1, z + 1, hi + 1)
    return covered
