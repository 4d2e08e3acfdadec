"""Sweep kernels: the witness sweep and the uncovered scan.

The witness sweep certifies aligned blocks of 4**t consecutive n by
their first n, so its work grows with the number of levels in the
range, not with its width.  The uncovered scan ORs shifted big-int
bitsets of the members, one `covering_pass` per member for every k: at
k = 3 the pass is one shift (n = 2t - y), and each further AP term ANDs
in one residue class of the members.  The Stanley sieve runs the same
pass online, once per new term.  Both kernels are pure Python over
exact integers; BACKEND names the only backend there is.
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
    into `covered` at bit off = t + 1 - base, so bit n - base is set iff n
    ends a k-AP found so far.  No later pass reaches n <= t, so once t
    runs more than SETTLE bits ahead of base those bits are final: their
    zeros are read out and `covered` is shifted down to base = t + 1.
    No int in a pass is wider than about twice the member it runs for.
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
