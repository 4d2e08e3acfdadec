"""Covering checks for AP_k questions over any integer sequence.

A sequence is any object whose iter_upto(limit) yields its members up
to limit in increasing order, so the same checks serve the block
construction, Stanley sequences and ad-hoc sets.  n is covered when
some d >= 1 puts n - (k-1)*d, ..., n - d all in the sequence.  Range
questions go through `uncovered_scan`, which covers every n at once
with one `covering_pass` per member; `covering_pass` says how.

A set read by a finite automaton over its base-b digits, such as A in
base 4 or the Stanley closed forms in base p, also has one: whether n
is covered then depends only on n's digits, and `covering_automaton`
builds the DFA that reads them, from the set's own DFA, for
`certify._proves` and, kept by `digit_automaton`, for range questions.
Its walk, `CoveringAutomaton.uncovered`, lists the uncovered n without
touching the covered ones, so its cost follows their count, not the
bound.

`ap_tails` is the one k-AP filter on explicit ascending lists: the
terms s < t with t - j(t - s) present for every lower j.  `has_k_ap`
asks it of every term against those before it, and `greedy_next`, the
one-step definition of a Stanley term, of each candidate.  The Stanley
sieve runs `covering_pass` online instead, and asks `ap_tails` only
about k-APs that lie wholly in the seed terms below its floor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from functools import lru_cache
from math import inf


class FiniteSet:
    """Sequence view (iter_upto) of an explicit strictly increasing list."""

    def __init__(self, values) -> None:
        values = list(values)
        if any(y <= x for x, y in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        if values and values[0] < 0:
            raise ValueError("values must be nonnegative")
        self._values = values

    def iter_upto(self, limit: int) -> Iterator[int]:
        return iter(self._values[: bisect_right(self._values, limit)])


def uncovered_in_range(
    seq, lo: int, hi: int, k: int = 3
) -> list[int]:
    """All n in [lo, hi] that no k-AP of smaller members of seq ends at.

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
    maps j to [G[j][0], ..., G[j][j-1]], built on first use of j.  A k
    more than 2 above t less the lowest member returns first, so a built
    j is at most the top bit index of `rev`.  The run is shifted up by off.

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
        cls = classes.get(j)
        if cls is None:
            cls = classes[j] = _class_list(rev, j)
        run &= cls[p % j] >> (p // j + 1)
    return run << off


def _class_list(rev: int, j: int) -> list[int]:
    """The j residue classes of rev: bit i of entry r is bit r + j*i.

    j is at most the index of rev's top bit, so every r < j is in `bits`.
    """
    bits = format(rev, "b")  # bit q is character top - q
    top = len(bits) - 1
    return [int(bits[(top - r) % j :: j], 2) for r in range(j)]


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
    if len(table) > hi + 1:
        table = table[: hi + 1]
    rev = int(table.translate(_BITS), 2)  # bit hi - v: member v
    classes: dict[int, list[int]] = {}
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


class CoveringAutomaton:
    """A DFA over n's base digits, low first, that reads whether n is covered.

    State 0 is the start, reading digit c moves from s to delta[s][c],
    and covered[s] says whether n is covered when its digits, padded
    with any number of high zeros, end in s.  `size` counts the NFA
    states and subsets that `covering_automaton` built it from.
    `uncovered` walks it.
    """

    def __init__(
        self, base: int, delta: list[list[int]], covered: list[bool], size: int
    ) -> None:
        self.base = base
        self.delta = delta
        self.covered = covered
        self.size = size
        # live[r][s]: some r more digits lead from s to a state that is
        # not covered; rows are added as walks need more digits
        self._live = [[not c for c in covered]]

    def uncovered(self, upto: int) -> list[int]:
        """Each n <= upto that is not covered, ascending.

        Walks the digits of every n < base^L, L the digit count of upto,
        and tries a digit only where `live` says an uncovered state is
        still ahead, so the walk visits only low-digit prefixes of
        uncovered n: about their count times L times base steps,
        whatever upto is.
        """
        base = self.base
        digits = 1
        while base**digits <= upto:
            digits += 1
        live = self._live
        while len(live) < digits:
            ahead = live[-1]
            live.append([any(ahead[t] for t in row) for row in self.delta])
        uncovered = []
        stack = [(0, digits, 0, 1)]  # (state, digits left, low digits read, base^read)
        while stack:
            s, left, n, weight = stack.pop()
            if not left:
                if n <= upto:
                    uncovered.append(n)
                continue
            ahead = live[left - 1]
            for c, t in enumerate(self.delta[s]):
                if ahead[t]:
                    stack.append((t, left - 1, n + c * weight, weight * base))
        return sorted(uncovered)


@lru_cache(maxsize=8)
def digit_automaton(dfa: tuple, base: int, k: int) -> CoveringAutomaton:
    """`covering_automaton` with no cap, for `CoveringAutomaton.uncovered`.

    Built on first use of each (dfa, base, k) and kept, with the walk's
    `live` rows, while among the 8 used last.
    """
    return covering_automaton(dfa, base, k)


def covering_automaton(
    dfa: tuple, base: int, k: int, cap: float = inf
) -> CoveringAutomaton | None:
    """The automaton that reads whether n ends a k-AP of smaller members of S.

    `dfa` = (step, accept) reads S's members by their base digits, low
    first: state 0 is the start, step[s][c] is the state after digit c
    (None: no member continues so), and accept[s] says whether s
    accepts.  It must give a digit string and the string followed by
    any zeros the same verdict, as padding a number with high zeros
    leaves it unchanged.

    n is covered when some d >= 1 puts n - j*d in S for j = 1 .. k-1.
    Subtract j*d from n one digit at a time: digit i of the difference
    is v mod base for v = n_i - j*d_i - b_j, and -(v // base) is the
    next borrow b_j.  From b_j in [0, j], v >= -j*base, so b_j stays in
    [0, j].  After L digits, with n and d below base^L, the borrow is 0
    iff n - j*d >= 0, and then the digits written are those of n - j*d
    padded to L digits, which S's DFA accepts iff n - j*d is in S.  So
    an NFA that guesses d's digit at each position, keeps per j the
    borrow and S's state on the digits written, and a flag for d != 0,
    and drops a guess that S's DFA cannot read, has a run ending with
    every borrow 0, every S state accepting and the flag set iff n is
    covered.  Reading more high zeros of n changes nothing: a d <= n has
    none of its digits up there, the digits written are zeros, which
    keep S's verdict, and a d > n leaves a borrow.

    The subset construction runs over that NFA from the start's subset,
    visiting subsets in the order they are found, and finds each NFA
    state's moves once a subset holds it; each NFA state is numbered by
    one bit.  Subset i is state i of the result, covered iff it holds
    an accepting NFA state.  The result's `size` counts NFA states and
    subsets, and None comes back as soon as that count passes cap.
    """
    step, accept = dfa
    start = (((0, 0),) * (k - 1), False)  # ((b_j, S state) per j, d != 0)
    nfa = [start]
    number = {start: 0}
    accepting = 0  # bitmask of the accepting NFA states
    moves = []  # moves[i][c]: the NFA states i reaches on digit c, as a bitmask
    subsets = [1]
    ids = {1: 0}
    delta = []
    for subset in subsets:  # grows as new subsets turn up
        while len(moves) < subset.bit_length():  # the moves of each state it holds
            per_j, nonzero = nfa[len(moves)]
            row = []
            for c in range(base):
                reached = 0
                for e in range(base):  # d's digit
                    moved = []
                    for j, (borrow, s) in enumerate(per_j, 1):
                        q, digit = divmod(c - j * e - borrow, base)
                        s = step[s][digit]
                        if s is None:  # S's DFA cannot read the digit written
                            break
                        moved.append((-q, s))
                    else:
                        state = (tuple(moved), nonzero or e > 0)
                        if state not in number:
                            number[state] = len(nfa)
                            nfa.append(state)
                            if state[1] and all(not b and accept[s] for b, s in moved):
                                accepting |= 1 << number[state]
                        reached |= 1 << number[state]
                row.append(reached)
            moves.append(row)
        if len(nfa) + len(subsets) > cap:
            return None
        held = [moves[n] for n, bit in enumerate(bin(subset)[:1:-1]) if bit == "1"]
        row = []
        for per_digit in zip(*held) if held else [()] * base:  # none from the empty subset
            reached = 0
            for move in per_digit:
                reached |= move
            if reached not in ids:
                ids[reached] = len(subsets)
                subsets.append(reached)
            row.append(ids[reached])
        delta.append(row)
    covered = [bool(subset & accepting) for subset in subsets]
    return CoveringAutomaton(base, delta, covered, len(nfa) + len(subsets))


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
