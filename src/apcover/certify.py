"""Certified closed forms B + p^m * S(0) for Stanley sequences.

`certificate(seed, p)` finds, at order p = 3 or 5, the B and m with the
order-p sequence from seed equal to B + p^m * S(0), S(0) the numbers
with no base-p digit p - 1, and proves it for every n.  `stanley`
states the proof, enumerates, counts and explores every form through
the one triple (low, B, m), and imports this module only for a seed it
might certify.  `_proves` searches the product of the form's DFA
(`stanley._form_dfa`), the covering automaton built from it by
`oracle.CoveringSubsets` and a comparator, and `_certificate` keeps
each verdict, success or failure, in a bounded cache.
"""

from __future__ import annotations

from functools import lru_cache

from . import oracle
from .stanley import _form_dfa, greedy_next

#: `_certificate` tries each m with p^m at most this: m <= 4 at order 3,
#: which covers every seed below 81, and m <= 2 at order 5.
CERTIFY_SPAN = 81

#: NFA states, subsets and product states past which a proof gives up.
#: Every certificate found for seeds below CERTIFY_SPAN needed at most
#: 104, and an attempt that gives up costs a few ms at most.
CERTIFY_BUDGET = 150


def certificate(seed: list[int], p: int) -> tuple | None:
    """(B, m) if the order-p sequence from seed is B + p^m * S(0), else None.

    The seed must be p-AP-free.  A seed reaching CERTIFY_SPAN is None at
    once, so no long seed is kept in the cache.
    """
    return _certificate(tuple(seed), p) if seed[-1] < CERTIFY_SPAN else None


def _proves(below: list[int], p: int, m: int, c: int, budget: int) -> bool | None:
    """Whether every n > c is in S = below + p^m * S(0) iff it ends no p-AP of S.

    None once the search builds more than budget states.  By
    `digit_automaton`'s proof, the covering NFA's subsets read whether n
    is covered from n's digits, low first and padded with any number of
    high zeros, and S's DFA whether n is in S.  Pair both with the sign
    of (n mod p^i) - (c mod p^i) after i digits: a digit that differs
    from c's digit at its place sets the sign, as it outweighs every
    lower place, and an equal digit keeps it.  Once c's digits are read
    the sign is that of n - c, and every n > c is spelled by some
    string, so the claim holds iff no reached triple past c's digits
    with sign +1 has n in S and covered, or neither.  The search is
    breadth first, so it stops at the shortest such n.
    """
    dfa = _form_dfa(below, p, m)
    step, accept = dfa
    covering = oracle.CoveringSubsets(dfa, p, p)
    digits = []
    while True:
        c, digit = divmod(c, p)
        digits.append(digit)
        if not c:
            break
    dead = (None,) * p  # no member has n's digits
    start = (0, 0, 0, 0)  # (subset, S state, digits read capped, sign)
    seen = {start}
    queue = [start]
    for cov, s, read, sign in queue:  # grows as new triples turn up
        if read == len(digits) and sign > 0:
            if (s is not None and accept[s]) == covering.covered(cov):
                return False
        if len(covering.nfa) + len(covering.subsets) + len(seen) > budget:
            return None
        here = digits[read] if read < len(digits) else 0
        moves = dead if s is None else step[s]
        for x, t in enumerate(covering.row(cov)):
            triple = (t, moves[x], min(read + 1, len(digits)), (x > here) - (x < here) or sign)
            if triple not in seen:
                seen.add(triple)
                queue.append(triple)
    return True


@lru_cache(maxsize=256)
def _certificate(seed: tuple, p: int) -> tuple | None:
    """(below, m) with the order-p sequence from seed = below + p^m * S(0).

    None if no m with p^m <= CERTIFY_SPAN gives that form, or if a proof
    fails or passes CERTIFY_BUDGET states.  For each m from the first
    with p^m > max seed, `below` is the greedy terms below p^m.  An exact
    check refutes most wrong m cheaply: the candidate's members below
    p^(m+1) must be the n above max seed that `oracle.uncovered_in_range`
    finds uncovered.  Then `_proves` decides every n.
    """
    m = 1
    while p**m <= seed[-1]:
        m += 1
    below = list(seed)
    while p**m <= CERTIFY_SPAN:
        while (t := greedy_next(below, p)) < p**m:
            below.append(t)
        upto = p ** (m + 1) - 1
        candidate = [x * p**m + b for x in range(p - 1) for b in below]  # S up to upto
        above = oracle.uncovered_in_range(oracle.FiniteSet(candidate), seed[-1] + 1, upto, p)
        if above == candidate[len(seed) :]:
            proved = _proves(below, p, m, seed[-1], CERTIFY_BUDGET)
            return (tuple(below), m) if proved else None
        m += 1
    return None
