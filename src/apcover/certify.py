"""Closed forms B + p^m * S(0) for Stanley sequences, proved while sieving.

S(0) is the numbers with no base-p digit p - 1.  A closed form is the
triple (low, B, m), the set low + B + p^m * S(0) with B in [0, p^m),
which `_form` enumerates.  At order p = 3 or 5, `watch` passes on the
sieve's terms from a seed that does not start S(0) and hands over to
the form, B being the sieved terms below low + p^m moved down by low,
once `_proves` shows that every later term is the form's.  It searches
the product of the form's DFA (`_form_dfa`), the covering automaton
that `oracle.covering_automaton` builds from it and a comparator, and
caches each proof that runs.  `stanley.explore` reads a form's
uncovered n off the same builder, through `oracle.digit_automaton`, and
counts its terms with `_count_form`.  Only `oracle` is imported here.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import islice

from . import oracle

#: NFA states, subsets and product states past which a proof gives up;
#: it also caps the covering automaton's build.  The largest proofs
#: below it are from 0,125 at order 5 (279 states, 3.4 ms) and 0,2*3^8
#: at order 3 (277, 2.8 ms); one that gives up costs 4-5 ms (0,2*3^9 and
#: 0,625 need 306 and 420).  A refutation builds the whole covering
#: automaton before its search finds n, so 0,2 and 0,1,3 at order 5
#: take 69 and 78 states, 0.7 ms (2-core x86-64 host, in-process).
CERTIFY_BUDGET = 300


def watch(sieve: Iterator, seed: list[int], p: int, forms: list) -> Iterator[Iterable[int]]:
    """Yield the sieve's terms after a checked seed at order p, in runs to chain.

    Each sieved term is a run of its own, at one compare with the next
    bound, until a form is proved; its later terms are then one run.
    With low = seed[0] and m from the first with p^m > seed[-1] - low:
    at low + p^m the terms below, moved down by low, are B, and a term
    other than low + p^m refutes B + p^m * S(0).  The sieve must next
    give just the terms low + B + p^m * {1, ..., p - 2} before `_proves`
    is asked, so only a proof that runs is cached.  A proved form is
    appended to forms as (low, B, m); anything else goes on to m + 1.
    """
    low = seed[0]
    terms = list(seed)
    m, step = 0, 1  # step = p^m, multiplied up
    while step <= seed[-1] - low:
        m, step = m + 1, step * p
    bound, below = low + step, None
    for t in sieve:
        while t >= bound:
            if below is None and t == bound:  # the term B's form puts next
                below = tuple(x - low for x in terms)
                bound = low + (p - 2) * step + below[-1]  # the last of its level
                continue
            if below is not None and t == bound:
                level = [low + c + b for c in range(step, (p - 1) * step, step) for b in below]
                if terms[len(below) :] + [t] == level and _proves(below, p, m, CERTIFY_BUDGET):
                    forms.append((low, below, m))
                    yield _form_from(forms[0], p, len(terms))
                    return
            below = None
            m, step = m + 1, step * p
            bound = low + step
        terms.append(t)
        yield (t,)


@lru_cache(maxsize=256)
def _proves(below: tuple, p: int, m: int, budget: int) -> bool | None:
    """Whether every n >= p^m is in S = below + p^m * S(0) iff it ends no p-AP of S.

    None once the covering automaton, built whole first, and then the
    search pass budget states.  `below` holds the sequence's terms
    below p^m, so S is the sequence iff this holds, by induction on n.
    By `oracle.covering_automaton`'s proof, its result reads whether n
    is covered from n's digits, low first and padded with any number of
    high zeros, and S's DFA whether n is in S.  Pair both with the
    digits read, counted up to m, and then whether a digit at or above
    position m was nonzero, which is whether n >= p^m.  Every such n is
    spelled by some string, so the claim holds iff no reached triple
    past such a digit has n in S and covered, or neither.  The search
    is breadth first, so it stops at the shortest such n.  The 256
    verdicts used last are kept.
    """
    dfa = _form_dfa(below, p, m)
    step, accept = dfa
    covering = oracle.covering_automaton(dfa, p, p, budget)
    if covering is None:
        return None
    dead = (None,) * p  # no member has n's digits
    start = (0, 0, 0)  # (covering state, S state, digits read; m + 1 once n >= p^m)
    seen = {start}
    queue = [start]
    for cov, s, read in queue:  # grows as new triples turn up
        if read > m and (s is not None and accept[s]) == covering.covered[cov]:
            return False
        if covering.size + len(seen) > budget:
            return None
        moves = dead if s is None else step[s]
        for x, t in enumerate(covering.delta[cov]):
            triple = (t, moves[x], min(read + (read < m or x > 0), m + 1))
            if triple not in seen:
                seen.add(triple)
                queue.append(triple)
    return True


def _form(below: Sequence[int], p: int, m: int) -> Iterator[int]:
    """Yield, ascending, every member of S = below + p^m * S(0).

    `below` is ascending in [0, p^m), and S(0), the numbers with no base-p
    digit p - 1, is for a prime p the Stanley sequence of order p from 0
    (Odlyzko and Stanley, 1978, for p = 3; the argument is the same for
    every prime).  No p-AP: in a, a + d, ..., a + (p-1)d let v be the
    lowest base-p position where d is nonzero.  Digit v of a + jd is
    digit v of a plus j times that of d, mod p, with no carry from below;
    as p is prime, over j = 0..p-1 it takes every residue, p - 1 included.
    Greedy: if n has a digit p - 1, let D be the sum of p^i over those
    positions.  Then n - jD for j = 1..p-1 has the digit p - 1 - j there,
    the rest unchanged, so it is a smaller member and n would complete a
    p-AP.

    The members of S(0) in [p^r, p^(r+1)) are c p^r + x for c = 1..p-2
    and each member x below p^r, so, as `below` lies below p^m, those of
    S in [p^(m+r), p^(m+r+1)) are c p^(m+r) + x for each member x of S
    below p^(m+r).  The terms come out in order, and no level is built
    before its terms are asked for.
    """
    terms = list(below)
    yield from terms
    step = p**m  # p^(m+r)
    while True:
        size = len(terms)
        for c in range(step, (p - 1) * step, step):
            for x in islice(terms, size):
                terms.append(c + x)
                yield c + x
        step *= p


def _form_from(form: tuple, p: int, i: int) -> Iterator[int]:
    """The terms of the form (low, B, m) at order p from its i-th on."""
    low, below, m = form
    terms = islice(_form(below, p, m), i, None)
    return map(low.__add__, terms) if low else terms


def _form_dfa(below: Sequence[int], p: int, m: int) -> tuple:
    """S = below + p^m * S(0) as a minimal base-p DFA for `oracle.covering_automaton`.

    `below` lies in [0, p^m).  A state is what S asks of the digits
    still to come.  After i digits of value v it asks for the w with
    v + p^i w in S, which is R + p^r S(0) for r = m - i and R the
    (b - v) / p^i of each b in `below` whose low i digits are v's.  The
    state is the pair (r, R) with the least r: R + p^r S(0) is
    R' + p^(r-1) S(0) when R is R' + p^(r-1) {0, ..., p-2}.  So
    (0, {0}) is S(0), and equal sets give one state.  Digit c leads
    from (r, R), r > 0, to (r - 1, the (x - c) / p of each x in R that is
    c mod p), and from (0, {0}) back to itself unless c is p - 1; an
    empty R is no state.  A state accepts iff 0 is in R, which a zero
    digit keeps, so padding with zeros keeps the verdict.
    """

    def least(r: int, rest: frozenset) -> tuple:
        while r:
            top = p ** (r - 1)
            low = frozenset(x for x in rest if x < top)
            if rest != {x + c * top for c in range(p - 1) for x in low}:
                break
            r, rest = r - 1, low
        return r, rest

    states = [least(m, frozenset(below))]
    number = {states[0]: 0}
    step = []
    for r, rest in states:  # grows as new states turn up
        row = []
        for c in range(p):
            if r:
                after = frozenset((x - c) // p for x in rest if x % p == c)
                state = least(r - 1, after) if after else None
            else:
                state = (r, rest) if c < p - 1 else None
            if state is not None and state not in number:
                number[state] = len(states)
                states.append(state)
            row.append(None if state is None else number[state])
        step.append(tuple(row))
    return tuple(step), tuple(0 in rest for r, rest in states)


def _count_no_top_digit(p: int, upto: int) -> tuple[int, int]:
    """How many n <= upto have no base-p digit p - 1, and the largest.

    One pass over upto's digits, high first.  A digit c at position i
    admits c smaller digits there, none of them p - 1, each with
    (p - 1)^i choices below.  At the first digit p - 1 nothing more
    keeps upto's prefix, and the largest n takes p - 2 there and at
    every lower digit; with no such digit upto itself counts.
    """
    digits = []
    while upto:
        upto, c = divmod(upto, p)
        digits.append(c)
    count = last = 0
    for i in reversed(range(len(digits))):
        c = digits[i]
        count += c * (p - 1) ** i
        if c == p - 1:
            return count, (last * p + p - 2) * p**i + (p - 2) * (p**i - 1) // (p - 1)
        last = last * p + c
    return count + 1, last


def _count_form(source: tuple, p: int, upto: int) -> tuple[int, int]:
    """How many terms <= upto >= low the form (low, B, m) has, and the largest.

    Each b in B adds the x in S(0) with low + b + p^m x <= upto.
    """
    low, below, m = source
    upto -= low
    per_b = [(b, *_count_no_top_digit(p, (upto - b) // p**m)) for b in below if b <= upto]
    return sum(n for b, n, x in per_b), low + max(b + p**m * x for b, n, x in per_b)
