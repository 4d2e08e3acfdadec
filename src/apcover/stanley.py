"""Greedy Stanley-sequence generator.

Starting from a k-AP-free seed, each new term is the smallest integer
above the last one that keeps the set free of k-term arithmetic
progressions.  `greedy_next` is that rule as a stateless one-step
definition.  `generate`, `generate_upto` and `explore` take the terms
from the source `_source` finds for the seed: a closed form or the sieve.

A closed form at a prime order p is the triple (low, B, m), the set
low + B + p^m * S(0), where S(0) is the numbers with no base-p digit
p - 1 and B lies in [0, p^m).  The greedy rule commutes with adding a
constant, so a seed that, moved to start at 0, starts the sequence from
0 ([0], [0, 1], ...) takes B = (0,) and m = 0; at order 3 or 5
`certify.certificate` proves other seeds' B and m.  `_form` enumerates
a form in linear time, `_count_form` counts it off a bound's digits and
`_form_dfa` reads it off a number's digits.  Every other seed and order
goes through the incremental sieve `_extend`, which runs
`oracle.covering_pass` once per new term, so the next term is the
lowest value that ends no k-AP.  A term costs a few shifts and ANDs on
ints about as many bits long as the largest term, so the time grows
with the term count times the largest term.

The proof behind a certificate, with c the largest seed term and
p^m > c: S = B + p^m * S(0) holds the seed and nothing else up to c, so
it is the sequence iff each n > c is in S exactly when no p-AP of
smaller members of S ends at n, by induction on n.  `certify` reads S
from n's base-p digits, low first, with a DFA that gives a digit string
and the string padded with zeros the same verdict, which is all that
`oracle.digit_automaton`'s proof asks of a set; so the covering NFA's
subset construction reads whether such a p-AP ends at n.  `certify`
searches the product of those subsets, S's DFA and a comparator for
n > c, by reachability over every digit string, so over every n, and no
reached state may have "n in S" equal to "n covered".  An attempt
builds a bounded number of states, and each verdict is kept in a
bounded cache.  The seed check, `greedy_next` (which also gives B) and
the sieve's test of k-APs below its floor come from one filter,
`oracle.ap_tails`.

`explore` asks the paper's Problem 1 of a sequence of order k + 1: which
n up to a bound end no k-AP of its terms.  For a closed form at an
order up to AUTOMATON_MAX_ORDER, every n below low is uncovered, and
whether n >= low is depends only on the base-p digits of n - low:
`_form_dfa` hands the form to `oracle.digit_automaton`, whose walk lists
those n, and `_count_form` counts the terms, which are never listed.
Every other set goes through the scan, `oracle.uncovered_in_range`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice, takewhile
from math import inf, isqrt

from . import oracle
from .oracle import SETTLE, ap_tails, covering_pass, has_k_ap

#: Largest order whose uncovered n `explore` reads off the digit
#: automaton.  It has 35 states at order 5 and 244 at order 7, built in
#: 1 and 6 ms; at order 11 it has 4821, built in 0.19 s, longer than the
#: scan takes to 3 * 10^4 (0.15 s), so order 11 keeps the scan (2-core
#: x86-64 host, in-process).
AUTOMATON_MAX_ORDER = 7

#: Orders whose seeds `certify.certificate` tries.  At order 7 the
#: closed form's own covering automaton has 235 subsets, and every
#: order-7 certificate found needed 573 states or more, past
#: `certify.CERTIFY_BUDGET`.
CERTIFIED_ORDERS = (3, 5)


def greedy_next(produced: list[int], k: int = 3) -> int:
    """Smallest integer above produced[-1] keeping the set k-AP-free."""
    present = set(produced)
    candidate = produced[-1] + 1
    while ap_tails(candidate, produced, present, k):
        candidate += 1
    return candidate


def _extend(seed: list[int], k: int) -> Iterator[int]:
    """Yield the terms after a checked seed, one at a time, forever.

    The next term is the next value that ends no k-AP of the terms below
    it, so the sieve runs `oracle.covering_pass` online, once per new
    term t, over the terms at or above a floor; the pass says what its
    state `rev`, `classes` and `covered` hold.  A term joins `rev` and
    the class of each built j that holds it.  The terms stop at the
    floor, so every k-AP the passes find lies at or above it.  The next
    term is the lowest zero bit of `covered` above the newest term,
    searched in a low window that widens only while it is full.  `top`
    doubles its distance to the floor when a term passes it, and the
    classes are rebuilt then.  A term costs a few shifts, ANDs and ORs
    on ints about t - floor bits long.

    The floor is seed[i] for the highest i with 2 seed[i] - seed[i-1]
    above the next undecided value x, else seed[0].  A k-AP ending at x
    with terms on both sides of that gap steps d >= seed[i] - seed[i-1],
    and its term x - d is at least seed[i], so x would reach that bound.
    Below it every k-AP ending at x lies at or above the floor, which
    `covered` holds, or wholly in seed[:i], which `ap_tails` decides.
    When x reaches the bound, the state is rebuilt on the next floor by
    replaying the terms through the step new terms take, so no int
    grows with a gap in the seed that no k-AP has yet crossed.
    """
    terms = list(seed)
    x = seed[-1] + 1  # the next undecided value
    i = len(seed)
    while True:
        i = next((h for h in range(i - 1, 0, -1) if 2 * seed[h] - seed[h - 1] > x), 0)
        horizon = 2 * seed[i] - seed[i - 1] if i else inf
        below = seed[:i]
        present = set(below)
        floor = top = base = seed[i]
        rev = covered = 0
        classes: dict[int, list[int]] = {}  # j -> [G[j][0], ..., G[j][j-1]]
        n = i  # terms[n] joins the state next: replayed terms, then new ones
        while n < len(terms) or x < horizon:
            if n == len(terms):
                off, width = terms[-1] + 1 - base, 64
                while True:  # widen the window while it is full
                    low = (covered & ((1 << (off + width)) - 1)) >> off
                    if low != (1 << width) - 1:
                        break
                    width *= 2
                x = terms[-1] + (low ^ (low + 1)).bit_length()  # its lowest zero bit
                if x >= horizon:
                    break
                if below and ap_tails(x, below, present, k):
                    covered |= 1 << (x - base)
                    continue
                yield x
                terms.append(x)
                x += 1
            t = terms[n]
            n += 1
            if t > top:
                span = top - floor or 64
                while floor + span < t:
                    span *= 2
                rev <<= floor + span - top
                top = floor + span
                classes.clear()
            p = top - t
            off = t + 1 - base
            if off > SETTLE:
                covered >>= off
                base, off = t + 1, 0
            covered |= covering_pass(rev, p, off, classes, k)
            # t joins the state after its own pass, so `rev` never holds
            # a term at or above the pass's, which the pass would clear
            rev |= 1 << p
            for j, cls in classes.items():
                cls[p % j] |= 1 << (p // j)


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


def _form_dfa(below: Sequence[int], p: int, m: int) -> tuple:
    """S = below + p^m * S(0) as a minimal base-p DFA for `oracle.digit_automaton`.

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


def _is_prime(k: int) -> bool:
    """k is prime, by trial division; every k >= 2^32 counts as composite.

    That caps the test at 2^16 divisions, and a huge order keeps the sieve.
    """
    return 2 <= k < 1 << 32 and all(k % d for d in range(2, isqrt(k) + 1))


def _source(seed: list[int], k: int) -> tuple | None:
    """(low, B, m) if the order-k sequence from seed is low + B + k^m * S(0), else None.

    Raises ValueError for a bad seed.  A seed that, moved to start at 0,
    starts S(0) is k-AP-free by `_form`'s proof; any other seed is
    checked for a k-AP first, and at order 3 or 5 may be certified.
    """
    if not seed:
        raise ValueError("seed must be non-empty")
    low = seed[0]
    if low < 0:
        raise ValueError("seed terms must be nonnegative")
    if k < 3:  # S(0) never ends at k = 2
        raise ValueError(f"progression length must be >= 3, got {k}")
    moved = [t - low for t in seed] if low else seed
    if _is_prime(k) and list(islice(_form((0,), k, 0), len(seed))) == moved:
        return low, (0,), 0
    if has_k_ap(seed, k):  # also rejects unsorted seeds
        raise ValueError(f"seed contains a {k}-term AP")
    if k in CERTIFIED_ORDERS:
        from .certify import certificate  # compiled only where it is used

        form = certificate(moved, k)
        return (low, *form) if form else None
    return None


def _terms(seed: list[int], k: int, source: tuple | None) -> Iterator[int]:
    """The terms after a seed list, from its `_source`."""
    if source is None:
        return _extend(seed, k)
    low, below, m = source
    terms = islice(_form(below, k, m), len(seed), None)
    return map(low.__add__, terms) if low else terms


def generate(seed: list[int], k: int, count: int) -> list[int]:
    """First `count` terms of the Stanley sequence of order k from seed."""
    seed = list(seed)
    terms = _terms(seed, k, _source(seed, k))
    if count < len(seed):
        raise ValueError(
            f"count {count} is below the seed length {len(seed)}"
        )
    return [*seed, *islice(terms, count - len(seed))]  # one list, extended in place


def _terms_upto(seed: list[int], k: int, limit: int, source: tuple | None) -> Iterator[int]:
    """The terms <= limit after a seed list, from its `_source`; a seed past limit raises."""
    if seed[-1] > limit:
        raise ValueError(f"seed already exceeds limit {limit}")
    return takewhile(lambda t: t <= limit, _terms(seed, k, source))


def generate_upto(seed: list[int], k: int, limit: int) -> list[int]:
    """All terms <= limit of the Stanley sequence of order k from seed."""
    seed = list(seed)
    return [*seed, *_terms_upto(seed, k, limit, _source(seed, k))]


def explore(seed: list[int], k: int, upto: int) -> tuple[int, int, list[int]]:
    """Problem 1 up to upto: does the order-(k+1) sequence cover AP_k?

    Returns how many terms <= upto the Stanley sequence of order k + 1
    from seed has, the largest of them, and each n <= upto that no k-AP
    of them ends at.  The seed is checked first, as `generate_upto`
    checks it.  A closed form (low, B, m) at an order up to
    AUTOMATON_MAX_ORDER generates no term: `_count_form` counts them,
    every n < low is uncovered, and n >= low is iff n - low is for
    B + p^m * S(0), which its digit automaton reads.  Any other set is
    generated and goes through `oracle.uncovered_in_range`.
    """
    seed = list(seed)
    source = _source(seed, k + 1)
    rest = _terms_upto(seed, k + 1, upto, source)
    # a k below 3 goes to the scan, which rejects it
    if source is not None and 3 <= k < AUTOMATON_MAX_ORDER:
        low, below, m = source
        automaton = oracle.digit_automaton(_form_dfa(below, k + 1, m), k + 1, k)
        uncovered = [*range(low), *map(low.__add__, automaton.uncovered(upto - low))]
        return (*_count_form(source, k + 1, upto), uncovered)
    terms = [*seed, *rest]
    uncovered = oracle.uncovered_in_range(oracle.FiniteSet(terms), 0, upto, k)
    return len(terms), terms[-1], uncovered
