"""Greedy Stanley-sequence generator.

Starting from a k-AP-free seed, each new term is the smallest integer
above the last one that keeps the set free of k-term arithmetic
progressions.  `greedy_next` is that rule as a stateless one-step
definition.  `generate`, `generate_upto` and `explore` take the terms
from `_terms`: a closed form, the sieve, or the sieve until a closed
form is proved.

A closed form at a prime order p is the triple (low, B, m), the set
low + B + p^m * S(0), where S(0) is the numbers with no base-p digit
p - 1 and B lies in [0, p^m).  The greedy rule commutes with adding a
constant, so a seed that, moved to start at 0, starts the sequence from
0 ([0], [0, 1], ...) takes B = (0,) and m = 0, which `_source` finds.
`certify._form` enumerates a form in linear time.  Every other seed and
order goes through the incremental sieve `_extend`, which runs
`oracle.covering_pass` once per new term, so the next term is the
lowest value that ends no k-AP.  A term costs a few shifts and ANDs on
ints about as many bits long as the largest term, so the time grows
with the term count times the largest term.  At order 3 or 5,
`certify.watch`, imported only at a prime order, reads the sieve's
terms as they come and hands over to the form B + p^m * S(0) once it
proves that the terms from low + p^m on are that form's, B being the
sieved terms below it.  The seed check, `greedy_next` and the sieve's test of k-APs below its
floor come from one filter, `oracle.ap_tails`.

`explore` asks the paper's Problem 1 of a sequence of order k + 1: which
n up to a bound end no k-AP of its terms.  For a closed form at an
order up to AUTOMATON_MAX_ORDER, every n below low is uncovered, and
whether n >= low is depends only on the base-p digits of n - low:
`certify._form_dfa` hands the form to `oracle.digit_automaton`, whose
walk lists those n, and `certify._count_form` counts the terms, which
are never listed.  Every other set goes through the scan,
`oracle.uncovered_in_range`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice, takewhile
from math import inf, isqrt

from . import oracle
from .oracle import SETTLE, ap_tails, covering_pass, has_k_ap

#: Largest order whose uncovered n `explore` reads off the digit
#: automaton.  It has 35 states at order 5 and 244 at order 7, built in
#: 0.4 and 3 ms; at order 11 it has 4821, built in 0.10-0.12 s, longer
#: than the scan takes to 3 * 10^4 (0.08-0.10 s), so order 11 keeps the
#: scan (2-core x86-64 host, in-process).
AUTOMATON_MAX_ORDER = 7

#: Orders whose sieve `_terms` hands to `certify.watch` to prove a
#: closed form, each proof that runs cached.  At order 7 the covering
#: automaton of S(0) alone has 235 subsets over 35 NFA states, and the
#: order-7 proofs from 0,7 and 0,3 need 589 and 597 states, past
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


def _is_prime(k: int) -> bool:
    """k is prime, by trial division; every k >= 2^32 counts as composite.

    That caps the test at 2^16 divisions, and a huge order keeps the sieve.
    """
    return 2 <= k < 1 << 32 and all(k % d for d in range(2, isqrt(k) + 1))


def _source(seed: list[int], k: int) -> list[tuple]:
    """[(low, (0,), 0)] if seed, moved to start at 0, starts S(0), else [].

    Raises ValueError for a bad seed.  A start of S(0) is k-AP-free by
    `certify._form`'s proof; any other seed is checked for a k-AP.  The
    form is read by `_terms`, or `certify.watch` appends one.
    """
    if not seed:
        raise ValueError("seed must be non-empty")
    low = seed[0]
    if low < 0:
        raise ValueError("seed terms must be nonnegative")
    if k < 3:  # S(0) never ends at k = 2
        raise ValueError(f"progression length must be >= 3, got {k}")
    if _is_prime(k):
        from .certify import _form_from  # compiled only at prime orders

        if list(islice(_form_from((low, (0,), 0), k, 0), len(seed))) == seed:
            return [(low, (0,), 0)]
    if has_k_ap(seed, k):  # also rejects unsorted seeds
        raise ValueError(f"seed contains a {k}-term AP")
    return []


def _terms(seed: list[int], k: int, forms: list[tuple]) -> Iterator[int]:
    """The terms after a seed list, from the form (low, B, m) in forms, if any.

    Else from the sieve, which at orders 3 and 5 goes through
    `certify.watch`: it appends to forms a form it proves on the way.
    """
    if not forms and k not in CERTIFIED_ORDERS:
        return _extend(seed, k)
    from .certify import _form_from, watch  # compiled only at prime orders

    if forms:
        return _form_from(forms[0], k, len(seed))
    return chain.from_iterable(watch(_extend(seed, k), seed, k, forms))


def generate(seed: list[int], k: int, count: int) -> list[int]:
    """First `count` terms of the Stanley sequence of order k from seed."""
    seed = list(seed)
    terms = _terms(seed, k, _source(seed, k))
    if count < len(seed):
        raise ValueError(
            f"count {count} is below the seed length {len(seed)}"
        )
    return [*seed, *islice(terms, count - len(seed))]  # one list, extended in place


def _terms_upto(seed: list[int], k: int, limit: int, forms: list[tuple]) -> Iterator[int]:
    """The terms <= limit after a seed list, from `_terms`; a seed past limit raises."""
    if seed[-1] > limit:
        raise ValueError(f"seed already exceeds limit {limit}")
    return takewhile(lambda t: t <= limit, _terms(seed, k, forms))


def generate_upto(seed: list[int], k: int, limit: int) -> list[int]:
    """All terms <= limit of the Stanley sequence of order k from seed."""
    seed = list(seed)
    return [*seed, *_terms_upto(seed, k, limit, _source(seed, k))]


def explore(seed: list[int], k: int, upto: int) -> tuple[int, int, list[int]]:
    """Problem 1 up to upto: does the order-(k+1) sequence cover AP_k?

    Returns how many terms <= upto the Stanley sequence of order k + 1
    from seed has, the largest of them, and each n <= upto that no k-AP
    of them ends at.  The seed is checked first, as `generate_upto`
    checks it.  At an order up to AUTOMATON_MAX_ORDER the terms stop at
    a closed form (low, B, m), a start of S(0) or one that
    `certify.watch` proves on the way: `certify._count_form` counts
    them, every n < low is uncovered, and n >= low is iff n - low is
    for B + p^m * S(0), which its digit automaton reads.  Any other set
    is generated to upto and goes through `oracle.uncovered_in_range`.
    """
    seed = list(seed)
    forms = _source(seed, k + 1)
    rest = _terms_upto(seed, k + 1, upto, forms)
    walk = 3 <= k < AUTOMATON_MAX_ORDER  # a k below 3 goes to the scan, which rejects it
    terms = [*seed, *(takewhile(lambda t: not forms, rest) if walk else rest)]
    if walk and forms:
        from .certify import _count_form, _form_dfa  # compiled only where it is used

        low, below, m = forms[0]
        automaton = oracle.digit_automaton(_form_dfa(below, k + 1, m), k + 1, k)
        uncovered = [*range(low), *map(low.__add__, automaton.uncovered(upto - low))]
        return (*_count_form(forms[0], k + 1, upto), uncovered)
    uncovered = oracle.uncovered_in_range(oracle.FiniteSet(terms), 0, upto, k)
    return len(terms), terms[-1], uncovered
