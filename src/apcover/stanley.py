"""Greedy Stanley-sequence generator.

Starting from a k-AP-free seed, each new term is the smallest integer
above the last one that keeps the set free of k-term arithmetic
progressions.  `greedy_next` is that rule as a stateless one-step
definition.  `generate` and `generate_upto` take their terms from
`_terms`, which picks one of two sources.  For a prime order p and a
seed that starts the sequence from 0 ([0], [0, 1], ...), the terms are
the numbers with no base-p digit p - 1 (`_no_top_digit`), enumerated in
linear time.  Every other seed and order goes through the incremental
sieve `_extend`, which runs `oracle.covering_pass` once per new term,
so the next term is the lowest value that ends no k-AP.  A term costs
a few shifts and ANDs on ints about as many bits long as the largest
term, so the time grows with the term count times the largest term.
The seed check, `greedy_next` and the sieve's test of k-APs below its
floor come from one filter, `oracle.ap_tails`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, takewhile
from math import inf, isqrt

from .oracle import SETTLE, ap_tails, covering_pass, has_k_ap


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
    the one built class of each j that holds it.  The terms stop at the
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
    replaying the terms, so no int grows with a gap in the seed that no
    k-AP has yet crossed.
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
        classes: dict[int, dict[int, int]] = {}  # j -> {r: G[j][r]}

        def add(t: int) -> None:
            nonlocal top, rev, covered, base
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
                r = p % j
                if r in cls:
                    cls[r] |= 1 << (p // j)

        for t in terms[i:]:
            add(t)
        while x < horizon:
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
            add(x)
            x += 1


def _no_top_digit(p: int) -> Iterator[int]:
    """Yield, ascending, every n >= 0 with no base-p digit p - 1.

    For a prime p this is the Stanley sequence of order p from 0
    (Odlyzko and Stanley, 1978, for p = 3; the argument is the same for
    every prime).  No p-AP: in a, a + d, ..., a + (p-1)d let v be the
    lowest base-p position where d is nonzero.  Digit v of a + jd is
    digit v of a plus j times that of d, mod p, with no carry from below;
    as p is prime, over j = 0..p-1 it takes every residue, p - 1 included.
    Greedy: if n has a digit p - 1, let D be the sum of p^i over those
    positions.  Then n - jD for j = 1..p-1 has the digit p - 1 - j there,
    the rest unchanged, so it is a smaller member and n would complete a
    p-AP.

    Level m+1 (the members in [p^m, p^(m+1))) is c p^m + x for
    c = 1..p-2 and each member x below p^m, so the terms come out in
    order, and no level is built before its terms are asked for.
    """
    terms = [0]
    yield 0
    step = 1  # p^m
    while True:
        below = len(terms)
        for c in range(step, (p - 1) * step, step):
            for x in islice(terms, below):
                terms.append(c + x)
                yield c + x
        step *= p


def _is_prime(k: int) -> bool:
    """k is prime, by trial division; every k >= 2^32 counts as composite.

    That caps the test at 2^16 divisions, and a huge order keeps the sieve.
    """
    return 2 <= k < 1 << 32 and all(k % d for d in range(2, isqrt(k) + 1))


def _terms(seed: list[int], k: int) -> Iterator[int]:
    """The terms after a seed list: closed form if it applies, else sieve.

    Raises ValueError for a bad seed.  A prefix of the closed form is
    k-AP-free by `_no_top_digit`'s proof; any other seed is checked for
    a k-AP first.
    """
    if not seed:
        raise ValueError("seed must be non-empty")
    if seed[0] < 0:
        raise ValueError("seed terms must be nonnegative")
    if k < 3:  # the closed form never ends at k = 2
        raise ValueError(f"progression length must be >= 3, got {k}")
    if _is_prime(k):
        closed = _no_top_digit(k)
        if list(islice(closed, len(seed))) == seed:
            return closed
    if has_k_ap(seed, k):  # also rejects unsorted seeds
        raise ValueError(f"seed contains a {k}-term AP")
    return _extend(seed, k)


def generate(seed: list[int], k: int = 3, count: int = 0) -> list[int]:
    """First `count` terms of the Stanley sequence of order k from seed."""
    seed = list(seed)
    terms = _terms(seed, k)
    if count < len(seed):
        raise ValueError(
            f"count {count} is below the seed length {len(seed)}"
        )
    return seed + list(islice(terms, count - len(seed)))


def generate_upto(seed: list[int], k: int = 3, limit: int = 0) -> list[int]:
    """All terms <= limit of the Stanley sequence of order k from seed."""
    seed = list(seed)
    terms = _terms(seed, k)
    if seed[-1] > limit:
        raise ValueError(f"seed already exceeds limit {limit}")
    return seed + list(takewhile(lambda t: t <= limit, terms))
