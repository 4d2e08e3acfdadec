"""Greedy Stanley-sequence generator.

Starting from a k-AP-free seed, each new term is the smallest integer
above the last one that keeps the set free of k-term arithmetic
progressions.  `greedy_next` is that rule as a stateless one-step
definition.  `generate` and `generate_upto` take their terms from
`_terms`, which picks one of two sources.  For a prime order p and a
seed that starts the sequence from 0 ([0], [0, 1], ...), the terms are
the numbers with no base-p digit p - 1 (`_no_top_digit`), enumerated in
linear time.  Every other seed and order goes through the incremental
sieve `_extend`: when a term t is appended it marks every value t + d
that would end a k-AP whose other terms t, t - d, ..., t - (k-2)d are
already present, so the next term is the first unmarked value.  Its
time grows with the square of the term count or faster.  The seed check,
`greedy_next` and the sieve's marks all come from one filter,
`oracle.ap_tails`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice, takewhile
from math import isqrt
from typing import Iterator

from .oracle import ap_tails, has_k_ap


def _check_seed(seed: list[int], k: int) -> list[int]:
    seed = list(seed)
    if not seed:
        raise ValueError("seed must be non-empty")
    if seed[0] < 0:
        raise ValueError("seed terms must be nonnegative")
    if has_k_ap(seed, k):  # also rejects unsorted seeds
        raise ValueError(f"seed contains a {k}-term AP")
    return seed


def greedy_next(produced: list[int], k: int = 3) -> int:
    """Smallest integer above produced[-1] keeping the set k-AP-free."""
    present = set(produced)
    candidate = produced[-1] + 1
    while ap_tails(candidate, produced, present, k):
        candidate += 1
    return candidate


def _extend(seed: list[int], k: int) -> Iterator[int]:
    """Yield the terms after a checked seed, one at a time, forever.

    sieve[o] = 1 forbids base + o, where base = seed[-1] + 1 is the first
    candidate.  Before t marks, the sieve doubles until it holds offset
    2(t - base) + 1, the farthest mark of a pair s < t with s >= seed[-1].
    A mark beyond the sieve comes from an earlier seed term across a gap
    inside the seed; it waits in `far` until the sieve grows over it, so
    no allocation grows with that gap.
    """
    base = seed[-1] + 1
    sieve = bytearray(64)
    far: set[int] = set()
    terms: list[int] = []
    present: set[int] = set()

    def grow() -> None:
        sieve.extend(bytes(len(sieve)))
        inside = [x for x in far if x - base < len(sieve)]
        far.difference_update(inside)
        for x in inside:
            sieve[x - base] = 1

    def add(t: int) -> None:
        # each s that ends a (k-1)-term AP at t forbids t + d = 2t - s
        ss = ap_tails(t, terms, present, k - 1)
        terms.append(t)
        present.add(t)
        while len(sieve) <= 2 * (t - base) + 1:
            grow()
        c = 2 * t - base  # the mark forbidden by s sits at c - s
        del ss[bisect_right(ss, c):]  # below base: a seed pair
        cut = bisect_right(ss, c - len(sieve))
        far.update(base + c - s for s in ss[:cut])
        del ss[:cut]
        for s in ss:
            sieve[c - s] = 1

    for t in seed:
        add(t)
    pos = 0
    while True:
        o = sieve.find(0, pos)
        while o < 0:
            grow()
            o = sieve.find(0, pos)
        yield base + o
        add(base + o)
        pos = o + 1


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
    """The terms after a checked seed: closed form if it applies, else sieve."""
    if _is_prime(k):
        closed = _no_top_digit(k)
        if list(islice(closed, len(seed))) == seed:
            return closed
    return _extend(seed, k)


def generate(seed: list[int], k: int = 3, count: int = 0) -> list[int]:
    """First `count` terms of the Stanley sequence of order k from seed."""
    seed = _check_seed(seed, k)
    if count < len(seed):
        raise ValueError(
            f"count {count} is below the seed length {len(seed)}"
        )
    return seed + list(islice(_terms(seed, k), count - len(seed)))


def generate_upto(seed: list[int], k: int = 3, limit: int = 0) -> list[int]:
    """All terms <= limit of the Stanley sequence of order k from seed."""
    seed = _check_seed(seed, k)
    if seed and seed[-1] > limit:
        raise ValueError(f"seed already exceeds limit {limit}")
    return seed + list(takewhile(lambda t: t <= limit, _terms(seed, k)))
