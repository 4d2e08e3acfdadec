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

`explore` asks the paper's Problem 1 of a sequence of order k + 1: which
n up to a bound end no k-AP of its terms.  For the closed form at an
order up to AUTOMATON_MAX_ORDER that depends only on n's base-p digits,
and `_uncovered_no_top_digit` lists those n from a digit automaton;
every other set goes through the scan, `oracle.uncovered_in_range`.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
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


@cache
def _digit_automaton(p: int) -> tuple[list[list[int]], list[bool]]:
    """The DFA over base-p digits, low first, that reads whether n is covered.

    n is covered when some d >= 1 puts n - j*d, j = 1 .. p - 2, in the
    closed form S of `_no_top_digit`, i.e. free of the digit p - 1.
    Subtract j*d from n one digit at a time: digit i of the difference is
    v mod p for v = n_i - j*d_i - b_j, and -(v // p) is the next borrow
    b_j.  From b_j in [0, j], v >= -j*p, so b_j stays in [0, j].  After
    L digits, with n and d below p^L, the borrow is 0 iff n - j*d >= 0,
    and then the digits written are those of n - j*d.  So an NFA that
    guesses d's digit at each position, keeps one borrow per j and a
    flag for d != 0, and drops a guess that writes the digit p - 1, has
    a run ending at (0, ..., 0, nonzero) iff n is covered.  Padding n
    with zero digits changes nothing: a d <= n has none of its digits up
    there, and a d > n leaves a borrow.

    Of the 2 (p - 1)! NFA states only those reached from the start are
    built (9 at p = 5, 25 at p = 7), each numbered by one bit.  Returns
    (delta, covered) of the subset construction over them: state 0 is
    the start, reading digit c moves from s to delta[s][c], and
    covered[s] says whether s holds the accepting NFA state.  Built on
    first use of each p.
    """
    js = range(1, p - 1)
    zero = (0,) * len(js)
    nfa = [(*zero, False)]
    number = {nfa[0]: 0}
    steps = []  # steps[i][c]: the NFA states i reaches on digit c, as a bitmask
    for *borrows, nonzero in nfa:  # grows as new states turn up
        row = []
        for c in range(p):
            reached = 0
            for e in range(p):  # d's digit
                moved = [divmod(c - j * e - b, p) for j, b in zip(js, borrows)]
                if all(digit != p - 1 for _, digit in moved):
                    state = (*(-q for q, _ in moved), nonzero or e > 0)
                    if state not in number:
                        number[state] = len(nfa)
                        nfa.append(state)
                    reached |= 1 << number[state]
            row.append(reached)
        steps.append(row)
    accept = 1 << number[(*zero, True)]
    subsets = [1]
    ids = {1: 0}
    delta = []
    for subset in subsets:  # grows as new subsets turn up
        held = [steps[i] for i, bit in enumerate(bin(subset)[:1:-1]) if bit == "1"]
        row = []
        for c in range(p):
            reached = 0
            for step in held:
                reached |= step[c]
            if reached not in ids:
                ids[reached] = len(subsets)
                subsets.append(reached)
            row.append(ids[reached])
        delta.append(row)
    return delta, [bool(s & accept) for s in subsets]


def _uncovered_no_top_digit(p: int, upto: int) -> list[int]:
    """Each n <= upto with no (p-1)-AP witness in the closed form, ascending.

    Walks n's base-p digits, low first, through `_digit_automaton(p)`
    for every n < p^L, L the digit count of upto.  live[r][s] says
    whether some r more digits lead from s to a state that is not
    covered, and a digit is tried only where it is, so the walk visits
    only low-digit prefixes of uncovered n: about their count times L
    times p steps, whatever upto is.  A witness of n <= upto has every
    term below n, so the closed form's terms above upto change nothing.
    """
    delta, covered = _digit_automaton(p)
    digits = 1
    while p**digits <= upto:
        digits += 1
    live = [[not c for c in covered]]
    for _ in range(digits - 1):
        ahead = live[-1]
        live.append([any(ahead[t] for t in row) for row in delta])
    uncovered = []
    stack = [(0, digits, 0, 1)]  # (state, digits left, low digits read, p^read)
    while stack:
        s, left, n, weight = stack.pop()
        if not left:
            if n <= upto:
                uncovered.append(n)
            continue
        ahead = live[left - 1]
        for c, t in enumerate(delta[s]):
            if ahead[t]:
                stack.append((t, left - 1, n + c * weight, weight * p))
    return sorted(uncovered)


def _is_prime(k: int) -> bool:
    """k is prime, by trial division; every k >= 2^32 counts as composite.

    That caps the test at 2^16 divisions, and a huge order keeps the sieve.
    """
    return 2 <= k < 1 << 32 and all(k % d for d in range(2, isqrt(k) + 1))


def _starts_closed_form(seed: list[int], k: int) -> bool:
    """The seed is a prefix of the closed form `_no_top_digit(k)`."""
    return _is_prime(k) and list(islice(_no_top_digit(k), len(seed))) == seed


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
    if _starts_closed_form(seed, k):
        return islice(_no_top_digit(k), len(seed), None)
    if has_k_ap(seed, k):  # also rejects unsorted seeds
        raise ValueError(f"seed contains a {k}-term AP")
    return _extend(seed, k)


def generate(seed: list[int], k: int, count: int) -> list[int]:
    """First `count` terms of the Stanley sequence of order k from seed."""
    seed = list(seed)
    terms = _terms(seed, k)
    if count < len(seed):
        raise ValueError(
            f"count {count} is below the seed length {len(seed)}"
        )
    return [*seed, *islice(terms, count - len(seed))]  # one list, extended in place


def generate_upto(seed: list[int], k: int, limit: int) -> list[int]:
    """All terms <= limit of the Stanley sequence of order k from seed."""
    seed = list(seed)
    terms = _terms(seed, k)
    if seed[-1] > limit:
        raise ValueError(f"seed already exceeds limit {limit}")
    return [*seed, *takewhile(lambda t: t <= limit, terms)]


def explore(seed: list[int], k: int, upto: int) -> tuple[list[int], list[int]]:
    """Problem 1 up to upto: does the order-(k+1) sequence cover AP_k?

    Returns the terms <= upto of the Stanley sequence of order k + 1
    from seed, and each n <= upto that no k-AP of them ends at.  When
    the terms are the closed form at an order up to
    AUTOMATON_MAX_ORDER, the uncovered n come from its digit automaton
    (`_uncovered_no_top_digit`); any other set goes through
    `oracle.uncovered_in_range`.
    """
    seed = list(seed)
    terms = generate_upto(seed, k + 1, upto)
    # a k below 3 goes to the scan, which rejects it
    if 3 <= k < AUTOMATON_MAX_ORDER and _starts_closed_form(seed, k + 1):
        return terms, _uncovered_no_top_digit(k + 1, upto)
    return terms, oracle.uncovered_in_range(oracle.FiniteSet(terms), 0, upto, k)
