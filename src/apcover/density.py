"""Density profile of the counting function: how A(n)/sqrt(n) behaves.

The extremal points are the all-twos members q(lead, level) of each
block, where the count has the closed form (lead+4)*2**level - 4 and
the squared ratio tends to 3*(lead+4)**2 / (3*lead+2); the largest of
the four limits, 15, is reached at lead 1.  argmax_upto finds the exact
maximizer up to any bound by branch and bound over A's digit tree: a
subtree of members in [lo, hi] can reach no ratio above
A(min(hi, bound))**2 / lo.  Each node carries that count down the
tree, so count_leq runs only on the path of nodes that straddle the
bound, about once per level.  Every ordering decision is made by exact
integer cross-multiplication (count**2 * n' versus count'**2 * n);
floats appear only in exports.  The records are named tuples: they
also iterate, index and compare equal to a plain tuple of their fields,
and the `count` field of QPoint and DensitySample shadows tuple.count.
"""

from __future__ import annotations

from collections import namedtuple

from .sequence import count_leq

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: fractions imports decimal, typing re
    from fractions import Fraction
    from typing import IO, Iterable


class QPoint(namedtuple("QPoint", "lead level value count")):
    """All-twos member of a block and its closed-form count."""

    __slots__ = ()


class DensitySample(namedtuple("DensitySample", "n count ratio_num ratio_den ratio")):
    """One (n, A(n)) sample; ratio_num/ratio_den is the exact squared ratio."""

    __slots__ = ()


class DensityProfile(namedtuple("DensityProfile", "samples argmax")):
    """The samples (a list of DensitySample) and the first of their maxima."""

    __slots__ = ()


def q_point(lead: int, level: int) -> QPoint:
    """The member lead * 4**level + sum(2 * 4**i), with its exact count.

    Both closed forms are evaluated exactly and the count is
    cross-checked against count_leq before the point is returned.
    """
    if not 1 <= lead <= 4:
        raise ValueError(f"lead digit must be in 1..4, got {lead}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    value = (lead << (2 * level)) + 2 * (4**level - 1) // 3
    count = ((lead + 4) << level) - 4
    if count_leq(value) != count:
        raise AssertionError(
            f"closed-form count {count} disagrees with count_leq({value})"
        )
    return QPoint(lead=lead, level=level, value=value, count=count)


def limit_ratio_sq(lead: int) -> Fraction:
    """Exact limit of (A(q)/sqrt(q))**2 along lead's q-points:
    3*(lead+4)**2 / (3*lead+2)."""
    if not 1 <= lead <= 4:
        raise ValueError(f"lead digit must be in 1..4, got {lead}")
    from fractions import Fraction  # imports decimal: too slow for CLI start-up
    return Fraction(3 * (lead + 4) ** 2, 3 * lead + 2)


def compare_ratio(n1: int, n2: int) -> int:
    """Order A(n1)/sqrt(n1) against A(n2)/sqrt(n2) exactly.

    Returns -1, 0 or 1 by comparing A(n1)**2 * n2 with A(n2)**2 * n1 as
    integers, so there is no float tie-breaking anywhere.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("ratio comparison needs n >= 1")
    lhs = count_leq(n1) ** 2 * n2
    rhs = count_leq(n2) ** 2 * n1
    return (lhs > rhs) - (lhs < rhs)


def profile(max_level: int) -> DensityProfile:
    """Samples at every q-point with level <= max_level, plus their argmax.

    Samples come out in increasing n (level-major, lead-minor); the
    argmax is decided by exact comparison, first winner kept on ties.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {max_level}")
    samples = []
    best = None
    for level in range(max_level + 1):
        for lead in (1, 2, 3, 4):
            _, _, n, count = q_point(lead, level)
            sq = count * count
            sample = DensitySample(n, count, sq, n, (sq / n) ** 0.5)
            samples.append(sample)
            if best is None or sq * best.ratio_den > best.ratio_num * n:
                best = sample  # strictly greater: the first of equal maxima stays
    return DensityProfile(samples=samples, argmax=best)


def argmax_upto(n_max: int) -> int:
    """The n <= n_max maximizing A(n)/sqrt(n); smallest such n on ties.

    Only members of A can win: between consecutive members the count
    is flat while n grows, so the ratio strictly decreases.  The
    members are searched by branch and bound over A's digit tree.  A
    node fixes a level, a lead and the low digits above position f;
    its members span [lo, hi], with 1 in every free digit for lo and
    2 for hi.  None of them has a squared ratio above
    A(min(hi, n_max))**2 / lo, so a node is pruned when that bound is
    below the best ratio found, or equal to it with lo >= best n (no
    smaller tie inside).  Higher levels, lead 1 and digit 2 go first,
    which finds the large ratios early.  A leaf is one member v <= n_max whose
    bound is its own ratio, so a leaf that survives the test is a new
    best.  Every comparison is an integer cross-multiplication.

    Each node carries its count down the tree; a node is within n_max
    when hi <= n_max.  A top node (lead, level) within n_max counts the
    members of its block and of every block below it, and one past
    n_max has A(n_max).  A digit-2 child shares its parent's hi, so its
    count.  A digit-1 child of a node within n_max has its parent's
    count less the 2**f members of its digit-2 sibling.  Only a digit-1
    child that lies within n_max while its parent straddles n_max calls
    count_leq: at most once per level.
    """
    return _search(n_max)[0]


def _node_members(prefix: int, f: int) -> int:
    """Members of A in the node `prefix` with f free low digits: one
    per choice of 1 or 2 in each.  The search's one count identity
    besides count_leq, kept apart so that a test can weight both."""
    return 1 << f


def _search(n_max: int) -> tuple[int, int, int]:
    """argmax_upto's search: (best n, A(best n), nodes whose bound it tested)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    best_n, best_count, nodes = 1, 1, 0
    past = count_leq(n_max)  # the count of every node reaching past n_max
    stack = []  # (prefix, free low digits f, ones(f), count); top level on top
    total = 0  # members up to the current block
    for level in range((n_max.bit_length() + 1) // 2):  # 4**level <= n_max
        ones = ((1 << 2 * level) - 1) // 3
        block = []
        for lead in (1, 2, 3, 4):
            prefix = lead << 2 * level
            total += _node_members(prefix, level)
            count = total if prefix + 2 * ones <= n_max else past
            block.append((prefix, level, ones, count))
        stack += reversed(block)
    while stack:
        prefix, f, ones, count = stack.pop()
        lo = prefix + ones
        if lo > n_max:
            continue
        nodes += 1
        lhs, rhs = count * count * best_n, best_count * best_count * lo
        if lhs < rhs or (lhs == rhs and lo >= best_n):
            continue
        if not f:
            best_n, best_count = lo, count
            continue
        within = prefix + 2 * ones <= n_max
        f -= 1
        ones >>= 2
        low, high = prefix + (1 << 2 * f), prefix + (2 << 2 * f)
        if within:
            low_count = count - _node_members(high, f)
        elif low + 2 * ones <= n_max:
            low_count = count_leq(low + 2 * ones)
        else:
            low_count = past
        stack.append((low, f, ones, low_count))
        stack.append((high, f, ones, count))
    return best_n, best_count, nodes


def write_csv(samples: Iterable[DensitySample], stream: IO[str]) -> None:
    """CSV export: header n,count,ratio; ratio at 12 significant digits."""
    stream.write("n,count,ratio\n")
    for s in samples:
        stream.write(f"{s.n},{s.count},{s.ratio:.12g}\n")


def write_jsonl(samples: Iterable[DensitySample], stream: IO[str]) -> None:
    """JSON-lines export with the exact squared ratio alongside the float.

    Each line is the bytes json.dumps gives for the dict of the fields
    n, count, ratio_num, ratio_den and ratio in that order: ", " and ": "
    separators, the ints in decimal and the ratio through repr, as json
    writes a finite float.  Written directly, so json is not imported.
    n goes to decimal once, and ratio_den reuses it when they are equal,
    as in every sample `profile` makes.
    """
    for s in samples:
        n = str(s.n)
        den = n if s.ratio_den == s.n else s.ratio_den
        stream.write(
            f'{{"n": {n}, "count": {s.count}, "ratio_num": {s.ratio_num}, '
            f'"ratio_den": {den}, "ratio": {s.ratio!r}}}\n'
        )
