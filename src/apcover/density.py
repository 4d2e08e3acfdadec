"""Density profile of the counting function: how A(n)/sqrt(n) behaves.

The extremal points are the all-twos members q(lead, level) of each
block, where the count has the closed form (lead+4)*2**level - 4 and
the squared ratio tends to 3*(lead+4)**2 / (3*lead+2); the largest of
the four limits, 15, is reached at lead 1.  argmax_upto finds the exact
maximizer up to any bound by branch and bound over A's digit tree: a
subtree of members in [lo, hi] can reach no ratio above
A(min(hi, bound))**2 / lo.  Every ordering decision is made by exact
integer cross-multiplication (count**2 * n' versus count'**2 * n);
floats appear only in exports.  The records are named tuples: they
also iterate, index and compare equal to a plain tuple of their fields,
and the `count` field of QPoint and DensitySample shadows tuple.count.
"""

from __future__ import annotations

from collections import namedtuple
from typing import IO, TYPE_CHECKING, Iterable

from .sequence import count_leq

if TYPE_CHECKING:
    from fractions import Fraction


class QPoint(namedtuple("QPoint", "lead level value count")):
    """All-twos member of a block and its closed-form count."""

    __slots__ = ()


class DensitySample(namedtuple("DensitySample", "n count ratio_num ratio_den ratio")):
    """One (n, A(n)) sample; ratio_num/ratio_den is the exact squared ratio."""

    __slots__ = ()


class DensityProfile(namedtuple("DensityProfile", "samples argmax")):
    """The samples (a list of DensitySample) and the first of their maxima."""

    __slots__ = ()


def _sample(n: int, count: int) -> DensitySample:
    sq = count * count
    return DensitySample(
        n=n, count=count, ratio_num=sq, ratio_den=n, ratio=(sq / n) ** 0.5
    )


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


def _cmp_samples(s1: DensitySample, s2: DensitySample) -> int:
    lhs = s1.ratio_num * s2.ratio_den
    rhs = s2.ratio_num * s1.ratio_den
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
            q = q_point(lead, level)
            s = _sample(q.value, q.count)
            samples.append(s)
            if best is None or _cmp_samples(s, best) > 0:
                best = s
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
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    best_n, best_count = 1, 1
    stack = []  # (prefix, free low digits f, ones(f)); top level on top
    for level in range((n_max.bit_length() + 1) // 2):  # 4**level <= n_max
        ones = ((1 << 2 * level) - 1) // 3
        for lead in (4, 3, 2, 1):
            stack.append((lead << 2 * level, level, ones))
    while stack:
        prefix, f, ones = stack.pop()
        lo = prefix + ones
        if lo > n_max:
            continue
        count = count_leq(min(prefix + 2 * ones, n_max))
        lhs, rhs = count * count * best_n, best_count * best_count * lo
        if lhs < rhs or (lhs == rhs and lo >= best_n):
            continue
        if not f:
            best_n, best_count = lo, count
            continue
        f -= 1
        stack.append((prefix + (1 << 2 * f), f, ones >> 2))
        stack.append((prefix + (2 << 2 * f), f, ones >> 2))
    return best_n


def write_csv(samples: Iterable[DensitySample], stream: IO[str]) -> None:
    """CSV export: header n,count,ratio; ratio at 12 significant digits."""
    stream.write("n,count,ratio\n")
    for s in samples:
        stream.write(f"{s.n},{s.count},{s.ratio:.12g}\n")


def write_jsonl(samples: Iterable[DensitySample], stream: IO[str]) -> None:
    """JSON-lines export with the exact squared ratio alongside the float."""
    import json  # only --jsonl needs it
    for s in samples:
        stream.write(
            json.dumps(
                {
                    "n": s.n,
                    "count": s.count,
                    "ratio_num": s.ratio_num,
                    "ratio_den": s.ratio_den,
                    "ratio": s.ratio,
                }
            )
            + "\n"
        )
