"""Reference answers the benchmark checks apcover's outputs against.

Nothing here imports apcover.  Each routine is written from the
definition of the object it answers for, in a formulation of its own,
and `self_check` arbitrates every one of them against the brute-force
oracles in tests/brute.py at sizes where those are affordable.  Larger
inputs then rely on the checked routine.

    A = { lead * 4**l + sum(low_i * 4**i, i < l) : lead in 1..4, low_i in 1..2 }
"""

from __future__ import annotations

from bisect import bisect_right


def digits4(n: int) -> list[int]:
    """Little-endian base-4 digits of n >= 1, read off its binary string."""
    bits = bin(n)[2:]
    if len(bits) % 2:
        bits = "0" + bits
    return [int(bits[i : i + 2], 2) for i in range(len(bits) - 2, -2, -2)]


def decompose(n: int) -> tuple[int, int, tuple[int, ...]] | None:
    """(level, lead, low digits) of a member of A, None otherwise.

    A lead of 1..3 is the top base-4 digit itself; a lead of 4 reads
    as the digit pair "10" on top, one position higher.
    """
    if n < 1:
        return None
    d = digits4(n)
    top = len(d) - 1
    if all(x in (1, 2) for x in d[:top]):
        return top, d[top], tuple(d[:top])
    if top >= 1 and d[top] == 1 and d[top - 1] == 0:
        if all(x in (1, 2) for x in d[: top - 1]):
            return top - 1, 4, tuple(d[: top - 1])
    return None


def member(n: int) -> bool:
    return decompose(n) is not None


def _count_low(places: int, x: int) -> int:
    """How many sums of `places` base-4 digits, each 1 or 2, are <= x."""
    total = 0
    while places:
        ones = ((1 << (2 * places)) - 1) // 3  # every digit 1
        if x < ones:
            return total
        if x >= 2 * ones:  # every digit 2
            return total + (1 << places)
        places -= 1
        unit = 1 << (2 * places)
        rest_ones = (unit - 1) // 3
        if x - 2 * unit >= rest_ones:
            # top digit 2 still fits, so top digit 1 fits with any tail
            total += 1 << places
            x -= 2 * unit
        else:
            x -= unit
    return total + (x >= 0)


def count_leq(n: int) -> int:
    """A(n), summed level by level: whole levels, then the straddling one."""
    total = 0
    level = 0
    while n >= ((1 << (2 * level + 2)) - 1) // 3:  # smallest member of level
        unit = 1 << (2 * level)
        for lead in (1, 2, 3, 4):
            total += _count_low(level, n - lead * unit)
        level += 1
    return total


def element_at(j: int) -> int:
    """The j-th smallest member (1-based), spelled out as base-4 digits."""
    level = 0
    while j > 4 << level:
        j -= 4 << level
        level += 1
    lead_index, bits = divmod(j - 1, 1 << level)
    top = "10" if lead_index == 3 else str(lead_index + 1)  # lead 4 is "10"
    low = "".join("2" if bits >> i & 1 else "1" for i in range(level - 1, -1, -1))
    return int(top + low, 4)


def witness_ok(a: int, b: int, n: int) -> bool:
    """a < b < n are members of A in arithmetic progression."""
    return 1 <= a < b < n and a + n == 2 * b and member(a) and member(b)


def compare_ratio(n1: int, n2: int) -> int:
    """Sign of A(n1)**2 * n2 - A(n2)**2 * n1."""
    diff = count_leq(n1) ** 2 * n2 - count_leq(n2) ** 2 * n1
    return (diff > 0) - (diff < 0)


def stanley(seed: list[int], k: int, count: int = 0, limit: int | None = None):
    """Greedy k-AP-free extension of seed, by a forbidden-value set.

    Appending t forbids every x = t + d that would end a k-AP whose
    other terms, t - d, t - 2d, ..., are already present; the next term
    is the smallest value above the last one that is not forbidden.
    Stops after `count` terms, or before the first term above `limit`.
    """
    terms: list[int] = []
    present: set[int] = set()
    forbidden: set[int] = set()

    def add(t: int) -> None:
        for s in terms:
            d = t - s
            if all(t - j * d in present for j in range(2, k - 1)):
                forbidden.add(t + d)
        terms.append(t)
        present.add(t)

    for t in seed:
        add(t)
    while limit is not None or len(terms) < count:
        nxt = terms[-1] + 1
        while nxt in forbidden:
            nxt += 1
        if limit is not None and nxt > limit:
            break
        add(nxt)
    return terms


def uncovered(values: list[int], lo: int, hi: int, k: int) -> list[int]:
    """n in [lo, hi] not ending a k-AP whose other k-1 terms are in values.

    Enumerates the last two terms a < b of each progression, which fix
    n = 2b - a, then looks the earlier terms up.
    """
    present = set(values)
    covered = set()
    upto = values[: bisect_right(values, hi)]
    for i, b in enumerate(upto):
        for a in map(upto.__getitem__, range(i - 1, -1, -1)):
            d = b - a
            n = b + d
            if n > hi:
                break
            if n >= lo and all(a - j * d in present for j in range(1, k - 2)):
                covered.add(n)
    return [n for n in range(lo, hi + 1) if n not in covered]


def argmax_records(members: list[int]) -> list[tuple[int, int]]:
    """(n, A(n)) at every member that beats all smaller n on A(n)**2 / n.

    Between members the count is flat while n grows, so only members
    can set a record; the argmax up to m is the last record <= m.
    """
    records = []
    best_n, best_c = None, 0
    for c, n in enumerate(members, 1):
        if best_n is None or c * c * best_n > best_c * best_c * n:
            best_n, best_c = n, c
            records.append((n, c))
    return records


def argmax_line(records: list[tuple[int, int]], upto: int) -> str:
    """The `apcover argmax --upto` stdout line the records predict."""
    n, count = records[bisect_right(records, (upto, float("inf"))) - 1]
    ratio = (count * count / n) ** 0.5
    return f"n={n} count={count} ratio={ratio:.12g}\n"


def self_check(brute, stanley_seeds) -> None:
    """Arbitrate every routine above against tests/brute.py; raise on mismatch."""
    limit = 4**6
    elements = brute.elements_upto(limit)
    members = set(elements)
    counts = brute.prefix_counts(limit)
    for n in range(limit + 1):
        if member(n) != (n in members) or count_leq(n) != counts[n]:
            raise AssertionError(f"reference disagrees with brute at n={n}")
    for j, v in enumerate(elements, 1):
        if element_at(j) != v:
            raise AssertionError(f"reference element_at({j}) != {v}")
    for k in (3, 4, 5):
        for seed in stanley_seeds:
            if stanley(seed, k, 24) != brute.stanley_naive(seed, k, 24):
                raise AssertionError(f"reference stanley({seed}, {k}) != brute")
            s = stanley(seed, k, limit=200)
            want = [n for n in range(201) if not brute.all_cover_diffs(set(s), n, k)]
            if uncovered(s, 0, 200, k) != want:
                raise AssertionError(f"reference uncovered({seed}, {k}) != brute")
    want = [n for n in range(301) if not brute.all_cover_diffs(members, n, 3)]
    if uncovered(elements, 0, 300, 3) != want:
        raise AssertionError("reference uncovered(A) != brute")
    full = brute.argmax_full_scan(elements, limit)
    if argmax_records(elements)[-1][0] != full:
        raise AssertionError("reference argmax != brute.argmax_full_scan")
