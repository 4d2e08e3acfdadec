"""Independent brute-force oracles for the test suite.

Everything here is built straight from definitions (explicit digit
products, full difference enumeration, naive greedy) and never calls
the library's closed forms, so these routines can arbitrate them.
"""

from __future__ import annotations

from itertools import product


def to_digits(n: int) -> list[int]:
    """Little-endian base-4 digits of n >= 0 by repeated division (empty for 0)."""
    digits = []
    while n:
        digits.append(n % 4)
        n //= 4
    return digits


def from_digits(digits: list[int]) -> int:
    """Value of little-endian base-4 digits by Horner's rule."""
    value = 0
    for d in reversed(digits):
        value = value * 4 + d
    return value


def elements_upto(limit: int) -> list[int]:
    """All members <= limit, enumerated level by level from the definition."""
    out = []
    level = 0
    while True:
        smallest = 4**level + sum(4**i for i in range(level))
        if smallest > limit:
            break
        for lead in (1, 2, 3, 4):
            base = lead * 4**level
            for low in product((1, 2), repeat=level):
                value = base + sum(d * 4**i for i, d in enumerate(low))
                if value <= limit:
                    out.append(value)
        level += 1
    out.sort()
    return out


def prefix_counts(limit: int) -> list[int]:
    """counts[n] = number of members <= n, for every n in [0, limit]."""
    counts = [0] * (limit + 1)
    for v in elements_upto(limit):
        counts[v] += 1
    running = 0
    for n in range(limit + 1):
        running += counts[n]
        counts[n] = running
    return counts


def all_cover_diffs(member_set: set[int], n: int, k: int = 3) -> list[int]:
    """Every difference d whose full k-AP witness ends at n, ascending."""
    diffs = []
    for d in range(1, n // (k - 1) + 1):
        if all(n - j * d in member_set for j in range(1, k)):
            diffs.append(d)
    return diffs


def covered_at(member_set: set[int], n: int, k: int = 3) -> bool:
    """Some difference d gives a full k-AP witness ending at n.

    `all_cover_diffs` is non-empty, stopping at the first such d.
    """
    return any(
        all(n - j * d in member_set for j in range(1, k))
        for d in range(1, n // (k - 1) + 1)
    )


#: m -> (lead of b, lead of a): the witness construction's lead table;
#: the two leads average to m.
LEAD_PAIRS: dict[int, tuple[int, int]] = {
    2: (1, 0),
    3: (2, 1),
    4: (2, 0),
    5: (3, 1),
    6: (3, 0),
    7: (4, 1),
}

#: low digit of n -> (low digit of b, low digit of a); averages likewise.
DIGIT_PAIRS: dict[int, tuple[int, int]] = {
    0: (1, 2),
    1: (1, 1),
    2: (2, 2),
    3: (2, 1),
}


def table_witness(
    n: int, leads: dict = LEAD_PAIRS, digits: dict = DIGIT_PAIRS
) -> tuple[int, int, int, int, int]:
    """(a, b, n, level, m) for n >= 32, one base-4 digit at a time.

    level is the l with 2 * 4**l <= n < 8 * 4**l, m = n // 4**l, and
    each piece of n goes through its pair table.
    """
    d = to_digits(n)
    level = len(d) - 1 if d[-1] >= 2 else len(d) - 2
    m = from_digits(d[level:])
    lead_b, lead_a = leads[m]
    b = from_digits([digits[x][0] for x in d[:level]] + [lead_b])
    a = from_digits([digits[x][1] for x in d[:level]] + [lead_a])
    return a, b, n, level, m


def argmax_full_scan(values: list[int], n_max: int) -> int:
    """argmax of count(n)**2 / n over ALL n in [1, n_max], first on ties.

    `values` must hold the members <= n_max in increasing order; the
    count is carried incrementally, comparisons are exact integers.
    """
    return argmax_full_scan_prefixes(values, n_max)[-1]


def argmax_full_scan_prefixes(values: list[int], n_max: int) -> list[int]:
    """[argmax_full_scan(values, m) for m in range(n_max + 1)] in one pass.

    Entry 0 is a placeholder (0); the scan only ever moves forward, so
    the answer for each m is the best n seen once n = m is reached.
    """
    out = [0]
    best_n, best_c = 1, 0
    running, idx = 0, 0
    for n in range(1, n_max + 1):
        while idx < len(values) and values[idx] <= n:
            running += 1
            idx += 1
        if n == 1:
            best_c = running
        elif running * running * best_n > best_c * best_c * n:
            best_n, best_c = n, running
        out.append(best_n)
    return out


def argmax_branch_and_bound(n_max: int, count) -> int:
    """argmax of count(n)**2 / n over n in [1, n_max], first on ties.

    The branch and bound over A's digit tree that `density.argmax_upto`
    runs, with one count(min(hi, n_max)) call per node where the
    library carries counts down the tree.  A node (prefix, f, ones(f))
    spans [prefix + ones, prefix + 2 * ones].  The counting function is
    passed in, so nothing here is the library's.
    """
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
        c = count(min(prefix + 2 * ones, n_max))
        lhs, rhs = c * c * best_n, best_count * best_count * lo
        if lhs < rhs or (lhs == rhs and lo >= best_n):
            continue
        if not f:
            best_n, best_count = lo, c
            continue
        f -= 1
        stack.append((prefix + (1 << 2 * f), f, ones >> 2))
        stack.append((prefix + (2 << 2 * f), f, ones >> 2))
    return best_n


def contains_k_ap(values: list[int], k: int) -> bool:
    """Definitional scan over every (start, difference) pair."""
    present = set(values)
    for i, x in enumerate(values):
        for y in values[i + 1 :]:
            d = y - x
            if all(x + j * d in present for j in range(2, k)):
                return True
    return False


def stanley_naive(seed: list[int], k: int, count: int) -> list[int]:
    """Greedy Stanley terms computed by re-testing whole sets."""
    terms = list(seed)
    while len(terms) < count:
        candidate = terms[-1] + 1
        while contains_k_ap(sorted(terms + [candidate]), k):
            candidate += 1
        terms.append(candidate)
    return terms
