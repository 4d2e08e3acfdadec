"""The four workloads: seeded inputs, their reference answers, their properties.

`build(name, seed)` returns a spec the worker executes.  A spec is a
pool of rounds, each a fixed list of calls; the worker runs the rounds
in turn, in a closed loop, until its time is up.  Every call carries the
answer it must produce, computed here from `reference` (never from
apcover), so a run checks each output it times.

A call is a dict:

    kind    "cli" (argv for apcover.cli.main) or a query name
    args    argv list, or the query's integer arguments
    legs    throughput legs the call counts towards
    units   work the call does, in the leg's unit
    expect  exact stdout for "cli"; the answer for a query
    bucket  size bucket of a query's n

Legs: each workload reports two work rates, "primary" and "secondary";
see README.md for which command or query class feeds which.
"""

from __future__ import annotations

import random

import reference

# Workload -> descriptive names of its primary and secondary work rates.
LEG_NAMES = {
    "witness-sweep": ("sweep_n_per_s", "straddle_sweep_n_per_s"),
    "block-scan": ("scan_n_per_s", "argmax_members_per_s"),
    "stanley-explore": ("stanley_terms_per_s", "explore_n_per_s"),
    "query-mix": ("queries_per_s", "huge_queries_per_s"),
}

QUERY_KINDS = ("member", "decompose", "count_leq", "element_at", "witness", "compare_ratio")
BUCKETS = ("small", "mid", "huge")

# Level boundary 2 * 4**10 = 2**21: n below it takes level 9, above it level 10.
SWEEP_BOUNDARY = 2 * 4**10


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"apcover-perfbench/{name}/{seed}")


def _cli(argv, expect, legs=(), units=0):
    return {"kind": "cli", "args": [str(a) for a in argv], "legs": list(legs),
            "units": units, "expect": expect}


def witness_sweep(rng: random.Random, tiny: bool) -> dict:
    """verify-covering over 4096-wide windows near 2**20.

    Each round is one window.  Of every four, three lie inside level 9
    ([2**19, 2**21)) and one straddles the level boundary 2**21; the
    straddling windows alone also feed the secondary leg.
    """
    width = 64 if tiny else 4096
    rounds = []
    for _ in range(2 if tiny else 8):
        for straddle in (False, False, False, True):
            if straddle:
                lo = SWEEP_BOUNDARY - rng.randrange(width // 4, 3 * width // 4)
            else:
                lo = rng.randrange(600_000, SWEEP_BOUNDARY - width)
            hi = lo + width - 1
            legs = ("primary", "secondary") if straddle else ("primary",)
            rounds.append([_cli(["verify-covering", "--from", lo, "--to", hi],
                                f"checked={width} failures=0\n", legs, width)])
    windows = [r[0]["args"] for r in rounds]
    straddling = sum(int(a[2]) < SWEEP_BOUNDARY <= int(a[4]) for a in windows)
    gate = [_cli(["verify-covering", "--from", 32, "--to", 2000], "checked=1969 failures=0\n")]
    props = {"windows": len(windows), "window_width": width,
             "straddle_share": straddling / len(windows)}
    return {"rounds": rounds, "gate": gate, "properties": props}


def block_scan(rng: random.Random, tiny: bool, brute) -> dict:
    """min-n0 --upto N (k=3 scan over sparse A) and argmax --upto M.

    Rounds alternate one min-n0 and one argmax call.  N is drawn
    within 5% of 8000; M lies between 2 * 4**13 and 2 * 4**14, a few
    levels past 4**12.  The scan walks N+1 values of n, argmax walks
    every member up to M by rank.
    """
    top = 2 * 4**(7 if tiny else 14)
    elements = brute.elements_upto(top)
    records = reference.argmax_records(elements)
    rounds = []
    scans = []
    for _ in range(2 if tiny else 8):
        n = rng.randrange(300, 400) if tiny else rng.randrange(7_600, 8_400)
        m = rng.randrange(top // 4, top)
        walked = reference.count_leq(m)
        scans.append((n, reference.count_leq(n)))
        rounds.append([_cli(["min-n0", "--upto", n], f"n0=2 scanned_to={n}\n",
                            ("primary",), n + 1)])
        rounds.append([_cli(["argmax", "--upto", m], reference.argmax_line(records, m),
                            ("secondary",), walked)])
    gate = [
        _cli(["min-n0", "--upto", 300], "n0=2 scanned_to=300\n"),
        _cli(["argmax", "--upto", 1_000_000],
             "n=436906 count=2556 ratio=3.86693475997\n"),
    ]
    if not tiny and reference.argmax_line(records, 1_000_000) != gate[1]["expect"]:
        raise AssertionError("argmax reference disagrees with the frozen acceptance value")
    props = {"scan_members_per_n": sum(c for _, c in scans) / sum(n + 1 for n, _ in scans)}
    return {"rounds": rounds, "gate": gate, "properties": props}


def stanley_seeds(rng: random.Random, count: int) -> list[list[int]]:
    """[0, 1] first, then distinct two-term seeds below 13 of the same growth class.

    Stanley sequences fall into a regular class, which grows like the
    [0, 1] sequence, and an irregular one, and the irregular ones cost
    about twice as much per term.  Only seeds whose order-3 sequence
    has as many terms up to 8000 as the [0, 1] one are kept, so that a
    run's figures do not hinge on how many irregular seeds it drew.
    """
    regular = len(reference.stanley([0, 1], 3, limit=8000))
    seeds = [[0, 1]]
    while len(seeds) < count:
        seed = sorted(rng.sample(range(13), 2))
        if seed not in seeds and len(reference.stanley(seed, 3, limit=8000)) == regular:
            seeds.append(seed)
    return seeds


def _base3_01(count: int) -> list[int]:
    """The numbers whose base-3 digits are all 0 or 1, ascending."""
    return [int(bin(i)[2:], 3) for i in range(count)]


def stanley_explore(rng: random.Random, tiny: bool) -> dict:
    """stanley --order 3 --count C, then explore-problem1 for K = 3 and 4.

    Each drawn seed gives two rounds: one stanley call from it, then
    two explore-problem1 calls from the seed 0,1 (Stanley sequences of
    order 4 and 5, dense sets scanned at k=3 and k=4).  C is 400; U is
    drawn within 5% of 2500 for K=3 and of 2000 for K=4.  Explore keeps
    one seed because its cost per n differs by seed more than the
    regular-class filter evens out.
    """
    count = 40 if tiny else 400
    seeds = stanley_seeds(rng, 2 if tiny else 6)
    rounds = []
    tried = accepted = 0
    scanned = members = 0
    for seed in seeds:
        terms = reference.stanley(seed, 3, count)
        if seed == [0, 1] and terms != _base3_01(count):
            raise AssertionError("reference Stanley [0, 1] disagrees with the base-3 form")
        accepted += count - len(seed)
        tried += terms[-1] - seed[-1]
        text = ",".join(map(str, seed))
        rounds.append([_cli(["stanley", "--order", 3, "--seed", text, "--count", count],
                            " ".join(map(str, terms)) + "\n", ("primary",), count - len(seed))])
        calls = []
        for k, base in ((3, 2500), (4, 2000)):
            upto = rng.randrange(base * 19 // 20, base * 21 // 20)
            if tiny:
                upto //= 20
            dense = reference.stanley([0, 1], k + 1, limit=upto)
            tried += dense[-1] - 1
            accepted += len(dense) - 2
            scanned += upto + 1
            members += len(dense)
            gaps = reference.uncovered(dense, 0, upto, k)
            expect = (f"stanley_order={k + 1} terms={len(dense)} max_term={dense[-1]} "
                      f"scanned_to={upto} uncovered={len(gaps)}\n")
            if gaps:
                expect += "uncovered: " + " ".join(map(str, gaps)) + "\n"
            calls.append(_cli(["explore-problem1", "--order", k, "--seed", "0,1", "--upto", upto],
                              expect, ("secondary",), upto + 1))
        rounds.append(calls)
    gate = [_cli(["stanley", "--order", 3, "--seed", "0,1", "--count", 64],
                 " ".join(map(str, _base3_01(64))) + "\n")]
    props = {"seeds": [",".join(map(str, s)) for s in seeds],
             "scan_members_per_n": members / scanned,
             "stanley_accept_ratio": accepted / tried}
    return {"rounds": rounds, "gate": gate, "properties": props, "seeds": seeds}


def _query_n(rng: random.Random, bucket: str, is_member: bool) -> int:
    """A member or non-member of A of the bucket's size, all n >= 32."""
    level = {"small": rng.randrange(3, 10), "mid": 60, "huge": 500}[bucket]
    if is_member:
        base = 4 * ((1 << level) - 1)  # members below this level
        return reference.element_at(base + 1 + rng.randrange(4 << level))
    while True:
        n = rng.randrange(max(32, 4**level), 4 ** (level + 1))
        if not reference.member(n):
            return n


def query_mix(rng: random.Random, tiny: bool) -> dict:
    """Single library calls on n from three size buckets, half members.

    small: levels 3 to 9 (n < 1.3e6); mid: level 60; huge: level 500.  Each n gets
    all six query kinds; element_at is asked for A(n), compare_ratio
    pairs n with the next n of its bucket.  Huge-bucket queries also
    feed the secondary leg.
    """
    per_bucket = 4 if tiny else 16
    pool = {b: [_query_n(rng, b, i % 2 == 0) for i in range(per_bucket)] for b in BUCKETS}
    queries = []
    for bucket, ns in pool.items():
        legs = ("primary", "secondary") if bucket == "huge" else ("primary",)
        for i, n in enumerate(ns):
            rank = reference.count_leq(n)
            other = ns[(i + 1) % len(ns)]
            dec = reference.decompose(n)
            answers = {
                "member": dec is not None,
                "decompose": None if dec is None else [dec[0], dec[1], list(dec[2])],
                "count_leq": rank,
                "element_at": reference.element_at(rank),
                "witness": True,
                "compare_ratio": reference.compare_ratio(n, other),
            }
            for kind in QUERY_KINDS:
                args = [n, other] if kind == "compare_ratio" else [rank if kind == "element_at" else n]
                queries.append({"kind": kind, "args": args, "legs": list(legs), "units": 1,
                                "expect": answers[kind], "bucket": bucket})
    rng.shuffle(queries)
    all_n = [n for ns in pool.values() for n in ns]
    props = {
        "member_share": sum(map(reference.member, all_n)) / len(all_n),
        "bits": {b: [min(n.bit_length() for n in ns), max(n.bit_length() for n in ns)]
                 for b, ns in pool.items()},
        "queries_per_round": len(queries),
    }
    return {"rounds": [queries], "gate": [], "properties": props}


def build(name: str, seed: int, brute, tiny: bool = False) -> dict:
    """The spec for one workload and seed; `tiny` shrinks every input."""
    rng = _rng(name, seed)
    if name == "witness-sweep":
        spec = witness_sweep(rng, tiny)
    elif name == "block-scan":
        spec = block_scan(rng, tiny, brute)
    elif name == "stanley-explore":
        spec = stanley_explore(rng, tiny)
    elif name == "query-mix":
        spec = query_mix(rng, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(LEG_NAMES)}")
    spec["workload"] = name
    return spec
