#!/usr/bin/env python3
"""Time the two hot sweep loops on their acceptance-scale inputs.

    witness sweep    validate the constructed 3-AP witness for every
                     n in [32, --to] (pure Python; there is no compiled
                     witness sweep)
    uncovered scan   brute-force coverage search over the members
                     table up to --scan, on the pure backend and, when
                     it is built, the compiled one

perfbench/ is the measured, seeded benchmark; this script is a quick
look at the two loops.

Usage: python benchmarks/bench_kernels.py [--to 1048576] [--scan 100000]
"""

from __future__ import annotations

import argparse
import time

from apcover._kernels import _pykernels
from apcover.sequence import iter_range

try:
    from apcover._kernels import _ckernels
except ImportError:
    _ckernels = None


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def bench_witness_sweep(limit: int) -> list[tuple[str, float, int]]:
    failures, secs = timed(_pykernels.witness_sweep, 32, limit)
    return [("python", secs, len(failures))]


def bench_uncovered_scan(limit: int) -> list[tuple[str, float, int]]:
    table = bytearray(limit + 1)
    elements = []
    for v in iter_range(1, limit):
        table[v] = 1
        elements.append(v)
    rows = []
    for name, mod in backends():
        uncovered, secs = timed(mod.uncovered_scan, table, elements, 0, limit, 3)
        rows.append((name, secs, len(uncovered)))
    return rows


def backends():
    yield "python", _pykernels
    if _ckernels is not None:
        yield "c", _ckernels


def show(title: str, rows: list[tuple[str, float, int]], counted: str) -> None:
    print(title)
    base = rows[0][1]
    for name, secs, n in rows:
        speedup = "" if secs == base else f"  ({base / secs:.0f}x)"
        print(f"  {name:<7} {secs:8.3f}s  {counted}={n}{speedup}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--to", type=int, default=1 << 20)
    parser.add_argument("--scan", type=int, default=100_000)
    args = parser.parse_args()

    if _ckernels is None:
        print("compiled kernel not built; timing the pure scan only")
        print("(build it with: python setup.py build_ext --inplace)\n")

    show(
        f"witness sweep over [32, {args.to}]",
        bench_witness_sweep(args.to),
        "failures",
    )
    show(
        f"uncovered scan over [0, {args.scan}]",
        bench_uncovered_scan(args.scan),
        "uncovered",
    )


if __name__ == "__main__":
    main()
