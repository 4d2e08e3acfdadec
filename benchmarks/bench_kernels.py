#!/usr/bin/env python3
"""Time the two hot sweep loops on their acceptance-scale inputs.

    witness sweep    validate the constructed 3-AP witness for every
                     n in [32, --to]
    uncovered scan   k=3 covering search over the members of A up to
                     --scan (one big-int bitset scan)

perfbench/ is the measured, seeded benchmark; this script is a quick
look at the two loops.

Usage: python benchmarks/bench_kernels.py [--to 1048576] [--scan 100000]
"""

from __future__ import annotations

import argparse
import time

from apcover import _kernels
from apcover.sequence import iter_range


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--to", type=int, default=1 << 20)
    parser.add_argument("--scan", type=int, default=100_000)
    args = parser.parse_args()

    failures, secs = timed(_kernels.witness_sweep, 32, args.to)
    print(f"witness sweep over [32, {args.to}]")
    print(f"  {secs:8.3f}s  failures={len(failures)}\n")

    table = bytearray(args.scan + 1)
    elements = list(iter_range(1, args.scan))
    for v in elements:
        table[v] = 1
    uncovered, secs = timed(
        _kernels.uncovered_scan, table, elements, 0, args.scan, 3
    )
    print(f"uncovered scan over [0, {args.scan}]")
    print(f"  {secs:8.3f}s  uncovered={len(uncovered)}\n")


if __name__ == "__main__":
    main()
