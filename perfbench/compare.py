#!/usr/bin/env python3
"""Compare two records written by `run.py --out FILE`.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric the two share, per workload, with NEW / BASE.
Refuses, with exit status 2, to compare records whose kernel backends
differ (a compiled kernel that silently went missing would otherwise
read as a slowdown) or that mix traced and untraced runs.
"""

from __future__ import annotations

import json
import sys


def _by_workload(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    records = data if isinstance(data, list) else [data]
    return {r["meta"]["workload"]: r for r in records}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (_by_workload(p) for p in argv)
    for name in sorted(base.keys() & new.keys()):
        b, n = base[name], new[name]
        for key in ("backend", "trace"):
            if b["meta"][key] != n["meta"][key]:
                print(f"refusing to compare {name}: {key} {b['meta'][key]!r} "
                      f"vs {n['meta'][key]!r}", file=sys.stderr)
                return 2
        for metric in sorted(b["metrics"].keys() & n["metrics"].keys()):
            old, cur = b["metrics"][metric]["value"], n["metrics"][metric]["value"]
            ratio = f"{cur / old:.3f}" if old else "n/a"
            print(f"{name} {metric} {old:.6g} -> {cur:.6g} "
                  f"{b['metrics'][metric]['unit']} (x{ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
