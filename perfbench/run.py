#!/usr/bin/env python3
"""apcover benchmark: one workload, one seed, checked outputs, JSON metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 2     # every workload

Run from the repository root.  Workloads: witness-sweep, block-scan,
stanley-explore, query-mix (see workloads.py and README.md).  The last
stdout line is {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run.  Lines before it give the run's
metadata, the workload's input properties and every metric under its
descriptive name.  --out FILE also writes the whole record as JSON, for
compare.py.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

SETUP_IMPORTS = 11  # fresh interpreters timed for setup_s; the median is reported
SETUP_PROBE = (
    "from time import perf_counter; import speed; before = speed.calibrate(); "
    "t = perf_counter(); import apcover.cli; t = perf_counter() - t; "
    "print(t * 2 * speed.CAL_REF_S / (before + speed.calibrate()))"
)

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    extra = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env


def _python(args: list[str], stdin: str = "", timeout: float = 60) -> str:
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        cwd=ROOT, env=_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise BenchError(f"{args[0]} exited {proc.returncode}: {tail[0]}")
    return proc.stdout


def measure_setup() -> float:
    """Median seconds to import apcover.cli in a fresh interpreter.

    Each import time is scaled by the calibration loop timed around it
    in the same interpreter (see speed.py).  One untimed import first
    writes the bytecode cache, so every timed one starts from the same
    state.
    """
    _python(["-c", SETUP_PROBE])
    return statistics.median(float(_python(["-c", SETUP_PROBE])) for _ in range(SETUP_IMPORTS))


def revision() -> dict:
    """git revision when there is one, and a digest of the library sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "apcover").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
        rev = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        rev = None
    return {"git": rev, "src_sha256": digest.hexdigest()[:16]}


def benchmark_spec() -> dict:
    """BENCHMARK.json, which names every metric and its unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def use_checkout_paths() -> None:
    """Check the checkout has the sources and make tests/brute.py importable."""
    if not (SRC / "apcover").is_dir() or not (TESTS / "brute.py").is_file():
        raise BenchError(f"apcover sources or tests/brute.py not found under {ROOT}")
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 tamper=None) -> dict:
    """Build, check and run one workload; return the full record.

    `tamper`, when given, edits the spec before it runs (the smoke
    tests use it to feed a wrong expected output).
    """
    use_checkout_paths()
    import brute

    spec = workloads.build(name, seed, brute, tiny=tiny)
    reference.self_check(brute, spec.get("seeds", [[0, 1]]))
    if tamper is not None:
        tamper(spec)
    spec.update(seconds=seconds, trace=int(trace))
    out = json.loads(_python([str(HERE / "worker.py")], json.dumps(spec), timeout=seconds + 150))

    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "backend": out["backend"], "APCOVER_PURE": os.environ.get("APCOVER_PURE"),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        **revision(),
    }
    record = {"meta": meta, "properties": spec["properties"],
              "attempted": out["attempted"], "failed": out["failed"],
              "errors": out["errors"], "rounds": out["rounds"]}
    if trace:
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        record["metrics"] = {k: {"value": out["layers"][k], "unit": u} for k, u in units.items()}
        return record
    legs = out["legs"]
    metrics = {
        "setup_s": {"value": measure_setup(), "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        "primary_per_s": {"value": legs["primary"], "unit": "1/s"},
        "secondary_per_s": {"value": legs["secondary"], "unit": "1/s"},
    }
    named = {"error_rate": [out["failed"] / out["attempted"], "ratio", out["attempted"]]}
    for leg, label in zip(("primary", "secondary"), workloads.LEG_NAMES[name]):
        samples = out["leg_samples"][leg]
        named[label] = [legs[leg], "1/s", samples]
        named[label + ".unscaled"] = [out["raw_legs"][leg], "1/s", samples]
    named["calibration_s"] = [out["calibration_s"], "s", out["rounds"] + 1]
    if "query" in out:
        q = out["query"]
        named["query_p50_us"] = [q["p50_us"], "us", q["samples"]]
        named["query_p99_us"] = [q["p99_us"], "us", q["samples"]]
    record["metrics"] = metrics
    record["named"] = named
    return record


def emit(record: dict) -> None:
    """Human-readable lines for one record (the final JSON line comes after)."""
    meta = record["meta"]
    print("run-meta " + json.dumps(meta, sort_keys=True))
    print("workload-properties " + json.dumps(record["properties"], sort_keys=True))
    for err in record["errors"]:
        print(f"FAILED {err}")
    for name, m in record["metrics"].items():
        print(f"{meta['workload']} {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit, samples) in record.get("named", {}).items():
        print(f"{meta['workload']} {name} {value:.6g} {unit} (samples={samples})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="apcover benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record(s) here")
    args = parser.parse_args(argv)

    names = workloads.LEG_NAMES if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, ValueError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    for record in records:
        emit(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records if len(records) > 1 else records[0], fh, indent=1)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
