"""Run one workload spec against apcover in a closed loop and time it.

Reads a spec (see workloads.py) as JSON on stdin and writes one JSON
result on stdout.  It runs in a process of its own, so its peak
resident memory is apcover's and the loop's, not the reference
answers'.

Untraced (trace 0): every call goes through a public entry point,
apcover.cli.main(argv) for commands and the library function for
queries, timed one by one with perf_counter.

Traced (trace 1): after each cli.main call the command's pipeline is
replayed stage by stage through the same public functions the CLI
calls, each call wrapped in a span recorded here; queries get one span
per layer call.  The replayed output is rebuilt and checked too.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
from array import array
from time import perf_counter

from apcover import _kernels, cli, density, oracle, sequence, stanley
from apcover.witness import find_witness, validate

import reference
from speed import CAL_REF_S, calibrate


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request, units].

    `request` numbers the benchmark call (a cli.main call or a query)
    that caused the span; `units` is the work the span covered.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self.counters: dict[str, int] = {}

    def open(self, name: str) -> int:
        self.spans.append([name, perf_counter(), None, -1, self.request, 0])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()

    def call(self, name: str, fn, *args, parent: int = -1, units: int = 0, **kw):
        start = perf_counter()
        out = fn(*args, **kw)
        end = perf_counter()
        self.spans.append([name, start, end, parent, self.request, units])
        return out

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), perf_counter() - start


def _witness(n: int):
    w = find_witness(n)
    return w, validate(w)


QUERIES = {
    "member": sequence.member,
    "decompose": sequence.decompose,
    "count_leq": sequence.count_leq,
    "element_at": sequence.element_at,
    "witness": _witness,
    "compare_ratio": density.compare_ratio,
}


def query_ok(kind: str, args: list[int], out, expect) -> bool:
    if kind == "decompose":
        return (None if out is None else [out.level, out.lead, list(out.low)]) == expect
    if kind == "witness":
        w, valid = out
        return valid is expect and w.n == args[0] and reference.witness_ok(w.a, w.b, w.n)
    return out == expect


def _table(seq, hi: int):
    """The membership table and element list oracle.uncovered_in_range builds."""
    table = bytearray(hi + 1)
    elements = []
    for v in seq.iter_upto(hi):
        table[v] = 1
        elements.append(v)
    return table, elements


def _uncovered(tr: Tracer, seq, hi: int, k: int, density_tag: str) -> list[int]:
    """oracle.uncovered_in_range(seq, 0, hi, k), replayed as its two stages."""
    parent = tr.open("oracle.uncovered_in_range")
    table, elements = tr.call("oracle.table_build", _table, seq, hi,
                              parent=parent, units=hi + 1)
    gaps = tr.call(f"kernels.uncovered_scan.{density_tag}_k{k}",
                   _kernels.uncovered_scan, table, elements, 0, hi, k,
                   parent=parent, units=hi + 1)
    tr.close(parent)
    return gaps


def _greedy(tr: Tracer, seed: list[int], k: int, count: int = 0, limit: int | None = None):
    """stanley.generate / generate_upto, replayed one greedy_next call at a time."""
    terms = list(seed)
    while limit is not None or len(terms) < count:
        nxt = tr.call("stanley.greedy_next", stanley.greedy_next, terms, k)
        if limit is not None and nxt > limit:
            break
        terms.append(nxt)
    tr.count("stanley.terms", len(terms) - len(seed))
    tr.count("stanley.candidates", terms[-1] - seed[-1])
    return terms


def replay(tr: Tracer, argv: list[str]) -> str:
    """Re-run a command's pipeline stage by stage; return the stdout it implies."""
    cmd = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "verify-covering":
        lo, hi = int(opt["--from"]), int(opt["--to"])
        fails = tr.call("kernels.witness_sweep", _kernels.witness_sweep, lo, hi,
                        units=hi - lo + 1)
        bad = set(fails)
        for n in range(lo, hi + 1, max(1, (hi - lo + 1) // 16)):
            w = tr.call("witness.find_witness.small", find_witness, n)
            if not tr.call("witness.validate.small", validate, w):
                bad.add(n)
        return f"checked={hi - lo + 1} failures={len(bad)}\n"
    if cmd == "min-n0":
        upto = int(opt["--upto"])
        gaps = _uncovered(tr, sequence.BLOCK_SEQUENCE, upto, 3, "sparse")
        return f"n0={gaps[-1] if gaps else 'none'} scanned_to={upto}\n"
    if cmd == "argmax":
        upto = int(opt["--upto"])
        n = tr.call("density.argmax_upto", density.argmax_upto, upto)
        count = tr.call("sequence.count_leq", sequence.count_leq, n)
        total = sequence.count_leq(upto)
        tr.call("sequence.element_at_walk",
                lambda: [sequence.element_at(j) for j in range(2, total + 1)],
                units=total - 1)
        return f"n={n} count={count} ratio={(count * count / n) ** 0.5:.12g}\n"
    seed = [int(x) for x in opt["--seed"].split(",")]
    order = int(opt["--order"])
    if cmd == "stanley":
        return " ".join(map(str, _greedy(tr, seed, order, count=int(opt["--count"])))) + "\n"
    if cmd == "explore-problem1":
        upto = int(opt["--upto"])
        terms = _greedy(tr, seed, order + 1, limit=upto)
        gaps = _uncovered(tr, oracle.FiniteSet(terms), upto, order, "dense")
        text = (f"stanley_order={order + 1} terms={len(terms)} max_term={terms[-1]} "
                f"scanned_to={upto} uncovered={len(gaps)}\n")
        return text + ("uncovered: " + " ".join(map(str, gaps)) + "\n" if gaps else "")
    raise ValueError(f"no replay for command {cmd!r}")


class Runner:
    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # a flat array, so memory barely grows with the number of queries
        self.query_seconds = array("d")

    def fail(self, call: dict, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{call['kind']} {call['args'][:6]}: {why}"[:300])

    def run(self, call: dict) -> float | None:
        """Execute and check one call.

        Returns its untraced wall time (0 when traced), or None when it
        raised, so that no work is credited for it.
        """
        self.attempted += 1
        self.tracer.request += 1
        kind, args = call["kind"], call["args"]
        try:
            if kind == "cli":
                code, out, seconds = (self.tracer.call("cli.main", run_cli, args)
                                      if self.trace else run_cli(args))
                wrong = code != 0 or out != call["expect"]
                why = f"exit {code}, stdout {out[:80]!r}"
                if self.trace:
                    self.tracer.call("cli.parse", lambda: cli._build_parser().parse_args(args))
                    replayed = replay(self.tracer, args)
                    self.tracer.call("cli.print", print, replayed, end="", file=io.StringIO())
                    if replayed != call["expect"]:
                        wrong, why = True, f"replayed stdout {replayed[:80]!r}"
                if wrong:
                    self.fail(call, why)
                return 0.0 if self.trace else seconds
            if self.trace:
                out = self.traced_query(call)
                seconds = 0.0
            else:
                fn = QUERIES[kind]
                start = perf_counter()
                out = fn(*args)
                seconds = perf_counter() - start
                self.query_seconds.append(seconds)
            if not query_ok(kind, args, out, call["expect"]):
                self.fail(call, f"answer {str(out)[:80]}")
            return seconds
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.fail(call, f"{type(exc).__name__}: {exc}")
            return None

    def traced_query(self, call: dict):
        kind, args, bucket = call["kind"], call["args"], call["bucket"]
        tr = self.tracer
        if kind == "witness":
            w = tr.call(f"witness.find_witness.{bucket}", find_witness, *args)
            return w, tr.call(f"witness.validate.{bucket}", validate, w)
        if kind == "compare_ratio":
            return tr.call("density.compare_ratio", density.compare_ratio, *args)
        # member, decompose, count_leq and element_at all live in apcover.sequence
        return tr.call(f"sequence.{kind}.{bucket}", QUERIES[kind], *args)


def run_loop(spec: dict, seconds: float, trace: bool) -> dict:
    """Run the gate once, then whole rounds until `seconds` have passed.

    The calibration loop (speed.py) runs between rounds.  Each round's
    work rate is reported raw and scaled by the calibration time around
    it over CAL_REF_S, which reads as the rate the reference machine
    would show and stays steady while the host's speed drifts.
    """
    runner = Runner(trace)
    for call in spec["gate"]:
        runner.run(call)
    runner.tracer = Tracer()  # the gate's spans are not part of the measured loop
    rounds = spec["rounds"]
    rates: dict[str, list[float]] = {"primary": [], "secondary": []}
    raw: dict[str, list[float]] = {"primary": [], "secondary": []}
    cal_times = [calibrate()]
    start = perf_counter()
    deadline = start + seconds
    done = 0
    while done == 0 or perf_counter() < deadline:
        work = {"primary": [0, 0.0], "secondary": [0, 0.0]}
        for call in rounds[done % len(rounds)]:
            elapsed = runner.run(call)
            if elapsed is None:
                continue
            for leg in call["legs"]:
                work[leg][0] += call["units"]
                work[leg][1] += elapsed
        cal_times.append(calibrate())
        speed = (cal_times[-2] + cal_times[-1]) / (2 * CAL_REF_S)
        for leg, (units, secs) in work.items():
            if secs > 0:
                raw[leg].append(units / secs)
                rates[leg].append(units / secs * speed)
        done += 1
    wall = perf_counter() - start
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "rounds": done,
        "loop_s": wall,
        "calibration_s": statistics.median(cal_times),
        "backend": _kernels.BACKEND,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["layers"] = layer_metrics(runner.tracer, wall)
    else:
        result["legs"] = {leg: statistics.median(r) for leg, r in rates.items() if r}
        result["raw_legs"] = {leg: statistics.median(r) for leg, r in raw.items() if r}
        result["leg_samples"] = {leg: len(r) for leg, r in rates.items()}
        if runner.query_seconds:
            q = runner.query_seconds
            cuts = statistics.quantiles(q, n=100)
            result["query"] = {"p50_us": cuts[49] * 1e6, "p99_us": cuts[98] * 1e6,
                               "samples": len(q)}
    return result


# metric name -> (span name, how): "call" is seconds per span, "unit"
# seconds per unit of work, "units" the mean units per span.
SPAN_METRICS = {
    "kernels.witness_sweep_us_per_n": ("kernels.witness_sweep", "unit", 1e6),
    "sequence.element_at_us_per_rank": ("sequence.element_at_walk", "unit", 1e6),
    "oracle.table_build_s": ("oracle.table_build", "call", 1),
    "oracle.table_bytes": ("oracle.table_build", "units", 1),
    "oracle.uncovered_in_range_s": ("oracle.uncovered_in_range", "call", 1),
    "stanley.greedy_next_us": ("stanley.greedy_next", "call", 1e6),
    "density.argmax_upto_s": ("density.argmax_upto", "call", 1),
    "density.compare_ratio_us": ("density.compare_ratio", "call", 1e6),
    "cli.main_s": ("cli.main", "call", 1),
}
for _b in ("small", "mid", "huge"):
    for _fn in ("find_witness", "validate"):
        SPAN_METRICS[f"witness.{_fn}_us.{_b}"] = (f"witness.{_fn}.{_b}", "call", 1e6)
    for _fn in ("member", "decompose", "count_leq", "element_at"):
        SPAN_METRICS[f"sequence.{_fn}_us.{_b}"] = (f"sequence.{_fn}.{_b}", "call", 1e6)
for _tag in ("sparse_k3", "dense_k3", "dense_k4"):
    SPAN_METRICS[f"kernels.uncovered_scan_us_per_n.{_tag}"] = (
        f"kernels.uncovered_scan.{_tag}", "unit", 1e6)


def _span_cost() -> float:
    """Seconds one Tracer.call adds over a bare call, median of 9 batches."""
    tr = Tracer()
    noop = int
    costs = []
    for _ in range(9):
        start = perf_counter()
        for _ in range(1000):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(1000):
            tr.call("span-cost", noop)
        costs.append((perf_counter() - start - bare) / 1000)
        tr.spans.clear()
    return max(statistics.median(costs), 0.0)


def layer_metrics(tr: Tracer, wall: float) -> dict:
    totals: dict[str, list] = {}  # name -> [seconds, spans, units]
    covered = 0.0
    for name, start, end, parent, _request, units in tr.spans:
        t = totals.setdefault(name, [0.0, 0, 0])
        t[0] += end - start
        t[1] += 1
        t[2] += units
        if parent == -1:
            covered += end - start
    out = {}
    for metric, (name, how, scale) in SPAN_METRICS.items():
        secs, spans, units = totals.get(name, (0.0, 0, 0))
        if how == "call":
            out[metric] = secs / spans * scale if spans else 0.0
        elif how == "unit":
            out[metric] = secs / units * scale if units else 0.0
        else:
            out[metric] = units / spans if spans else 0.0
    mains = totals.get("cli.main", (0.0, 0, 0))[1]
    own = sum(totals.get(name, (0.0,))[0] for name in ("cli.parse", "cli.print"))
    out["cli.self_s"] = own / mains if mains else 0.0
    terms = tr.counters.get("stanley.terms", 0)
    out["stanley.candidates_per_term"] = (
        tr.counters["stanley.candidates"] / terms if terms else 0.0)
    out["trace.overhead_frac"] = len(tr.spans) * _span_cost() / wall
    out["trace.span_coverage"] = covered / wall
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    result = run_loop(spec, spec["seconds"], bool(spec["trace"]))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
