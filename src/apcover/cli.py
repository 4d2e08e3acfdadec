"""Command-line front end.

Subcommands map one-to-one onto the library modules; every run with
identical arguments produces byte-identical stdout.  Exit codes: 0
success, 1 a verification sweep found a counterexample, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import _kernels, density, oracle, stanley
from .sequence import BLOCK_SEQUENCE, count_leq, decompose, element_at
from .witness import MIN_N, find_witness, validate

#: Ceiling on verify-covering --jobs; larger values are rejected.  The
#: sweep always runs in one process: --jobs is accepted so that existing
#: command lines keep working, and changes nothing.
MAX_JOBS = 64

#: Ceiling on min-n0 and explore-problem1 --upto; larger values are
#: rejected before anything is allocated.  The scan holds a membership
#: table of upto + 1 bytes (10 MB at the ceiling).  min-n0 scans A with
#: one shift per member: at the ceiling one process takes 3.9 s at
#: 51 MB peak RSS.  explore-problem1 at --order 4 and beyond scans with
#: one pass per difference, growing with the square of upto, after a
#: Stanley generation that grows faster still: from seed 0,1, --order 4
#: takes 9.4 min at 10^6 (44 MB) and does not finish within 15 min at
#: 10^7.
MAX_UPTO = 10**7

#: Ceiling on stanley --count, checked before any term is generated.
#: Time grows with the square of count and the sieve with the largest
#: term (order 3 from 0,1: 4000 terms take under 1 s and 20 MB peak
#: RSS, 10^4 terms about 4 s and 24 MB, 3 * 10^4 terms 35 s and 39 MB).
MAX_COUNT = 10**5

#: Ceiling on argmax --upto, checked before the search starts.  The
#: search time grows about with the cube of the digit count.  Below
#: 4**256 (level 255) it took 0.14-0.37 s over q(1, l), q(1, l) - 1,
#: q(2, l) - 1, q(4, l), level_max(l), 4**(l+1) - 1 and random bounds;
#: 10**200 takes 0.54 s and 10**1000 56 s.
MAX_ARGMAX = 4**256

#: Ceiling on density --max-level, checked before any sample is made.
#: At 4000 levels the CLI takes 2.0 s (CSV) and 3.5 s (JSON lines) at
#: 43 MB peak RSS, growing with the square of the level; every printed
#: value stays under 2500 decimal digits, far from the 4300 digits past
#: which Python refuses to print an int (reached near level 7140).
MAX_LEVEL = 4000


def _parse_seed(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apcover",
        description="Explore the base-4 block covering sequence A, "
        "its 3-AP witnesses, counting function and density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="membership and decomposition of n")
    p.add_argument("n", type=int)

    p = sub.add_parser("count", help="A(n): number of members <= n")
    p.add_argument("n", type=int)

    p = sub.add_parser("nth", help="the j-th smallest member of A")
    p.add_argument("j", type=int)

    p = sub.add_parser("witness", help="constructive 3-AP witness for n >= 32")
    p.add_argument("n", type=int)

    p = sub.add_parser(
        "verify-covering",
        help="check the constructed witness for every n in a range",
    )
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=f"accepted for compatibility (1..{MAX_JOBS}); the sweep runs "
        "in one process",
    )

    p = sub.add_parser(
        "min-n0",
        help="largest n <= bound with no 3-AP witness in A (brute force)",
    )
    p.add_argument("--upto", type=int, required=True, help=f"at most {MAX_UPTO}")

    p = sub.add_parser("stanley", help="greedy Stanley sequence terms")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--count", type=int, required=True, help=f"at most {MAX_COUNT}")

    p = sub.add_parser("density", help="density samples at the q-points")
    p.add_argument(
        "--max-level", type=int, required=True, help=f"at most {MAX_LEVEL}"
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--jsonl", action="store_true")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("argmax", help="n <= bound maximizing A(n)/sqrt(n)")
    p.add_argument(
        "--upto", type=int, required=True, help=f"at most {MAX_ARGMAX}"
    )

    p = sub.add_parser(
        "explore-problem1",
        help="does a Stanley sequence of order k+1 cover AP_k? (empirical)",
    )
    p.add_argument("--order", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--upto", type=int, required=True, help=f"at most {MAX_UPTO}")

    return parser


def _cmd_member(args) -> int:
    e = decompose(args.n)
    if e is None:
        print(f"{args.n} not in A")
    else:
        low = ",".join(str(d) for d in e.low)
        print(f"{args.n} in A: level={e.level} lead={e.lead} low=[{low}]")
    return 0


def _cmd_witness(args) -> int:
    if args.n < MIN_N:
        print(f"witness construction needs n >= {MIN_N}", file=sys.stderr)
        return 2
    w = find_witness(args.n)
    if not validate(w):
        print(f"a={w.a} b={w.b} n={w.n} INVALID")
        return 1
    print(f"a={w.a} b={w.b} n={w.n} ok")
    return 0


def _cmd_verify_covering(args) -> int:
    if args.lo < MIN_N or args.hi < args.lo:
        print(
            f"need {MIN_N} <= from <= to, got [{args.lo}, {args.hi}]",
            file=sys.stderr,
        )
        return 2
    if not 1 <= args.jobs <= MAX_JOBS:
        print(f"--jobs must be in 1..{MAX_JOBS}", file=sys.stderr)
        return 2
    failures = _kernels.witness_sweep(args.lo, args.hi)
    for n in failures:
        print(f"FAIL {n}")
    print(f"checked={args.hi - args.lo + 1} failures={len(failures)}")
    return 1 if failures else 0


def _cmd_min_n0(args) -> int:
    threshold = oracle.min_threshold(BLOCK_SEQUENCE, 3, args.upto)
    print(f"n0={'none' if threshold is None else threshold} scanned_to={args.upto}")
    return 0


def _cmd_stanley(args) -> int:
    if _too_large("--count", args.count, MAX_COUNT):
        return 2
    try:
        terms = stanley.generate(args.seed, args.order, args.count)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    try:
        text = " ".join(str(t) for t in terms)
    except ValueError:  # more decimal digits than int -> str allows
        print("a term has too many digits to print", file=sys.stderr)
        return 2
    print(text)
    return 0


def _cmd_density(args) -> int:
    if args.max_level < 0:
        print("--max-level must be nonnegative", file=sys.stderr)
        return 2
    if _too_large("--max-level", args.max_level, MAX_LEVEL):
        return 2
    try:
        out = None if args.out is None else open(args.out, "w")
    except OSError as err:
        print(f"cannot write --out {args.out!r}: {err.strerror}", file=sys.stderr)
        return 2
    prof = density.profile(args.max_level)
    writer = density.write_jsonl if args.jsonl else density.write_csv
    if out is None:
        writer(prof.samples, sys.stdout)
    else:
        with out:
            writer(prof.samples, out)
    print(
        f"argmax: n={prof.argmax.n} count={prof.argmax.count} "
        f"ratio={prof.argmax.ratio:.12g}",
        file=sys.stderr,
    )
    return 0


def _cmd_argmax(args) -> int:
    if args.upto < 1:
        print("--upto must be >= 1", file=sys.stderr)
        return 2
    if _too_large("--upto", args.upto, MAX_ARGMAX):
        return 2
    n = density.argmax_upto(args.upto)
    count = count_leq(n)
    ratio = (count * count / n) ** 0.5
    print(f"n={n} count={count} ratio={ratio:.12g}")
    return 0


def _too_large(option: str, value: int, ceiling: int) -> bool:
    if value > ceiling:
        print(f"{option} must be at most {ceiling}", file=sys.stderr)
        return True
    return False


def _cmd_explore(args) -> int:
    if args.order < 3:
        print("--order must be >= 3", file=sys.stderr)
        return 2
    if _too_large("--upto", args.upto, MAX_UPTO):
        return 2
    order = args.order + 1
    try:
        terms = stanley.generate_upto(args.seed, order, args.upto)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    seq = oracle.FiniteSet(terms)
    uncovered = oracle.uncovered_in_range(seq, 0, args.upto, args.order)
    print(
        f"stanley_order={order} terms={len(terms)} max_term={terms[-1]} "
        f"scanned_to={args.upto} uncovered={len(uncovered)}"
    )
    if uncovered:
        print("uncovered: " + " ".join(str(n) for n in uncovered))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "member":
        return _cmd_member(args)
    if args.command == "count":
        if args.n < 0:
            print("n must be nonnegative", file=sys.stderr)
            return 2
        print(count_leq(args.n))
        return 0
    if args.command == "nth":
        if args.j < 1:
            print("rank must be >= 1", file=sys.stderr)
            return 2
        try:
            text = str(element_at(args.j))
        except ValueError:  # more decimal digits than int -> str allows
            print("that member has too many digits to print", file=sys.stderr)
            return 2
        print(text)
        return 0
    if args.command == "witness":
        return _cmd_witness(args)
    if args.command == "verify-covering":
        return _cmd_verify_covering(args)
    if args.command == "min-n0":
        if args.upto < 1:
            print("--upto must be >= 1", file=sys.stderr)
            return 2
        if _too_large("--upto", args.upto, MAX_UPTO):
            return 2
        return _cmd_min_n0(args)
    if args.command == "stanley":
        return _cmd_stanley(args)
    if args.command == "density":
        return _cmd_density(args)
    if args.command == "argmax":
        return _cmd_argmax(args)
    if args.command == "explore-problem1":
        return _cmd_explore(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
