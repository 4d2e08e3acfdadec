"""Command-line front end.

Subcommands map one-to-one onto the library modules; every run with
identical arguments produces byte-identical stdout.  Exit codes: 0
success, 1 a verification sweep found a counterexample, 2 usage error
or output that cannot be written.  Every such error, argparse's own
included, is one line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import density, oracle, stanley
from .sequence import BLOCK_SEQUENCE, count_leq, decompose, element_at
from .witness import MIN_N, find_witness, validate, witness_sweep

#: Ceiling on min-n0 and explore-problem1 --upto; larger values are
#: rejected before anything is allocated.  The scan holds a membership
#: table of upto + 1 bytes (10 MB at the ceiling) and makes one pass per
#: member t, at any order, on ints about t bits long.  min-n0 scans A,
#: one shift per member: at the ceiling one process takes 2.3-2.7 s at
#: 43 MB peak RSS.  explore-problem1 first generates a Stanley sequence
#: of order K + 1.  At a prime order from seed 0,1 that is a closed form
#: and the scan takes nearly all of the time, growing with the square of
#: upto: --order 4 takes 0.5-0.8 s at 2 * 10^5 (21 MB) and 10 s at 10^6
#: (42 MB), so about 17 minutes at the ceiling (extrapolated, not run).
#: Other seeds and composite orders K + 1 take the bitset sieve, whose
#: time grows with the term count times upto, as the scan's does:
#: --order 3 from 0,1 takes 0.35 s at 2 * 10^5 (16 MB) and 2.4-2.8 s at
#: 10^6 (21 MB), about half of it generation.  Each figure is a whole
#: CLI process on a 2-core x86-64 host.
MAX_UPTO = 10**7

#: Ceiling on stanley --count, checked before any term is generated.
#: At a prime order, from 0 or 0,1 or any other start of the sequence
#: from 0, the terms come from a closed form: order 3 from 0,1 takes
#: 0.2 s and 30 MB peak RSS at the ceiling.
#: Every other seed and order takes the bitset sieve, whose time grows
#: with count times the largest term and whose memory with the largest
#: term (order 3 from 0,2: 4000 terms take 0.17 s and 16 MB, 10^4 terms
#: 1.0 s and 18 MB, 3 * 10^4 terms 9.3 s and 23 MB, 5 * 10^4 terms 35 s
#: and 38 MB, and 10^5 terms, the ceiling, 210 s and 62 MB, measured as
#: one CLI process on a 2-core x86-64 host).  The seed is checked
#: first, in time about quadratic in its length: 0.3 s for the first
#: 4000 order-3 terms from 0,2.
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


class _Usage(Exception):
    """A usage error; main prints its one-line message and returns 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _Usage(f"{self.prog}: error: {message}")

    def print_help(self, file=None):
        # argparse's own print_help swallows a failed write
        (file or sys.stdout).write(self.format_help())


def _at_most(option: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise _Usage(f"{option} must be at most {ceiling}")


def _decimal(values, what: str) -> str:
    try:
        return " ".join(str(v) for v in values)
    except ValueError:  # more decimal digits than int -> str allows
        raise _Usage(f"{what} has too many digits to print")


def _parse_seed(text: str) -> list[int]:
    seed = []
    for part in filter(None, text.split(",")):
        try:
            seed.append(int(part))
        except ValueError:  # quote the first bad part, not the whole list
            raise argparse.ArgumentTypeError(f"bad seed list: {part[:40]!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apcover",
        description="Explore the base-4 block covering sequence A, "
        "its 3-AP witnesses, counting function and density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("member", _cmd_member, "membership and decomposition of n")
    p.add_argument("n", type=int)

    p = command("count", _cmd_count, "A(n): number of members <= n")
    p.add_argument("n", type=int)

    p = command("nth", _cmd_nth, "the j-th smallest member of A")
    p.add_argument("j", type=int)

    p = command("witness", _cmd_witness, "constructive 3-AP witness for n >= 32")
    p.add_argument("n", type=int)

    p = command(
        "verify-covering",
        _cmd_verify_covering,
        "check the constructed witness for every n in a range",
    )
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)

    p = command(
        "min-n0",
        _cmd_min_n0,
        "largest n <= bound with no 3-AP witness in A (brute force)",
    )
    p.add_argument("--upto", type=int, required=True, help=f"at most {MAX_UPTO}")

    p = command("stanley", _cmd_stanley, "greedy Stanley sequence terms")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--count", type=int, required=True, help=f"at most {MAX_COUNT}")

    p = command("density", _cmd_density, "density samples at the q-points")
    p.add_argument("--max-level", type=int, required=True, help=f"at most {MAX_LEVEL}")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--jsonl", action="store_true")
    p.add_argument("--out", type=str, default=None)

    p = command("argmax", _cmd_argmax, "n <= bound maximizing A(n)/sqrt(n)")
    p.add_argument("--upto", type=int, required=True, help=f"at most {MAX_ARGMAX}")

    p = command(
        "explore-problem1",
        _cmd_explore,
        "does a Stanley sequence of order k+1 cover AP_k? (empirical)",
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


def _cmd_count(args) -> int:
    if args.n < 0:
        raise _Usage("n must be nonnegative")
    print(count_leq(args.n))
    return 0


def _cmd_nth(args) -> int:
    if args.j < 1:
        raise _Usage("rank must be >= 1")
    print(_decimal([element_at(args.j)], "that member"))
    return 0


def _cmd_witness(args) -> int:
    if args.n < MIN_N:
        raise _Usage(f"witness construction needs n >= {MIN_N}")
    w = find_witness(args.n)
    if not validate(w):
        print(f"a={w.a} b={w.b} n={w.n} INVALID")
        return 1
    print(f"a={w.a} b={w.b} n={w.n} ok")
    return 0


def _cmd_verify_covering(args) -> int:
    if args.lo < MIN_N or args.hi < args.lo:
        raise _Usage(f"need {MIN_N} <= from <= to, got [{args.lo}, {args.hi}]")
    failures = witness_sweep(args.lo, args.hi)
    for n in failures:
        print(f"FAIL {n}")
    print(f"checked={args.hi - args.lo + 1} failures={len(failures)}")
    return 1 if failures else 0


def _cmd_min_n0(args) -> int:
    if args.upto < 1:
        raise _Usage("--upto must be >= 1")
    _at_most("--upto", args.upto, MAX_UPTO)
    threshold = oracle.min_threshold(BLOCK_SEQUENCE, 3, args.upto)
    print(f"n0={'none' if threshold is None else threshold} scanned_to={args.upto}")
    return 0


def _cmd_stanley(args) -> int:
    _at_most("--count", args.count, MAX_COUNT)
    try:
        terms = stanley.generate(args.seed, args.order, args.count)
    except ValueError as err:
        raise _Usage(str(err))
    print(_decimal(terms, "a term"))
    return 0


def _cmd_density(args) -> int:
    if args.max_level < 0:
        raise _Usage("--max-level must be nonnegative")
    _at_most("--max-level", args.max_level, MAX_LEVEL)
    writer = density.write_jsonl if args.jsonl else density.write_csv
    if args.out is None:
        prof = density.profile(args.max_level)
        writer(prof.samples, sys.stdout)
        sys.stdout.flush()  # a failed write ends the run before the summary
    else:
        try:  # open, write and close alike: a failed flush shows on close
            with open(args.out, "w") as out:
                prof = density.profile(args.max_level)
                writer(prof.samples, out)
        except OSError as err:
            raise _Usage(f"cannot write --out {args.out!r}: {err.strerror}")
    print(
        f"argmax: n={prof.argmax.n} count={prof.argmax.count} "
        f"ratio={prof.argmax.ratio:.12g}",
        file=sys.stderr,
    )
    return 0


def _cmd_argmax(args) -> int:
    if args.upto < 1:
        raise _Usage("--upto must be >= 1")
    _at_most("--upto", args.upto, MAX_ARGMAX)
    n = density.argmax_upto(args.upto)
    count = count_leq(n)
    ratio = (count * count / n) ** 0.5
    print(f"n={n} count={count} ratio={ratio:.12g}")
    return 0


def _cmd_explore(args) -> int:
    if args.order < 3:
        raise _Usage("--order must be >= 3")
    if args.upto < 0:
        raise _Usage("--upto must be >= 0")
    _at_most("--upto", args.upto, MAX_UPTO)
    order = args.order + 1
    try:
        terms = stanley.generate_upto(args.seed, order, args.upto)
    except ValueError as err:
        raise _Usage(str(err))
    seq = oracle.FiniteSet(terms)
    uncovered = oracle.uncovered_in_range(seq, 0, args.upto, args.order)
    print(
        f"stanley_order={order} terms={len(terms)} max_term={terms[-1]} "
        f"scanned_to={args.upto} uncovered={len(uncovered)}"
    )
    if uncovered:
        print("uncovered: " + " ".join(str(n) for n in uncovered))
    return 0


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device.

    After a failed write stdout still holds the unwritten bytes, and the
    interpreter's flush at exit would fail on them again.  A stream with
    no descriptor (an in-process caller's StringIO) is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            code = args.run(args)
        except SystemExit as exc:  # --help
            code = exc.code
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a failed write shows here, not at exit
        return code
    except _Usage as err:
        print(err, file=sys.stderr)
        return 2
    except OSError as err:  # stdout closed, full or gone
        _discard_stdout()
        print(f"apcover: error: cannot write output: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
