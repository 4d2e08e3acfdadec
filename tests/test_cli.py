import argparse
import ast
import errno
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import apcover
import brute
from apcover import _kernels, certify, cli, oracle, witness
from apcover.sequence import BLOCK_SEQUENCE
from apcover.stanley import generate, generate_upto, greedy_next


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_in(capsys):
    code, out, _ = run(capsys, "member", "26")
    assert code == 0
    assert out == "26 in A: level=2 lead=1 low=[2,2]\n"


def test_member_large_level(capsys):
    # a level-2000 member: every low digit comes out through stdout
    level = 2000
    low = [1 + (i * i % 7 < 3) for i in range(level)]
    n = (3 << 2 * level) + brute.from_digits(low)
    code, out, err = run(capsys, "member", str(n))
    digits = ",".join(str(d) for d in brute.to_digits(n)[:level])
    assert (code, err) == (0, "")
    assert out == f"{n} in A: level={level} lead=3 low=[{digits}]\n"


def test_member_out(capsys):
    code, out, _ = run(capsys, "member", "20")
    assert code == 0
    assert out == "20 not in A\n"


def test_count_and_nth(capsys):
    assert run(capsys, "count", "26") == (0, "16\n", "")
    assert run(capsys, "nth", "16") == (0, "26\n", "")
    code, _, err = run(capsys, "nth", "0")
    assert code == 2 and err


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "100")
    assert code == 0
    assert out == "a=6 b=53 n=100 ok\n"
    code, _, err = run(capsys, "witness", "31")
    assert code == 2 and err


def test_witness_invalid(capsys, monkeypatch):
    monkeypatch.setattr(cli, "validate", lambda w: False)
    assert run(capsys, "witness", "100") == (1, "a=6 b=53 n=100 INVALID\n", "")


def test_witness_huge_value(capsys):
    code, out, _ = run(capsys, "witness", str(10**40 + 7))
    assert code == 0
    assert out.endswith("ok\n")
    assert "e+" not in out  # plain decimal only


def test_verify_covering(capsys):
    code, out, _ = run(capsys, "verify-covering", "--from", "32", "--to", "20000")
    assert code == 0
    assert out == "checked=19969 failures=0\n"


def test_verify_covering_far_range(capsys):
    # blocks of up to 4**58 n are each certified by their first n
    code, out, err = run(capsys, "verify-covering", "--from", "32", "--to", str(4**60))
    assert (code, out, err) == (0, f"checked={4**60 - 31} failures=0\n", "")


def test_verify_covering_has_no_jobs_option(capsys):
    code, out, err = run(
        capsys, "verify-covering", "--from", "32", "--to", "100", "--jobs", "1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--jobs" in err


def test_verify_covering_bad_range(capsys):
    code, _, err = run(capsys, "verify-covering", "--from", "10", "--to", "50")
    assert code == 2 and err


def test_verify_covering_counterexample_path(capsys, monkeypatch):
    monkeypatch.setattr(cli, "witness_sweep", lambda lo, hi: [42])
    code, out, _ = run(capsys, "verify-covering", "--from", "32", "--to", "100")
    assert code == 1
    assert "FAIL 42" in out
    assert "failures=1" in out


def test_min_n0(capsys):
    code, out, _ = run(capsys, "min-n0", "--upto", "5000")
    assert code == 0
    assert out == "n0=2 scanned_to=5000\n"


def test_min_n0_frozen_at_10_6(capsys):
    code, out, _ = run(capsys, "min-n0", "--upto", "1000000")
    assert code == 0
    assert out == "n0=2 scanned_to=1000000\n"


def _min_n0_by_scan(upto):
    """min-n0's stdout, its threshold found by the covering scan over A."""
    return f"n0={oracle.min_threshold(BLOCK_SEQUENCE, 3, upto)} scanned_to={upto}\n"


def test_min_n0_matches_scan_to_2000(capsys):
    for upto in range(1, 2001):
        assert run(capsys, "min-n0", "--upto", str(upto)) == (0, _min_n0_by_scan(upto), "")


# run() reads capsys empty after each call, so one capsys serves every example
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2001, 10**5))
def test_min_n0_matches_scan(capsys, upto):
    assert run(capsys, "min-n0", "--upto", str(upto)) == (0, _min_n0_by_scan(upto), "")


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a value out of range must be rejected before any work")


@pytest.mark.parametrize("upto", [cli.MAX_UPTO + 1, 10**30])
def test_min_n0_upto_too_large(capsys, monkeypatch, upto):
    monkeypatch.setattr(cli.oracle, "digit_automaton", _refuse_to_run)
    code, out, err = run(capsys, "min-n0", "--upto", str(upto))
    assert code == 2 and out == ""
    assert err == f"--upto must be at most {cli.MAX_UPTO}\n"


@pytest.mark.parametrize("upto", [cli.MAX_UPTO + 1, 10**30])
def test_explore_problem1_upto_too_large(capsys, monkeypatch, upto):
    monkeypatch.setattr(cli.stanley, "explore", _refuse_to_run)
    code, out, err = run(
        capsys, "explore-problem1", "--order", "3", "--seed", "0,1", "--upto", str(upto)
    )
    assert code == 2 and out == ""
    assert err == f"--upto must be at most {cli.MAX_UPTO}\n"


@pytest.mark.parametrize("upto", [-1, -5, -(10**30)])
def test_explore_problem1_negative_upto(capsys, monkeypatch, upto):
    # the bound is at fault, not the seed
    monkeypatch.setattr(cli.stanley, "explore", _refuse_to_run)
    code, out, err = run(
        capsys, "explore-problem1", "--order", "3", "--seed", "0,1", "--upto", str(upto)
    )
    assert code == 2 and out == ""
    assert err == "--upto must be >= 0\n"


@pytest.mark.parametrize(
    "argv, work, message",
    [
        (["min-n0", "--upto", "0"], (cli.oracle, "digit_automaton"), "--upto must be >= 1"),
        (["argmax", "--upto", "0"], (cli.density, "_search"), "--upto must be >= 1"),
        (
            ["density", "--max-level", "-1"],
            (cli.density, "profile"),
            "--max-level must be nonnegative",
        ),
    ],
    ids=["min-n0", "argmax", "density"],
)
def test_value_below_its_floor(capsys, monkeypatch, argv, work, message):
    monkeypatch.setattr(*work, _refuse_to_run)
    assert run(capsys, *argv) == (2, "", message + "\n")


def test_stanley(capsys):
    code, out, _ = run(
        capsys, "stanley", "--order", "3", "--seed", "0,1", "--count", "8"
    )
    assert code == 0
    assert out == "0 1 3 4 9 10 12 13\n"


@pytest.mark.parametrize(
    "order, seed, count, size, digest",
    [
        ("5", "0,1", "2000", 9480,
         "40af3f1ff8e4b1783f5f1edf2e2c4c6688bbd7865b147f20090d3ce04b179673"),
        ("3", "0", "3000", 18306,
         "18ee082d5d7be8412d1ffea314cc9d98160799fc5bda6f64cd8091bb35e4ad50"),
        ("3", "0,2", "4000", 25306,
         "82c5afa0cd36051753c55944c60d9e0caa882ff40cc3e4ab7d638f872cd7ca07"),
    ],
)
def test_stanley_frozen(capsys, order, seed, count, size, digest):
    # stdout recorded from the bytearray sieve, before prime orders took
    # the closed form and before the sieve moved to bitsets
    code, out, _ = run(
        capsys, "stanley", "--order", order, "--seed", seed, "--count", count
    )
    assert code == 0
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, count, size, digest",
    [
        ("0,2", "30000", 229114,
         "4dafd75965a8b7a3c6e2e425a22ada75f858a56cfd7610e9ed867bb4bdcdbc2e"),
        ("0,4", "2000", 12352,
         "fe0b2c6a6e7c4697efc81c4a5087811cb334bc4bc79acbef4c2761d8a78fddfb"),
        ("0,243", "20000", 149191,
         "0c0e7d27f6a405c6467d931ef621468df8b6796605430b2239e8987aae7d1f8f"),
    ],
)
def test_stanley_frozen_certified_and_sieved(capsys, alarm, seed, count, size, digest):
    # stdout recorded from the bitset sieve, which took 9.6 s for the
    # 0,2 row and 2.6 s for the 0,243 row; 0,2 is now certified as
    # {0, 2} + 3 * S(0) and 0,243 as B + 3^6 * S(0), and 0,4 keeps the
    # sieve
    code, out, _ = run(capsys, "stanley", "--order", "3", "--seed", seed, "--count", count)
    assert code == 0
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("count", [cli.MAX_COUNT + 1, 10**30])
def test_stanley_count_too_large(capsys, monkeypatch, count):
    monkeypatch.setattr(cli.stanley, "generate", _refuse_to_run)
    code, out, err = run(
        capsys, "stanley", "--order", "3", "--seed", "0,1", "--count", str(count)
    )
    assert code == 2 and out == ""
    assert err == f"--count must be at most {cli.MAX_COUNT}\n"


def test_stanley_sparse_seed(capsys):
    # the seed's gap of 10^20 must cost neither memory nor time
    seed = [0, 10**20]
    code, out, _ = run(
        capsys, "stanley", "--order", "3", "--seed", "0,100000000000000000000",
        "--count", "50",
    )
    assert code == 0
    terms = list(seed)
    while len(terms) < 50:
        terms.append(greedy_next(terms, 3))
    assert out == " ".join(map(str, terms)) + "\n"


def test_stanley_chain_seed_stays_small(capsys):
    # 0, then 2^i + 1 up to 2^40 + 1: every gap is narrower than the span
    # below it, so a sieve anchored at 0 would need a 2^40-bit int; stdout
    # recorded from the bytearray sieve
    seed = ",".join(map(str, [0] + [2**i + 1 for i in range(2, 41)]))
    tracemalloc.start()
    code, out, _ = run(
        capsys, "stanley", "--order", "3", "--seed", seed, "--count", "60"
    )
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0 and peak < 2**20, peak
    assert len(out) == 588
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "01737cb2372c9b872096d4618627a0c3cedf0bcb0340671191bd478d846b929a"
    )


def test_stanley_huge_order(capsys):
    # no order-term AP fits in these terms; the per-term filter must stop
    # once no candidate is left instead of running once per order, and at
    # a prime order (the largest below 2^32; 2^61 - 1 keeps the sieve)
    # the closed form must not build a whole level of order - 1 terms
    for order in (10**18, 4294967291, 2**61 - 1):
        tracemalloc.start()
        code, out, _ = run(
            capsys, "stanley", "--order", str(order), "--seed", "0,1", "--count", "20"
        )
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0 and peak < 2**20, (order, peak)
        assert out == " ".join(map(str, range(20))) + "\n"
    code, out, _ = run(
        capsys, "explore-problem1", "--order", str(10**18), "--seed", "0,1",
        "--upto", "1000",
    )
    assert code == 0
    assert out.startswith(
        f"stanley_order={10**18 + 1} terms=1001 max_term=1000 scanned_to=1000 "
        "uncovered=1001\n"
    )


def test_stanley_term_too_large_to_print(capsys):
    # the seed has 4300 digits, Python's int -> str limit; the next term,
    # 10**4300, has one more
    seed = "0," + "9" * 4300
    code, out, err = run(capsys, "stanley", "--order", "3", "--seed", seed, "--count", "3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "too many digits" in err


def test_stanley_bad_seed(capsys):
    code, _, err = run(
        capsys, "stanley", "--order", "3", "--seed", "0,1,2", "--count", "5"
    )
    assert code == 2
    assert "3-term AP" in err


def test_stanley_order_too_small(capsys):
    code, out, err = run(
        capsys, "stanley", "--order", "2", "--seed", "0,1", "--count", "5"
    )
    assert (code, out) == (2, "")
    assert err == "progression length must be >= 3, got 2\n"


def test_stanley_long_seed(capsys):
    # stdout recorded when the seed check was a pair scan; a seed error
    # names no terms
    seed = generate([0, 2], 3, 2000)
    code, out, _ = run(
        capsys, "stanley", "--order", "3", "--seed", ",".join(map(str, seed)),
        "--count", "2010",
    )
    assert code == 0
    assert len(out) == 11414
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8602d94cbd7fb7de9bb91d1f325c302372f041ba908bfd12a37d1b532403cac8"
    )
    bad = seed + [2 * seed[-1] - seed[-2]]
    code, out, err = run(
        capsys, "stanley", "--order", "3", "--seed", ",".join(map(str, bad)),
        "--count", "2010",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 200 and "3-term AP" in err


def test_density_csv_stdout(capsys):
    code, out, err = run(capsys, "density", "--max-level", "0", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count,ratio"
    assert out.splitlines()[1] == "1,1,1"
    assert "argmax: n=4 count=4 ratio=2" in err


def test_density_jsonl_file(capsys, tmp_path):
    path = tmp_path / "density.jsonl"
    code, out, _ = run(
        capsys, "density", "--max-level", "2", "--jsonl", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    rec = json.loads(lines[-1])
    assert rec["ratio_num"] == rec["count"] ** 2
    assert rec["ratio_den"] == rec["n"]


def test_density_out_unwritable(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.density, "profile", _refuse_to_run)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "density", "--max-level", "2", "--out", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--out" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_density_out_write_fails(capsys):
    # /dev/full opens fine; the failure comes on write or close
    code, out, err = run(capsys, "density", "--max-level", "3", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "cannot write --out '/dev/full': No space left on device\n"


_DENSITY_ARGMAX = {
    3: "n=106 count=36 ratio=3.49662910449",
    300: (
        "n=6915859281468321597520679772818601918354077053737394833326095549484421"
        "35235484691066617841491183965714699647768550131530399191845901962551314"
        "4791390189939478435303005669182539475626 count=1018517988167243043134222"
        "8442046890805257341968329681253180702246771906498816683530916986876"
        " ratio=3.87298334621"
    ),
}


# stdout recorded before profile kept its argmax while sampling and
# write_jsonl wrote its lines without json; at level 300 the ints run
# to 183 digits
@pytest.mark.parametrize(
    "fmt, size, digest, max_level",
    [
        ("--csv", 302, "b6de99ca4cff3b3c87868fee0572474158f0a6348b87a370af23df2cb4258006", 3),
        ("--jsonl", 1342, "ddd30b6b5fd706c92fcf62d631bab7c23a885942a87439976c364ca961d7b7e6", 3),
        (
            "--csv", 185_076,
            "af07d09d7fd6cecb73bdf010ba872a21ce0f02c6318f0e6334ec9ed0f6313f79", 300,
        ),
        (
            "--jsonl", 480_547,
            "e7cbd6712b22176b5b444bc50535c0001ec976334403de82a5fd929c967ecaf0", 300,
        ),
    ],
)
def test_density_export_frozen(capsys, fmt, size, digest, max_level):
    code, out, err = run(capsys, "density", "--max-level", str(max_level), fmt)
    assert (code, err) == (0, f"argmax: {_DENSITY_ARGMAX[max_level]}\n")
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_density_byte_identical_runs(capsys):
    _, first, _ = run(capsys, "density", "--max-level", "3", "--csv")
    _, second, _ = run(capsys, "density", "--max-level", "3", "--csv")
    assert first == second


def test_argmax(capsys):
    code, out, _ = run(capsys, "argmax", "--upto", "30")
    assert code == 0
    assert out == "n=26 count=16 ratio=3.13785816221\n"


def _q1(level):
    return cli.density.q_point(1, level).value


_Q1_100 = "2678230073764983792569936820568604337537004989637988058835626"


# stdout recorded before the search carried its counts down the tree:
# q(1, l) - 1, q(1, l) and 4**(l+1) - 1 for l = 5, 20, 100, and three
# bounds in the range perfbench's block-scan draws from
@pytest.mark.parametrize(
    "upto, out",
    [
        pytest.param(_q1(5) - 1, "n=1705 count=155 ratio=3.75378596765", id="q1(5)-1"),
        pytest.param(_q1(5), "n=1706 count=156 ratio=3.7768965097", id="q1(5)"),
        pytest.param(4**6 - 1, "n=1706 count=156 ratio=3.7768965097", id="4^6-1"),
        pytest.param(
            _q1(20) - 1, "n=1832519379625 count=5242875 ratio=3.87297965264",
            id="q1(20)-1",
        ),
        pytest.param(
            _q1(20), "n=1832519379626 count=5242876 ratio=3.87298039136", id="q1(20)"
        ),
        pytest.param(
            4**21 - 1, "n=1832519379626 count=5242876 ratio=3.87298039136", id="4^21-1"
        ),
        pytest.param(
            _q1(100) - 1,
            "n=2678230073764983792569936820568604337537004989637988058835625 "
            "count=6338253001141147007483516026875 ratio=3.87298334621",
            id="q1(100)-1",
        ),
        pytest.param(
            _q1(100),
            f"n={_Q1_100} count=6338253001141147007483516026876 ratio=3.87298334621",
            id="q1(100)",
        ),
        pytest.param(
            4**101 - 1,
            f"n={_Q1_100} count=6338253001141147007483516026876 ratio=3.87298334621",
            id="4^101-1",
        ),
        pytest.param(10**6, "n=436906 count=2556 ratio=3.86693475997", id="10^6"),
        pytest.param(
            2 * 4**13 + 1, "n=111848106 count=40956 ratio=3.87260513672", id="134217729"
        ),
        pytest.param(
            201450049, "n=111848106 count=40956 ratio=3.87260513672", id="201450049"
        ),
        pytest.param(
            2 * 4**14 - 1, "n=447392426 count=81916 ratio=3.87279423858", id="536870911"
        ),
    ],
)
def test_argmax_frozen(capsys, upto, out):
    assert run(capsys, "argmax", "--upto", str(upto)) == (0, out + "\n", "")


@pytest.mark.parametrize("upto", [cli.MAX_ARGMAX + 1, 10**1000])
def test_argmax_upto_too_large(capsys, monkeypatch, upto):
    monkeypatch.setattr(cli.density, "_search", _refuse_to_run)
    code, out, err = run(capsys, "argmax", "--upto", str(upto))
    assert code == 2 and out == ""
    assert err == f"--upto must be at most {cli.MAX_ARGMAX}\n"


def test_argmax_at_ceiling(capsys):
    code, out, _ = run(capsys, "argmax", "--upto", str(cli.MAX_ARGMAX))
    assert code == 0
    q = (1 << 2 * 255) + 2 * (4**255 - 1) // 3  # q(1, 255)
    assert out.startswith(f"n={q} count={5 * 2**255 - 4} ratio=3.87298334")


@pytest.mark.parametrize("level", [cli.MAX_LEVEL + 1, 10**30])
def test_density_max_level_too_large(capsys, monkeypatch, level):
    monkeypatch.setattr(cli.density, "profile", _refuse_to_run)
    code, out, err = run(capsys, "density", "--max-level", str(level))
    assert code == 2 and out == ""
    assert err == f"--max-level must be at most {cli.MAX_LEVEL}\n"


def test_density_values_at_ceiling_fit_int_str_limit():
    # the largest value printed at MAX_LEVEL is count**2 (JSON lines'
    # ratio_num) at lead 4; it must stay below Python's default limit
    # of 4300 decimal digits for int -> str
    count = 8 * 2**cli.MAX_LEVEL - 4
    assert count * count < 10**4299


def test_nth_too_large_to_print(capsys):
    # rank 10**4000 lies at level ~13300: about 8000 decimal digits
    code, out, err = run(capsys, "nth", str(10**4000))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "too many digits" in err


def test_explore_problem1(capsys):
    code, out, _ = run(
        capsys,
        "explore-problem1",
        "--order",
        "3",
        "--seed",
        "0,1",
        "--upto",
        "200",
    )
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("stanley_order=4 ")
    assert "scanned_to=200" in first


#: The n <= 10^6 that the order-5 Stanley sequence from 0,1 leaves
#: without a 4-AP witness, as the scan found them.
EXPLORE_ORDER4_1E6 = [
    0, 1, 2, 5, 6, 10, 25, 27, 30, 31, 50, 125, 135, 150, 152, 155, 156, 250,
    625, 675, 750, 760, 775, 777, 780, 781, 1250, 3125, 3375, 3750, 3800, 3875,
    3885, 3900, 3902, 3905, 3906, 6250, 15625, 16875, 18750, 19000, 19375,
    19425, 19500, 19510, 19525, 19527, 19530, 19531, 31250, 78125, 84375,
    93750, 95000, 96875, 97125, 97500, 97550, 97625, 97635, 97650, 97652,
    97655, 97656, 156250, 390625, 421875, 468750, 475000, 484375, 485625,
    487500, 487750, 488125, 488175, 488250, 488260, 488275, 488277, 488280,
    488281, 781250,
]


@pytest.mark.parametrize(
    "order, upto, expected",
    [
        (
            "3",
            "10000",
            "stanley_order=4 terms=1085 max_term=10000 scanned_to=10000 uncovered=4\n"
            "uncovered: 0 1 5 135\n",
        ),
        (
            "3",
            "100000",
            "stanley_order=4 terms=5474 max_term=99989 scanned_to=100000 uncovered=4\n"
            "uncovered: 0 1 5 135\n",
        ),
        (
            "4",
            "4000",
            "stanley_order=5 terms=1409 max_term=4000 scanned_to=4000 uncovered=37\n"
            "uncovered: 0 1 2 5 6 10 25 27 30 31 50 125 135 150 152 155 156 250 625"
            " 675 750 760 775 777 780 781 1250 3125 3375 3750 3800 3875 3885 3900"
            " 3902 3905 3906\n",
        ),
        (
            "4",
            "20000",
            "stanley_order=5 terms=5633 max_term=20000 scanned_to=20000 uncovered=50\n"
            "uncovered: 0 1 2 5 6 10 25 27 30 31 50 125 135 150 152 155 156 250"
            " 625 675 750 760 775 777 780 781 1250 3125 3375 3750 3800 3875"
            " 3885 3900 3902 3905 3906 6250 15625 16875 18750 19000 19375 19425"
            " 19500 19510 19525 19527 19530 19531\n",
        ),
        (
            "4",
            "100000",
            "stanley_order=5 terms=22529 max_term=100000 scanned_to=100000"
            " uncovered=65\n"
            "uncovered: 0 1 2 5 6 10 25 27 30 31 50 125 135 150 152 155 156 250"
            " 625 675 750 760 775 777 780 781 1250 3125 3375 3750 3800 3875"
            " 3885 3900 3902 3905 3906 6250 15625 16875 18750 19000 19375 19425"
            " 19500 19510 19525 19527 19530 19531 31250 78125 84375 93750 95000"
            " 96875 97125 97500 97550 97625 97635 97650 97652 97655 97656\n",
        ),
        (
            "5",
            "5000",
            "stanley_order=6 terms=1551 max_term=4999 scanned_to=5000 uncovered=55\n"
            "uncovered: 0 1 2 3 6 7 9 11 13 14 17 18 19 34 35 38 49 51 59 62 87"
            " 95 97 103 106 121 123 133 153 182 243 265 301 307 345 355 368 434"
            " 449 459 681 693 725 737 766 1015 1036 1144 1208 1362 1577 1769"
            " 2198 2255 3590\n",
        ),
        (
            "6",
            "3000",
            "stanley_order=7 terms=1703 max_term=3000 scanned_to=3000 uncovered=106\n"
            "uncovered: 0 1 2 3 4 7 8 9 10 14 15 16 21 22 28 49 50 51 52 53 56"
            " 57 58 63 65 70 71 98 100 105 112 114 147 154 196 343 345 350 353"
            " 357 358 359 364 365 371 392 393 394 395 396 399 400 401 406 408"
            " 441 455 457 490 497 686 700 702 735 784 798 800 1029 1078 1372"
            " 2401 2415 2417 2450 2471 2499 2501 2506 2513 2515 2548 2555 2597"
            " 2744 2746 2751 2754 2758 2759 2760 2765 2766 2772 2793 2794 2795"
            " 2796 2797 2800 2801 2802 2807 2809 2842 2856 2858\n",
        ),
        (
            "4",
            "200000",
            "stanley_order=5 terms=45056 max_term=199218 scanned_to=200000"
            " uncovered=66\n"
            "uncovered: " + " ".join(map(str, EXPLORE_ORDER4_1E6[:66])) + "\n",
        ),
        (
            "4",
            "1000000",
            "stanley_order=5 terms=180224 max_term=996093 scanned_to=1000000"
            " uncovered=83\n"
            "uncovered: " + " ".join(map(str, EXPLORE_ORDER4_1E6)) + "\n",
        ),
        (
            "6",
            "30000",
            "stanley_order=7 terms=15024 max_term=30000 scanned_to=30000 uncovered=187\n"
            "uncovered: 0 1 2 3 4 7 8 9 10 14 15 16 21 22 28 49 50 51 52 53 56"
            " 57 58 63 65 70 71 98 100 105 112 114 147 154 196 343 345 350 353"
            " 357 358 359 364 365 371 392 393 394 395 396 399 400 401 406 408"
            " 441 455 457 490 497 686 700 702 735 784 798 800 1029 1078 1372"
            " 2401 2415 2417 2450 2471 2499 2501 2506 2513 2515 2548 2555 2597"
            " 2744 2746 2751 2754 2758 2759 2760 2765 2766 2772 2793 2794 2795"
            " 2796 2797 2800 2801 2802 2807 2809 2842 2856 2858 3087 3185 3199"
            " 3201 3430 3479 4802 4900 4914 4916 5145 5488 5586 5600 5602 7203"
            " 7546 9604 16807 16905 16919 16921 17150 17297 17493 17507 17509"
            " 17542 17591 17605 17607 17836 17885 18179 19208 19222 19224 19257"
            " 19278 19306 19308 19313 19320 19322 19355 19362 19404 19551 19553"
            " 19558 19561 19565 19566 19567 19572 19573 19579 19600 19601 19602"
            " 19603 19604 19607 19608 19609 19614 19616 19649 19663 19665 19894"
            " 19992 20006 20008 21609 22295 22393 22407 22409 24010 24353\n",
        ),
    ],
)
def test_explore_problem1_frozen(capsys, order, upto, expected):
    code, out, _ = run(
        capsys, "explore-problem1", "--order", order, "--seed", "0,1", "--upto", upto
    )
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "seed, upto, expected",
    [
        (
            "1",
            "300000",
            "stanley_order=5 terms=65536 max_term=292969 scanned_to=300000 uncovered=67\n"
            "uncovered: 0 1 2 3 6 7 11 26 28 31 32 51 126 136 151 153 156 157"
            " 251 626 676 751 761 776 778 781 782 1251 3126 3376 3751 3801 3876"
            " 3886 3901 3903 3906 3907 6251 15626 16876 18751 19001 19376 19426"
            " 19501 19511 19526 19528 19531 19532 31251 78126 84376 93751 95001"
            " 96876 97126 97501 97551 97626 97636 97651 97653 97656 97657"
            " 156251\n",
        ),
        (
            "0,3",
            "100000",
            "stanley_order=5 terms=22529 max_term=100000 scanned_to=100000 uncovered=20\n"
            "uncovered: 0 1 2 3 4 5 8 13 28 30 153 155 778 780 3903 3905 19528"
            " 19530 97653 97655\n",
        ),
    ],
)
def test_explore_problem1_frozen_forms(capsys, seed, upto, expected):
    # S(0) moved up by 1, and 0,3 certified as B + 25 * S(0)
    code, out, _ = run(
        capsys, "explore-problem1", "--order", "4", "--seed", seed, "--upto", upto
    )
    assert code == 0
    assert out == expected


def test_explore_problem1_order4_at_ceiling(capsys, alarm):
    # the closed form's digit automaton, not the scan: the scan's time
    # grows with the square of upto and would take about 17 minutes here;
    # and the 1 097 729 terms are counted, not listed
    tracemalloc.start()
    code, out, _ = run(
        capsys, "explore-problem1", "--order", "4", "--seed", "0,1", "--upto", "10000000"
    )
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0 and peak < 2**20, peak
    first, second = out.splitlines()
    uncovered = second.split()[1:]
    assert first == (
        "stanley_order=5 terms=1097729 max_term=10000000 scanned_to=10000000"
        f" uncovered={len(uncovered)}"
    )
    assert uncovered[: len(EXPLORE_ORDER4_1E6)] == list(map(str, EXPLORE_ORDER4_1E6))


def _explore_by_scan(order, seed, upto):
    """explore-problem1's stdout, its uncovered n found by the scan."""
    terms = generate_upto(seed, order + 1, upto)
    gaps = oracle.uncovered_in_range(oracle.FiniteSet(terms), 0, upto, order)
    out = (
        f"stanley_order={order + 1} terms={len(terms)} max_term={terms[-1]} "
        f"scanned_to={upto} uncovered={len(gaps)}\n"
    )
    return out + ("uncovered: " + " ".join(map(str, gaps)) + "\n" if gaps else "")


def _explore(capsys, order, seed, upto):
    text = ",".join(map(str, seed))
    return run(capsys, "explore-problem1", "--order", str(order), "--seed", text,
               "--upto", str(upto))


@pytest.mark.parametrize(
    "order, seed",
    [(4, [0]), (4, [0, 1]), (4, [0, 1, 2, 3, 5]), (6, [0, 1]), (4, [1]), (4, [0, 3])],
)
def test_explore_problem1_closed_form_skips_the_scan(capsys, monkeypatch, order, seed):
    expected = _explore_by_scan(order, seed, 3000)
    certify._proves.cache_clear()
    monkeypatch.setattr(oracle, "uncovered_in_range", _refuse_to_run)
    assert _explore(capsys, order, seed, 3000) == (0, expected, "")


@pytest.mark.parametrize(
    "order, seed", [(3, [0, 1]), (4, [0, 2]), (10, [0, 1])]
)
def test_explore_problem1_other_sets_take_the_scan(capsys, monkeypatch, order, seed):
    # order 3 has no closed form (4 is not prime), 0,2 neither starts it
    # nor is certified, and order 10 (prime 11) is past the automaton's
    # cut-off
    expected = _explore_by_scan(order, seed, 1000)
    calls = []
    scan = oracle.uncovered_in_range

    def counted(seq, lo, hi, k):
        calls.append((lo, hi, k))
        return scan(seq, lo, hi, k)

    monkeypatch.setattr(oracle, "uncovered_in_range", counted)
    assert _explore(capsys, order, seed, 1000) == (0, expected, "")
    assert calls == [(0, 1000, order)]


def test_import_builds_no_digit_automaton():
    # each automaton, A's for min-n0 and the closed forms' for
    # explore-problem1, is built on the first call that needs it, so a
    # process that never runs either command pays nothing for them; only
    # stanley and explore-problem1 import the seed certificates
    code = (
        "import io, contextlib, sys, apcover.cli as cli\n"
        "sizes = lambda: (cli.oracle.digit_automaton.cache_info().currsize,"
        " 'apcover.certify' in sys.modules)\n"
        "print(*sizes())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify-covering', '--from', '32', '--to', '5000'])\n"
        "    cli.main(['min-n0', '--upto', '300'])\n"
        "print(*sizes())\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "0 False\n1 False\n"


def test_explore_problem1_bad_seed(capsys):
    # seed contains a 4-term AP, so the order-4 generation must refuse
    code, _, err = run(
        capsys,
        "explore-problem1",
        "--order",
        "3",
        "--seed",
        "0,1,2,3",
        "--upto",
        "50",
    )
    assert code == 2 and err


def test_explore_problem1_order_too_small(capsys):
    code, _, err = run(
        capsys, "explore-problem1", "--order", "2", "--seed", "0,1", "--upto", "50"
    )
    assert code == 2 and err


def test_usage_errors_exit_2(capsys):
    # argparse's own errors take the one usage-error path: one line, no usage block
    for argv, message in [
        (["nope"], "apcover: error: argument command: invalid choice: 'nope'"),
        ([], "apcover: error: the following arguments are required: command"),
        (["member"], "apcover member: error: the following arguments are required: n"),
        (["member", "xyz"], "apcover member: error: argument n: invalid int value"),
        (
            ["stanley", "--seed", "x", "--order", "3", "--count", "5"],
            "apcover stanley: error: argument --seed: bad seed list: 'x'",
        ),
        (["density", "--max-level", "1", "--csv", "--jsonl"], "not allowed with"),
        (["member", "1", "2"], "apcover: error: unrecognized arguments: 2"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
        assert message in err, argv


def test_bad_seed_message_names_the_bad_part(capsys):
    # a 4000-term seed with one stray character: the message quotes the
    # first part that is not an integer, cut to 40 characters
    seed = ",".join(map(str, generate([0, 2], 3, 4000)))
    for text, quoted in [
        (seed + "x", "'264749x'"),
        ("0,2," + "7" * 90 + "x", "'" + "7" * 40 + "'"),
    ]:
        code, out, err = run(
            capsys, "stanley", "--order", "3", "--seed", text, "--count", "5"
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200, len(err)
        assert err.endswith(f"bad seed list: {quoted}\n")


COMMANDS = (
    "member", "count", "nth", "witness", "verify-covering",
    "min-n0", "stanley", "density", "argmax", "explore-problem1",
)


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: apcover")
    assert "{" + ",".join(COMMANDS) + "}" in out


def test_every_subcommand_has_a_handler():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS) == list(COMMANDS)
    for name, p in sub.choices.items():
        assert callable(p.get_default("run")), name


# a valid call's arguments, each list ending in an int
VALID = {
    "member": ["26"],
    "count": ["5"],
    "nth": ["7"],
    "witness": ["100"],
    "verify-covering": ["--from", "32", "--to", "40"],
    "min-n0": ["--upto", "100"],
    "stanley": ["--order", "3", "--seed", "0,1", "--count", "5"],
    "density": ["--max-level", "3"],
    "argmax": ["--upto", "100"],
    "explore-problem1": ["--order", "3", "--seed", "0,1", "--upto", "50"],
}


def _parse(capsys, parser, argv):
    """What parsing argv gives: its namespace, usage error or exit, and output."""
    try:
        result = ("namespace", vars(parser.parse_args(argv)))
    except cli._Usage as err:
        result = ("usage", str(err))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("name", COMMANDS)
def test_one_subparser_parses_like_all(capsys, name):
    valid = VALID[name]
    for argv, kind in [
        ([name, *valid], "namespace"),
        ([name, *valid[2:]], "usage"),  # its first argument missing
        ([name, *valid[:-1], "x"], "usage"),  # a malformed int
        ([name, *valid, "extra"], "usage"),
        ([name, "-h"], "exit"),
    ]:
        narrow = _parse(capsys, cli._build_parser(name), argv)
        assert narrow == _parse(capsys, cli._build_parser(), argv), argv
        assert narrow[0][0] == kind, (argv, narrow)
    # the last call printed the subcommand's help
    assert narrow[1].startswith(f"usage: apcover {name} "), narrow


def test_no_or_unknown_command_names_every_command(capsys):
    assert run(capsys) == (
        2, "", "apcover: error: the following arguments are required: command\n"
    )
    code, out, err = run(capsys, "bogus")
    assert (code, out) == (2, "")
    prefix = "apcover: error: argument command: invalid choice: 'bogus' (choose from "
    assert err.startswith(prefix)
    # newer Pythons print the choices without quotes
    assert err[len(prefix):].replace("'", "") == ", ".join(COMMANDS) + ")\n"


@pytest.mark.parametrize(
    "argv, built",
    [
        (["count", "5"], 1),
        (["verify-covering", "--from", "32", "--to", "40"], 1),
        (["--help"], 10),
        (["bogus"], 10),
    ],
)
def test_main_builds_only_the_named_subparser(capsys, monkeypatch, argv, built):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli.main(argv)
    assert len(added) == built, added


def test_count_negative_rejected(capsys):
    code, _, err = run(capsys, "count", "-1")
    assert code == 2 and err


def _child_env():
    src = os.path.dirname(os.path.dirname(apcover.__file__))
    return {**os.environ, "PYTHONPATH": src}


def test_import_starts_no_process_machinery():
    # every command pays for what importing the CLI imports; -S keeps
    # site-packages' .pth imports from deciding the result
    heavy = (
        "multiprocessing", "concurrent.futures", "dataclasses", "inspect",
        "fractions", "decimal", "json", "typing",
        "apcover._kernels",  # kept only for the benchmark harness
    )
    code = (
        "import sys, apcover.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def _perfbench_names():
    """(module, name) for every apcover attribute perfbench/worker.py reads."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "worker.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "apcover":
            modules.update((a.asname or a.name, f"apcover.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("apcover."):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names


def test_perfbench_names_resolve():
    # the benchmark harness is run outside this suite; a moved or
    # renamed name must fail here first
    names = _perfbench_names()
    assert {
        ("apcover._kernels", "BACKEND"),
        ("apcover.stanley", "greedy_next"),
        ("apcover.oracle", "FiniteSet"),
    } <= names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), (module, name)
    assert _kernels.uncovered_scan is oracle.uncovered_scan
    assert _kernels.witness_sweep is witness.witness_sweep


def _cli_command(*argv):
    return [sys.executable, "-m", "apcover.cli", *argv]


WRITE_ERROR = "apcover: error: cannot write output: "


#: PYTHONUNBUFFERED: "" lets the child buffer stdout, as it does by
#: default, so unwritten bytes are still held at exit; "1" writes through
BUFFERING = ["", "1"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", BUFFERING)
@pytest.mark.parametrize(
    "argv",
    [["member", "5"], ["density", "--max-level", "3"], ["--help"], ["member", "--help"]],
)
def test_stdout_full_is_one_line_exit_2(argv, unbuffered):
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            _cli_command(*argv),
            env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr == WRITE_ERROR + os.strerror(errno.ENOSPC) + "\n"


@pytest.mark.parametrize("unbuffered", BUFFERING)
def test_stdout_closed_early_is_one_line_exit_2(unbuffered):
    # the reader takes 10 bytes of several MB and closes the pipe
    proc = subprocess.Popen(
        _cli_command("density", "--max-level", "2000", "--jsonl"),
        env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert head == b'{"n": 1, "'
    assert err.decode() == WRITE_ERROR + os.strerror(errno.EPIPE) + "\n"


def test_stdout_write_error_in_process(capsys, monkeypatch):
    # a stream with no file descriptor is reported on and left alone
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    assert cli.main(["member", "5"]) == 2
    assert capsys.readouterr().err == WRITE_ERROR + os.strerror(errno.ENOSPC) + "\n"
