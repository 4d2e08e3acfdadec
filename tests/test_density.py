import io
import json
import pickle
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from apcover import density
from apcover.density import (
    argmax_upto,
    compare_ratio,
    limit_ratio_sq,
    profile,
    q_point,
    write_csv,
    write_jsonl,
)
from apcover.sequence import count_leq, level_max, level_min


@pytest.mark.parametrize(
    "lead, level, value, count",
    [
        (4, 0, 4, 4),
        (1, 2, 26, 16),
        (2, 3, 170, 44),
    ],
)
def test_q_point_examples(lead, level, value, count):
    q = q_point(lead, level)
    assert (q.value, q.count) == (value, count)


def test_q_point_validation():
    with pytest.raises(ValueError):
        q_point(0, 3)
    with pytest.raises(ValueError):
        q_point(5, 3)
    with pytest.raises(ValueError):
        q_point(1, -1)


def test_q_point_consistent_with_count_leq():
    for lead in (1, 2, 3, 4):
        for level in range(21):
            q = q_point(lead, level)
            assert count_leq(q.value) == q.count


def test_limit_ratio_sq_values():
    assert isinstance(limit_ratio_sq(1), Fraction)
    assert limit_ratio_sq(1) == 15
    assert limit_ratio_sq(2) == Fraction(27, 2)
    assert limit_ratio_sq(3) == Fraction(147, 11)
    assert limit_ratio_sq(4) == Fraction(96, 7)
    # the maximum is at lead 1: 15 > 96/7 > 27/2 > 147/11
    assert (
        limit_ratio_sq(1)
        > limit_ratio_sq(4)
        > limit_ratio_sq(2)
        > limit_ratio_sq(3)
    )
    with pytest.raises(ValueError):
        limit_ratio_sq(0)


def test_compare_ratio_examples():
    assert compare_ratio(26, 25) == 1
    assert compare_ratio(26, 26) == 0
    assert compare_ratio(19, 18) == -1
    with pytest.raises(ValueError):
        compare_ratio(0, 5)


def test_compare_ratio_is_exact():
    # counts 16/16, values 26/27: 16^2*27 > 16^2*26
    assert compare_ratio(26, 27) == 1
    assert compare_ratio(27, 26) == -1


def test_profile_and_argmax_upto_validation():
    with pytest.raises(ValueError, match="max_level"):
        profile(-1)
    with pytest.raises(ValueError, match="n_max"):
        argmax_upto(0)


def test_q_point_cross_checks_count_leq(monkeypatch):
    monkeypatch.setattr(density, "count_leq", lambda n: count_leq(n) + 1)
    with pytest.raises(AssertionError, match="disagrees with count_leq"):
        q_point(1, 5)


def test_profile_level_zero():
    prof = profile(0)
    assert [(s.n, s.count) for s in prof.samples] == [
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
    ]
    assert prof.argmax.n == 4


def test_profile_argmax_at_level_20():
    prof = profile(20)
    assert len(prof.samples) == 84
    assert prof.argmax.n == q_point(1, 20).value
    values = [s.n for s in prof.samples]
    assert values == sorted(values)


def test_density_record_contract():
    q = q_point(1, 2)
    best = profile(0).argmax
    assert repr(q) == "QPoint(lead=1, level=2, value=26, count=16)"
    assert repr(best) == (
        "DensitySample(n=4, count=4, ratio_num=16, ratio_den=4, ratio=2.0)"
    )
    assert hash(q) == hash(q_point(1, 2))
    assert hash(best) == hash(profile(0).argmax)
    for record, field in [(q, "count"), (best, "ratio"), (profile(0), "argmax")]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert pickle.loads(pickle.dumps(record)) == record


def test_profile_sample_fields():
    for s in profile(6).samples:
        assert s.ratio_num == s.count * s.count
        assert s.ratio_den == s.n
        exact = (s.count * s.count / s.n) ** 0.5
        assert abs(s.ratio - exact) <= 1e-12 * exact


@pytest.mark.parametrize(
    "n_max, expected",
    [(1, 1), (4, 4), (30, 26), (1000, 426)],
)
def test_argmax_upto_small(n_max, expected):
    assert argmax_upto(n_max) == expected


@pytest.mark.parametrize("n_max", [4**30, 10**100], ids=["4^30", "10^100"])
def test_argmax_upto_visits_quadratically_many_nodes(monkeypatch, alarm, n_max):
    # 2 * level**2 is a loose ceiling on the nodes whose bound is tested
    # (the next test bounds them linearly), and only the path that
    # straddles n_max calls count_leq; a search that
    # stops pruning blows up exponentially, and the alarm fails it fast
    # instead of letting it run for years
    level = (n_max.bit_length() - 1) // 2
    calls = []

    def counting(n):
        calls.append(n)
        return count_leq(n)

    monkeypatch.setattr(density, "count_leq", counting)
    _, _, nodes = density._search(n_max)
    assert nodes <= 2 * level**2, "search visits too many nodes"
    assert len(calls) <= level + 2, "count_leq called off the straddling path"


@pytest.mark.parametrize(
    "n_max", [4**30, 4**60 - 1, 10**100, 4**256 - 1, 10**200],
    ids=["4^30", "4^60-1", "10^100", "4^256-1", "10^200"],
)
def test_argmax_upto_visits_linearly_many_nodes(alarm, n_max):
    # a node within n_max whose top member beats the rest of it is a
    # leaf: about 8 nodes per level have their bound tested, where
    # the search without that rule tests about 0.5 * level**2
    level = (n_max.bit_length() - 1) // 2
    bound = 8 * (level + 1)
    best, count, nodes = density._search(n_max)
    assert nodes <= bound, "search visits too many nodes"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_top_is_best", lambda hi, f, count: False)
        *without, nodes_without = density._search(n_max)
    assert without == [best, count]
    assert nodes_without > bound, "the bound holds without the rule"


def _boundaries(max_level):
    """q(lead, l) and its neighbours, level_min(l), level_max(l) and
    4**(l+1) - 1 for every l <= max_level."""
    for level in range(max_level + 1):
        for lead in (1, 2, 3, 4):
            q = q_point(lead, level).value
            yield from (q - 1, q, q + 1)
        yield from (level_min(level), level_max(level), 4 ** (level + 1) - 1)


def _matches_reference(n_max):
    n, count, _ = density._search(n_max)
    assert n == brute.argmax_branch_and_bound(n_max, count_leq), n_max
    assert count == count_leq(n), n_max


def test_argmax_upto_matches_reference_at_boundaries():
    for n_max in sorted(set(_boundaries(40)) - {0}) + [10**100]:
        _matches_reference(n_max)


@given(st.integers(1, 4**60 - 1))
@settings(max_examples=200, deadline=None)
@example(4**60 - 1)
def test_argmax_upto_matches_reference(n_max):
    _matches_reference(n_max)


def test_argmax_upto_matches_full_scan_every_n_to_3000():
    full = brute.argmax_full_scan_prefixes(brute.elements_upto(3000), 3000)
    for n_max in range(1, 3001):
        assert argmax_upto(n_max) == full[n_max], n_max


def _member_scan(members, counts):
    """Argmax after each member, first of equal ratios kept; counts[i]
    is the count at members[i], so this is the argmax over all n."""
    best_n, best_c, out = 1, 1, []
    for v, c in zip(members, counts):
        if c * c * best_n > best_c * best_c * v:
            best_n, best_c = v, c
        out.append(best_n)
    return out


_MEMBERS_4_10 = brute.elements_upto(4**10)
_SCAN_4_10 = _member_scan(_MEMBERS_4_10, range(1, len(_MEMBERS_4_10) + 1))


def _member_scan_argmax(n_max):
    return _SCAN_4_10[bisect_right(_MEMBERS_4_10, n_max) - 1]


def test_argmax_upto_at_records_to_4_10():
    for n in sorted(set(_SCAN_4_10)):
        for n_max in (n - 1, n, n + 1):
            if n_max >= 1:
                assert argmax_upto(n_max) == _member_scan_argmax(n_max), n_max


@given(st.integers(1, 4**10 - 1))
@settings(max_examples=300, deadline=None)
@example(4**10 - 1)
def test_argmax_upto_matches_member_scan(n_max):
    assert argmax_upto(n_max) == _member_scan_argmax(n_max)


_MEMBERS_4_5 = brute.elements_upto(4**5)


@given(st.lists(st.sampled_from([0, 1, 2]), min_size=104, max_size=104))
@settings(max_examples=100, deadline=None)
@example([0] * 104)  # counts 1, 1, 1, 2 at members 1..4: 1 and 4 tie
# at N = 153, 17 ties 153, which the search meets first, and wins as the smaller
@example([int(w) for w in "21011110000001012012100010011110212"] + [0] * 69)
def test_argmax_upto_breaks_ties_to_smaller_n(weights):
    # A has no tied maxima within reach of a scan, so give its members
    # small weights: every bound still holds for a nondecreasing count
    # that only rises at members, and equal ratios become common.  The
    # search's one count identity, a node's member count, follows the
    # weights too.  The leaf rule's lemma assumes one count per member,
    # which the weights break, so it is switched off.
    members = _MEMBERS_4_5
    counts = list(accumulate([1, 0, 0, 1] + weights))

    def weighted(n):
        return counts[bisect_right(members, n) - 1] if n >= members[0] else 0

    def node_members(prefix, f):
        ones = ((1 << 2 * f) - 1) // 3
        return weighted(prefix + 2 * ones) - weighted(prefix + ones - 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "count_leq", weighted)
        mp.setattr(density, "_node_members", node_members)
        mp.setattr(density, "_top_is_best", lambda hi, f, count: False)
        for v, best in zip(members, _member_scan(members, counts)):
            assert argmax_upto(v) == best, v
            assert brute.argmax_branch_and_bound(v, weighted) == best, v


def test_argmax_upto_at_q_point_is_the_q_point():
    for level in range(6, 121):
        q = q_point(1, level).value
        assert argmax_upto(q) == q, level


@pytest.mark.parametrize(
    "n_max, level",
    [(4**30, 29), (4**60, 59), (10**100, 165)],
    ids=["4^30", "4^60", "10^100"],
)
def test_argmax_upto_frozen_at_scale(n_max, level):
    assert argmax_upto(n_max) == q_point(1, level).value


def test_argmax_at_1e6_frozen_and_cross_checked():
    n_max = 10**6
    assert argmax_upto(n_max) == 436_906
    assert brute.argmax_full_scan(brute.elements_upto(n_max), n_max) == 436_906


def test_csv_export_golden():
    buf = io.StringIO()
    write_csv(profile(1).samples, buf)
    assert buf.getvalue() == (
        "n,count,ratio\n"
        "1,1,1\n"
        "2,2,1.41421356237\n"
        "3,3,1.73205080757\n"
        "4,4,2\n"
        "6,6,2.44948974278\n"
        "10,8,2.52982212813\n"
        "14,10,2.67261241912\n"
        "18,12,2.82842712475\n"
    )


def test_jsonl_export():
    buf = io.StringIO()
    write_jsonl(profile(0).samples, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first == {
        "n": 1,
        "count": 1,
        "ratio_num": 1,
        "ratio_den": 1,
        "ratio": 1.0,
    }
    assert list(json.loads(lines[3]).items()) == [
        ("n", 4),
        ("count", 4),
        ("ratio_num", 16),
        ("ratio_den", 4),
        ("ratio", 2.0),
    ]


@given(
    st.integers(0, 10**400),
    st.integers(0, 10**400),
    st.integers(0, 10**800),
    st.integers(1, 10**400),
    st.floats(0, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
@example(1, 1, 1, 1, 1.0)
@example(10**20, 3, 9, 10**20, 3e-19)  # repr switches to an exponent
def test_jsonl_line_is_json_dumps(n, count, ratio_num, ratio_den, ratio):
    sample = density.DensitySample(n, count, ratio_num, ratio_den, ratio)
    buf = io.StringIO()
    write_jsonl([sample], buf)
    assert buf.getvalue() == json.dumps(sample._asdict()) + "\n"


def test_exports_byte_stable():
    a, b = io.StringIO(), io.StringIO()
    samples = profile(8).samples
    write_csv(samples, a)
    write_csv(profile(8).samples, b)
    assert a.getvalue() == b.getvalue()
    a, b = io.StringIO(), io.StringIO()
    write_jsonl(samples, a)
    write_jsonl(profile(8).samples, b)
    assert a.getvalue() == b.getvalue()
