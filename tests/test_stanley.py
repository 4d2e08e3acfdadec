import ast
import random
from bisect import bisect_right
from contextlib import contextmanager
from itertools import count as naturals, islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from apcover import certify, oracle, stanley
from apcover.stanley import generate, generate_upto, greedy_next

STANLEY_01_16 = [0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40]


def test_greedy_next_examples():
    assert greedy_next([0, 1], 3) == 3
    assert greedy_next([0, 1, 3, 4], 3) == 9
    assert greedy_next([0, 1, 2], 4) == 4


def test_generate_examples():
    assert generate([0, 1], 3, 8) == [0, 1, 3, 4, 9, 10, 12, 13]
    assert generate([0], 3, 4) == [0, 1, 3, 4]
    assert generate([0, 1, 2], 4, 6) == [0, 1, 2, 4, 5, 7]


def test_generate_16_regression():
    assert generate([0, 1], 3, 16) == STANLEY_01_16


def test_generate_matches_naive_oracle():
    assert generate([0, 1], 3, 16) == brute.stanley_naive([0, 1], 3, 16)
    assert generate([0, 2, 3], 3, 12) == brute.stanley_naive([0, 2, 3], 3, 12)
    assert generate([0, 1, 2], 4, 12) == brute.stanley_naive([0, 1, 2], 4, 12)


def test_output_is_ap_free():
    for seed, k in (([0, 1], 3), ([0], 3), ([0, 1, 2], 4), ([1, 5], 3)):
        terms = generate(seed, k, 60)
        assert not brute.contains_k_ap(terms, k)
        assert all(y > x for x, y in zip(terms, terms[1:]))


def test_greedy_minimality_first_200_terms():
    # every integer skipped by the greedy rule would have completed a 3-AP
    terms = generate([0, 1], 3, 200)
    prefix = set(terms[:2])
    for i in range(2, len(terms)):
        for skipped in range(terms[i - 1] + 1, terms[i]):
            assert brute.covered_at(prefix, skipped, 3), skipped
        prefix.add(terms[i])


def test_determinism():
    assert generate([0, 1], 3, 40) == generate([0, 1], 3, 40)


def test_generate_upto():
    terms = generate_upto([0, 1], 3, 40)
    assert terms == STANLEY_01_16
    with pytest.raises(ValueError):
        generate_upto([0, 50], 3, 40)


def test_seed_rejections():
    with pytest.raises(ValueError):
        generate([0, 1, 2], 3, 5)  # seed is itself a 3-AP
    with pytest.raises(ValueError):
        generate([], 3, 5)
    with pytest.raises(ValueError):
        generate([1, 0], 3, 5)
    with pytest.raises(ValueError):
        generate([-2, 0], 3, 5)
    with pytest.raises(ValueError):
        generate([0, 1], 3, 1)  # count below seed length
    # 2 is prime, but the closed form has no term after 0 at p = 2
    for call in (
        lambda: generate([0, 1], 2, 5),
        lambda: generate([0], 2, 3),
        lambda: generate_upto([0], 2, 10),
        lambda: generate([0, 1], 1, 5),
    ):
        with pytest.raises(ValueError, match="progression length must be >= 3"):
            call()


def one_step(seed, k, count):
    """The definition: greedy_next applied once per term."""
    terms = list(seed)
    while len(terms) < count:
        terms.append(greedy_next(terms, k))
    return terms


@st.composite
def stanley_cases(draw):
    """(seed, k, count): a small AP-free seed, often followed by a gap.

    A gap of 10^18 or more keeps the terms after it far above the seed
    terms before it; a gap of 20..200 is one the terms later reach.  A
    chain seed is 0 followed by 2^i + c, each gap at most one wider than
    the span below it, so k-APs lying wholly below the sieve's floor end
    just above the seed.  At k = 12 and 30 the sieve builds residue
    classes of up to 28 entries, and at 12 some cases rebuild them.
    """
    k = draw(st.sampled_from([3, 4, 5, 6, 7, 8, 12, 30]))
    gap = draw(st.sampled_from([None, "near", "far", "chain"]))
    if gap == "chain":
        seed = [0]
        for i in range(draw(st.integers(0, 12))):
            v = 2**i + draw(st.integers(0, 3))
            fits = seed[-1] < v <= 2 * seed[-1] + 1
            if fits and not brute.contains_k_ap(seed + [v], k):
                seed.append(v)
        return seed, k, len(seed) + draw(st.integers(0, 40))
    seed = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=4)))
    if gap is not None:
        step = draw(
            st.integers(20, 200) if gap == "near" else st.integers(10**18, 10**21)
        )
        tail = draw(st.sets(st.integers(0, 30), min_size=1, max_size=3))
        seed += sorted(seed[-1] + step + x for x in tail)
    assume(not brute.contains_k_ap(seed, k))
    return seed, k, len(seed) + draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None)
@given(stanley_cases())
def test_generators_match_definition(case):
    seed, k, count = case
    terms = generate(seed, k, count)
    assert terms == one_step(seed, k, count)
    assert terms == brute.stanley_naive(seed, k, count)
    assert generate_upto(seed, k, terms[-1]) == terms


@pytest.mark.parametrize(
    "seed, k",
    [([0, 1], 3), ([0, 1], 4), ([0, 1], 5), ([0, 4, 5], 3), ([0, 300], 3),
     ([0, 10**20], 3), ([0, 10**20], 4)],
)
def test_generate_upto_limit_at_and_below_a_term(seed, k):
    terms = generate(seed, k, 300)
    for i in (len(seed), 17, 151, 299):
        assert generate_upto(seed, k, terms[i]) == terms[: i + 1]
        assert generate_upto(seed, k, terms[i] - 1) == terms[:i]


@pytest.mark.parametrize(
    "seed, k",
    [([0, 300], 3), ([0, 1, 700], 3), ([0, 2, 500, 503], 4), ([1, 400], 5), ([1, 400], 30)],
)
def test_seed_gap_marks_reached(seed, k):
    # the terms after the gap run past twice its width, so k-APs with
    # terms on both sides of the gap come into play; at k = 30 the sieve
    # rebuilds 28 lists of residue classes each time `top` doubles
    terms = generate(seed, k, 400)
    assert terms[-1] > 2 * seed[-1]
    assert terms == one_step(seed, k, 400)


@pytest.mark.parametrize("k", [3, 4])
def test_run_crosses_two_floors(k):
    # no k-AP ending below 2 * 1000 - 41 straddles the gap under 1000, so
    # the sieve's floor starts at 1000 and drops to 0 once terms pass that
    seed = [0, 1, 40, 41, 1000]
    terms = generate(seed, k, 400)
    assert terms == one_step(seed, k, 400)
    crossed = next(i for i, t in enumerate(terms) if t >= 2 * 1000 - 41)
    assert crossed < 300
    assert terms[: crossed + 5] == brute.stanley_naive(seed, k, crossed + 5)


def test_base3_closed_form_2000_terms():
    # from 0, 1 the order-3 terms are the numbers with base-3 digits 0/1
    terms = generate([0, 1], 3, 2000)
    assert terms == [int(bin(i)[2:], 3) for i in range(2000)]



def no_top_digit(n, p):
    """n has no base-p digit p - 1."""
    while n:
        n, d = divmod(n, p)
        if d == p - 1:
            return False
    return True


def digit_free(p, count):
    """The first count numbers with no base-p digit p - 1."""
    return list(islice((n for n in naturals() if no_top_digit(n, p)), count))


@contextmanager
def sieve_calls():
    """Record the (seed, k) of every call to the sieve `_extend`."""
    calls = []
    extend = stanley._extend

    def counted(seed, k):
        calls.append((seed, k))
        return extend(seed, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stanley, "_extend", counted)
        yield calls


@contextmanager
def sieved_terms():
    """Record every term that a call to the sieve `_extend` yields."""
    terms = []
    extend = stanley._extend

    def recorded(seed, k):
        return (terms.append(t) or t for t in extend(seed, k))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stanley, "_extend", recorded)
        yield terms


def form_of(seed, k, count):
    """The closed form (low, B, m) that the first count terms from seed reach, or None.

    A start of S(0) has one from the outset, and any other seed at order
    3 or 5 one that `certify.watch` proves within those terms.
    """
    forms = stanley._source(seed, k)
    for _ in islice(stanley._terms(seed, k, forms), count - len(seed)):
        pass
    return next(iter(forms), None)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 6),
    st.integers(0, 300),
    st.integers(0, 24),
)
def test_closed_form_matches_sieve_and_naive(p, length, extra, small):
    # every prefix of the order-p sequence from 0 takes the closed form
    seed = digit_free(p, length)
    count = length + extra
    with sieve_calls() as calls:
        terms = generate(seed, p, count)
        short = generate(seed, p, length + small)
    assert calls == []
    sieve = seed + list(islice(stanley._extend(seed, p), extra))
    assert terms == sieve == digit_free(p, count)
    assert short == brute.stanley_naive(seed, p, length + small)
    for i in range(length, count, max(1, extra // 5)):
        assert generate_upto(seed, p, terms[i]) == terms[: i + 1]
        assert generate_upto(seed, p, terms[i] - 1) == terms[:i]


@pytest.mark.parametrize(
    "seed, k",
    [([0, 1, 3], 5), ([0, 1, 2, 3, 4, 6], 7),
     ([0], 4), ([0, 1], 4), ([0, 1, 2, 4], 4), ([0, 1], 6), ([0, 1, 2, 3, 4], 6)],
    # the ids these rows had before [0, 2] and [1] at order 3 moved out
    ids=["seed1-5", "seed2-7", "seed4-4", "seed5-4", "seed6-4", "seed7-6", "seed8-6"],
)
def test_near_miss_seeds_and_composite_orders_keep_the_sieve(seed, k):
    with sieve_calls() as calls:
        terms = generate(seed, k, 120)
        assert generate_upto(seed, k, terms[-1]) == terms
    assert calls == [(seed, k)] * 2
    assert terms == one_step(seed, k, 120)


def dfa_reads(dfa, p, n, pad=0):
    """Whether the low-digit-first DFA accepts n's digits plus pad zeros."""
    step, accept = dfa
    s = 0
    digits = []
    while n:
        n, c = divmod(n, p)
        digits.append(c)
    for c in digits + [0] * pad:
        s = step[s][c]
        if s is None:
            return False
    return accept[s]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 3), st.data())
def test_form_dfa_reads_its_set(p, m, data):
    # any set below p^m, not just a k-AP-free one, so that some residues
    # fill or skip a whole top digit
    below = sorted(data.draw(st.sets(st.integers(0, p**m - 1), min_size=1)))
    members = set(below)
    high = {x for x in range(p**2) if no_top_digit(x, p)}
    dfa = certify._form_dfa(below, p, m)
    for n in range(p ** (m + 2)):
        x, b = divmod(n, p**m)
        expected = b in members and x in high
        assert dfa_reads(dfa, p, n) == dfa_reads(dfa, p, n, pad=2) == expected, n
    # no two states accept the same digit strings; two sets of the form
    # R + p^r S(0), r <= m, that differ do so below p^m
    step, accept = dfa
    futures = set()
    for s in range(len(step)):
        future = []
        for n in range(p ** (m + 1)):
            t, rest = s, n
            for _ in range(m + 1):
                rest, c = divmod(rest, p)
                t = step[t][c] if t is not None else None
            future.append(t is not None and accept[t])
        futures.add(tuple(future))
    assert len(futures) == len(step)


@pytest.fixture
def fresh_verdicts():
    """Clear the cache of proofs before and after, so no verdict leaks."""
    certify._proves.cache_clear()
    yield
    certify._proves.cache_clear()


def sieve_terms(seed, k, count):
    return seed + list(islice(stanley._extend(seed, k), count - len(seed)))


def assert_takes_the_form(seed, k, count=3000, naive=24):
    # the sieve yields no term at or above low + k^(m+1), and none at
    # all for a start of S(0)
    with sieved_terms() as sieved:
        terms = generate(seed, k, count)
        upto = generate_upto(seed, k, terms[-1])
    low, below, m = form_of(seed, k, count)
    assert max(sieved, default=low) < low + k ** (m + 1), seed
    assert terms == upto == sieve_terms(seed, k, count), seed
    assert terms[:naive] == brute.stanley_naive(seed, k, naive), seed


#: b - a for the two-term order-3 seeds a, b below 30 that take a
#: closed form: 1 is a start of the sequence from 0 moved up by a, and
#: the rest are certified as below + 3^m * S(0).
ORDER3_FORM_GAPS = {1, 2, 3, 6, 9, 18, 27}


@pytest.mark.parametrize("gap", sorted(ORDER3_FORM_GAPS))
def test_two_term_order3_seeds_with_a_form_skip_the_sieve(gap):
    for a in range(30 - gap):
        assert_takes_the_form([a, a + gap], 3)


@pytest.mark.parametrize(
    "seed, k", [([0, 2], 3), ([1], 3), ([1], 5), ([2, 3], 5), ([3], 7), ([0, 9], 3)]
)
def test_certified_and_moved_seeds_skip_the_sieve(seed, k):
    # [0, 2] and [0, 9] are certified; [1], [2, 3] and [3] are starts of
    # the sequence from 0 moved up
    assert_takes_the_form(seed, k)


@pytest.mark.parametrize(
    "seed, k, m", [([0, 2], 3, 1), ([0, 9], 3, 3), ([0, 3, 5], 3, 2), ([0, 3, 5, 7], 5, 2)]
)
def test_certificate_takes_the_first_m(seed, k, m, fresh_verdicts):
    # the (B, m) that generate hands over to: the first m with k^m above
    # the seed, and B the terms below k^m; for [0, 3, 5] and [0, 3, 5, 7]
    # B ends at k^m - 1
    low, below, found = form_of(seed, k, 3000)
    assert (low, found) == (0, m)
    assert list(below) == generate_upto(seed, k, k**m - 1)
    assert_takes_the_form(seed, k)


def test_other_two_term_order3_seeds_keep_the_sieve():
    for a in range(30):
        for b in range(a + 1, 30):
            form = form_of([a, b], 3, 400)
            assert (form is not None) == (b - a in ORDER3_FORM_GAPS), (a, b)


@pytest.mark.parametrize("seed, k", [([0, 4], 3), ([0, 5], 3), ([0, 2], 5), ([0, 1, 3], 5)])
def test_irregular_seeds_keep_the_sieve(seed, k, fresh_verdicts):
    with sieve_calls() as calls:
        terms = generate(seed, k, 300)
    assert calls == [(seed, k)]
    assert form_of(seed, k, 300) is None
    assert terms == one_step(seed, k, 300)
    # a proof runs only once the level after B matches: never from
    # [0, 4], once from each of the others, and form_of shows it refuted
    info = certify._proves.cache_info()
    assert info.currsize == info.misses == (seed != [0, 4])


@pytest.mark.parametrize("seed, k", [([0, 2], 3), ([0, 9], 3), ([0, 3, 5, 7], 5)])
def test_repeat_of_a_certified_seed_runs_no_proof(seed, k, fresh_verdicts):
    # the second call sieves B and its first level again, then reads the
    # cached proof
    first = generate(seed, k, 3000)
    misses = certify._proves.cache_info().misses
    with sieved_terms() as sieved:
        again = generate(seed, k, 3000)
    assert again == first == sieve_terms(seed, k, 3000)
    low, below, m = form_of(seed, k, 3000)
    assert certify._proves.cache_info().misses == misses == 1
    assert sieved == first[len(seed) : (k - 1) * len(below)]


def test_certificate_over_budget_falls_back_to_the_sieve(monkeypatch, fresh_verdicts):
    monkeypatch.setattr(certify, "CERTIFY_BUDGET", 1)
    with sieved_terms() as sieved:
        terms = generate([0, 2], 3, 500)
    assert sieved == terms[2:]
    assert terms == sieve_terms([0, 2], 3, 500)
    monkeypatch.undo()
    certify._proves.cache_clear()
    with sieved_terms() as sieved:
        assert generate([0, 2], 3, 500) == terms
    assert sieved == [3, 5]  # {0, 2} + 3 * S(0) holds from 3 on


def test_certificates_keep_caches_bounded(fresh_verdicts):
    # a few hundred distinct seeds, certified or not, agree with the
    # sieve; with 300 more B below 27, all refuted, more distinct proofs
    # run than the cache keeps, which keeps maxsize of them and leaves
    # no automaton in digit_automaton's cache
    automata = oracle.digit_automaton.cache_info().currsize
    seeds = [[0, a, b] for a in range(1, 60) for b in range(a + 1, 60)]
    seeds = [
        seed for seed in seeds
        if not brute.contains_k_ap(seed, 3) and seed != digit_free(3, 3)
    ][:600]
    certified = 0
    for seed in seeds:
        assert generate(seed, 3, 80) == sieve_terms(seed, 3, 80)
        certified += form_of(seed, 3, 80) is not None
    small = [(0, a, b) for a in range(1, 27) for b in range(a + 1, 27)][:300]
    assert all(certify._proves(below, 3, 3, certify.CERTIFY_BUDGET) is False for below in small)
    info = certify._proves.cache_info()
    assert len(seeds) == 600 and certified
    assert info.misses > info.maxsize == info.currsize
    assert oracle.digit_automaton.cache_info().currsize == automata


def asked_proofs(seed, k, count):
    """`form_of`, and {m: B} for each proof that its terms ask for."""
    asked = {}
    proves = certify._proves

    def recorded(below, p, m, budget):
        asked[m] = below
        return proves(below, p, m, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_proves", recorded)
        return form_of(seed, k, count), asked


@pytest.mark.parametrize(
    "seed, k, m, budget",
    [([0, 125], 5, 4, 279), ([0, 2 * 3**8], 3, 10, 277), ([0, 2 * 3**9], 3, 11, 306),
     ([0, 2 * 3**9], 3, 12, 312), ([0, 625], 5, 5, 420)],
    ids=["0,125-5", "0,2*3^8-3", "0,2*3^9-3-m11", "0,2*3^9-3-m12", "0,625-5"],
)
def test_largest_proofs_keep_their_budgets(seed, k, m, budget, fresh_verdicts):
    # the fewest states each proves in: the first two fit CERTIFY_BUDGET,
    # the rest give up there and their seeds keep the sieve
    form, asked = asked_proofs(seed, k, (k - 1) ** (m + 1) + 100)
    proves = certify._proves.__wrapped__
    assert proves(asked[m], k, m, budget) is True
    assert proves(asked[m], k, m, budget - 1) is None
    assert (budget <= certify.CERTIFY_BUDGET) == (form == (0, asked[m], m))


@pytest.mark.parametrize("seed", [[0, 2], [0, 1, 3]], ids=["0,2", "0,1,3"])
def test_order5_refutations_fit_the_budget(seed, fresh_verdicts):
    # one proof runs, and its whole covering automaton fits the budget
    form, asked = asked_proofs(seed, 5, 300)
    ((m, below),) = asked.items()
    assert form is None
    assert certify._proves.__wrapped__(below, 5, m, certify.CERTIFY_BUDGET) is False


def test_certify_imports_nothing_from_stanley():
    # certify owns the forms and stanley imports it, never the reverse
    tree = ast.parse(Path(certify.__file__).read_text())
    imported = [
        name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
    ]
    assert "oracle" in imported
    assert not [name for name in imported if "stanley" in name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 6]), st.sets(st.integers(0, 40), min_size=1, max_size=6))
def test_composite_orders_always_sieve(k, values):
    seed = sorted(values)
    assume(not brute.contains_k_ap(seed, k))
    with sieve_calls() as calls:
        generate(seed, k, len(seed) + 5)
    assert calls == [(seed, k)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_base_seed_never_reaches_the_sieve(p):
    with sieve_calls() as calls:
        terms = generate([0, 1], p, 500)
        upto = generate_upto([0, 1], p, 1000)
    assert calls == []
    assert terms == digit_free(p, 500)
    assert upto == [n for n in range(1001) if no_top_digit(n, p)]


#: Certified order-5 seeds, B their terms below 25 and m = 2.
CERTIFIED_ORDER5 = [[0, 3], [0, 4, 5], [0, 1, 5], [0, 2, 5, 6], [0, 1, 3, 5], [0, 5, 6, 8]]


@st.composite
def closed_forms(draw):
    """(seed, p): a start of S(0) at order 5 or 7, or a certified order-5 seed, moved up."""
    p = draw(st.sampled_from([5, 7]))
    if p == 5 and draw(st.booleans()):
        seed = draw(st.sampled_from(CERTIFIED_ORDER5))
    else:
        seed = digit_free(p, draw(st.integers(1, 8)))
    low = draw(st.sampled_from([0, 1, 2, 7, 30, 999]))
    return [low + t for t in seed], p


@settings(max_examples=100, deadline=None)
@given(closed_forms(), st.integers(0, 6000))
def test_explore_automaton_matches_scan(form, upto):
    # the uncovered n of a closed form come from the digit automaton; the
    # scan over the explicit terms is the reference
    seed, p = form
    assume(seed[-1] <= upto)
    assert form_of(seed, p, 3000) is not None
    terms = generate_upto(seed, p, upto)
    expected = oracle.uncovered_in_range(oracle.FiniteSet(terms), 0, upto, p - 1)
    assert stanley.explore(seed, p - 1, upto) == (len(terms), terms[-1], expected)


@pytest.mark.parametrize("p", [5, 7])
def test_digit_automaton_matches_brute(p):
    # n is uncovered iff no difference gives a full (p-1)-AP witness
    members = {n for n in range(401) if no_top_digit(n, p)}
    uncovered = [n for n in range(401) if not brute.all_cover_diffs(members, n, p - 1)]
    automaton = oracle.digit_automaton(certify._form_dfa((0,), p, 0), p, p - 1)
    assert automaton.uncovered(400) == uncovered


@pytest.mark.parametrize(
    "seed, p",
    [([0], 3), ([0], 5), ([0], 7), ([0, 2], 3), ([4, 13], 3), ([0, 3], 5), ([2], 5),
     ([9, 12, 13, 14], 5), ([3], 7)],
    ids=["3", "5", "7", "0,2-3", "4,13-3", "0,3-5", "2-5", "9,12,13,14-5", "3-7"],
)
def test_count_no_top_digit_matches_terms(seed, p):
    # S(0), certified forms and both moved up, counted by `_count_form`
    source = form_of(seed, p, 3000)
    terms = generate_upto(seed, p, 10**6)
    rng = random.Random(p)
    low = seed[0]
    for upto in [*range(low, 3000), *(rng.randrange(low, 10**6) for _ in range(300)), 10**6]:
        i = bisect_right(terms, upto)
        assert certify._count_form(source, p, upto) == (i, terms[i - 1]), upto


@pytest.mark.parametrize(
    "seed, k", [([0, 2], 3), ([0, 9], 3), ([0, 3, 5], 3), ([0, 3], 5), ([0, 3, 5, 7], 5)]
)
def test_form_matches_definition(seed, k):
    low, below, m = form_of(seed, k, 3000)
    assert list(islice(certify._form(below, k, m), 400)) == one_step(seed, k, 400)


@pytest.mark.parametrize(
    "seed, k, upto, message",
    [([], 4, 10, "non-empty"), ([-1, 0], 4, 10, "nonnegative"), ([0, 1], 1, 10, "length"),
     ([0, 1, 2, 3, 4], 4, 10, "5-term AP"), ([0, 1, 2, 3, 5], 4, 4, "exceeds limit")],
)
def test_explore_checks_the_seed_first(seed, k, upto, message):
    # the closed-form path counts terms instead of generating them, but
    # refuses the same seeds with the same message as generation
    for call in (stanley.explore, lambda seed, k, upto: generate_upto(seed, k + 1, upto)):
        with pytest.raises(ValueError, match=message):
            call(seed, k, upto)


def test_seed_check_skips_closed_form_prefixes(monkeypatch):
    # a prefix of the closed form is p-AP-free by its proof, so only
    # other seeds pay for the quadratic has_k_ap
    calls = []
    has_k_ap = stanley.has_k_ap

    def counted(values, k):
        calls.append(k)
        return has_k_ap(values, k)

    monkeypatch.setattr(stanley, "has_k_ap", counted)
    base3 = [int(bin(i)[2:], 3) for i in range(16_010)]
    seed = base3[:16_000]
    assert generate(seed, 3, 16_010) == base3
    assert generate_upto(seed, 3, base3[-1]) == base3
    assert calls == []
    assert generate([0, 2], 3, 4) == [0, 2, 3, 5]
    assert calls == [3]


@pytest.mark.parametrize(
    "seed, k, m",
    [*(([0, 3**j], 3, j + 1) for j in range(1, 9)),
     ([0, 2], 3, 1), *(([0, 2 * 3**j], 3, j + 2) for j in range(1, 9)),
     *(([0, 5**j], 5, j + 1) for j in range(1, 4))],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, list) else str(v),
)
def test_regular_families_certify(seed, k, m, fresh_verdicts):
    # Odlyzko and Stanley's S(0, 3^j) and S(0, 2 * 3^j), and [0, 5^j] at
    # order 5, all prove within CERTIFY_BUDGET: at the first m with k^m
    # above the seed, but one later for 2 * 3^j, j >= 1, whose first
    # level does not match; [0, 1] is a start of S(0)
    count = (k - 1) ** (m + 1) + 100  # past the level that hands over
    assert generate(seed, k, count) == sieve_terms(seed, k, count)
    assert form_of(seed, k, count)[2] == m
