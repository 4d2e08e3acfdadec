import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from apcover.sequence import decompose
from apcover.witness import Witness, find_witness, level_for, validate


def test_table_identities():
    # the averaging identities that make a + n = 2b hold digit by digit
    assert sorted(brute.LEAD_PAIRS) == [2, 3, 4, 5, 6, 7]
    for m, (lead_b, lead_a) in brute.LEAD_PAIRS.items():
        assert lead_a + m == 2 * lead_b
        assert 1 <= lead_b <= 4
        assert 0 <= lead_a <= 4
    assert sorted(brute.DIGIT_PAIRS) == [0, 1, 2, 3]
    for d, (v_b, v_a) in brute.DIGIT_PAIRS.items():
        assert v_a + d == 2 * v_b
        assert v_b in (1, 2) and v_a in (1, 2)


@pytest.mark.parametrize("n, level", [(32, 2), (100, 2), (1000, 4)])
def test_level_for_examples(n, level):
    assert level_for(n) == level


def test_level_for_rejects_small_n():
    with pytest.raises(ValueError):
        level_for(31)
    with pytest.raises(ValueError):
        find_witness(31)


@given(st.integers(32, 10**6))
@settings(max_examples=300)
def test_level_for_tiles(n):
    level = level_for(n)
    assert level >= 2
    assert 2 * 4**level <= n < 8 * 4**level
    # neighbours both fail, so the level is unique
    assert not (2 * 4 ** (level + 1) <= n < 8 * 4 ** (level + 1))
    assert not (2 * 4 ** (level - 1) <= n < 8 * 4 ** (level - 1))


@pytest.mark.parametrize(
    "n, a, b",
    [(32, 10, 21), (100, 6, 53), (1000, 362, 681)],
)
def test_find_witness_examples(n, a, b):
    w = find_witness(n)
    assert (w.a, w.b, w.n) == (a, b, n)
    assert validate(w)


def test_witness_record_contract():
    w = find_witness(100)
    assert repr(w) == "Witness(a=6, b=53, n=100, level=2, m=6)"
    assert hash(w) == hash(Witness(6, 53, 100, 2, 6))
    assert Witness(a=6, b=53, n=100) == Witness(6, 53, 100, None, None)
    with pytest.raises(AttributeError):
        w.a = 7
    assert pickle.loads(pickle.dumps(w)) == w


def test_validate_examples():
    assert validate(Witness(a=10, b=21, n=32))
    assert validate(Witness(a=6, b=53, n=100))
    assert not validate(Witness(a=5, b=6, n=100))  # 5 + 100 != 12
    assert not validate(Witness(a=19, b=21, n=23))  # 19 not a member
    assert not validate(Witness(a=21, b=10, n=32))  # out of order


def test_validate_checks_declared_level():
    w = find_witness(100)
    assert validate(w)
    assert not validate(Witness(a=w.a, b=w.b, n=w.n, level=w.level + 1, m=w.m))
    assert not validate(Witness(a=w.a, b=w.b, n=w.n, level=w.level - 1, m=w.m))
    # a = 1 sits two levels below b = 21: a valid AP, but not a construction's
    assert validate(Witness(a=1, b=21, n=41))
    assert not validate(Witness(a=1, b=21, n=41, level=2))
    # non-members fail whatever level is declared
    assert not validate(Witness(a=19, b=21, n=23, level=0))
    assert not validate(Witness(a=19, b=20, n=21, level=-1))


@given(st.integers(32, 2**40))
@settings(max_examples=300)
def test_witness_sound_and_structured(n):
    w = find_witness(n)
    assert validate(w)
    assert w.a + w.n == 2 * w.b
    ea, eb = decompose(w.a), decompose(w.b)
    assert eb.level == w.level
    assert ea.level in (w.level - 1, w.level)
    assert 2 <= w.m <= 7


def test_witness_sweep_small_exhaustive():
    for n in range(32, 5000):
        assert validate(find_witness(n)), n


def test_huge_witness():
    n = 10**500 + 12345
    w = find_witness(n)
    assert validate(w)
    assert w.a + w.n == 2 * w.b


def test_find_witness_matches_tables_exhaustive():
    for n in range(32, 10**5 + 1):
        assert find_witness(n) == brute.table_witness(n), n


@given(st.integers(32, 4**600))
@settings(max_examples=300, deadline=None)
def test_find_witness_matches_tables(n):
    assert find_witness(n) == brute.table_witness(n)


@given(st.integers(100, 1000).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e - 1)))
@settings(max_examples=100, deadline=None)
def test_witness_valid_for_huge_n(n):
    # n of 100..1000 decimal digits
    w = find_witness(n)
    assert validate(w)
    assert w == brute.table_witness(n)


@given(st.integers(2, 6000).flatmap(lambda l: st.integers(2 * 4**l, 8 * 4**l - 1)))
@settings(max_examples=50, deadline=None)
@example(32)
@example(2 * 4**6000)
@example(8 * 4**6000 - 1)
def test_find_witness_fields_to_4_6000(n):
    # the fields by name, built positionally, and the tables' witness
    w = find_witness(n)
    level = level_for(n)
    assert w._asdict() == {
        "a": 2 * w.b - n, "b": w.b, "n": n, "level": level, "m": n >> 2 * level,
    }
    assert w == brute.table_witness(n)
    assert validate(w)
