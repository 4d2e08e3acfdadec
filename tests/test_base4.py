import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apcover.base4 import digit_at, from_digits, to_digits


@pytest.mark.parametrize(
    "n, digits",
    [
        (0, []),
        (7, [3, 1]),
        (100, [0, 1, 2, 1]),
    ],
)
def test_to_digits_examples(n, digits):
    assert to_digits(n) == digits


@pytest.mark.parametrize(
    "digits, n",
    [
        ([], 0),
        ([2, 2], 10),
        ([0, 1, 2, 1], 100),
    ],
)
def test_from_digits_examples(digits, n):
    assert from_digits(digits) == n


def test_digit_at_examples():
    # 26 = 2 + 2*4 + 1*16
    assert digit_at(26, 0) == 2
    assert digit_at(26, 1) == 2
    assert digit_at(26, 2) == 1
    assert digit_at(26, 9) == 0


@given(st.integers(0, 10**6))
@example(0)
@example(1)
@example(4**30)
def test_round_trip(n):
    digits = to_digits(n)
    assert from_digits(digits) == n
    assert all(0 <= d <= 3 for d in digits)


def divmod_digits(n):
    """The definition: repeated division by 4."""
    digits = []
    while n:
        n, d = divmod(n, 4)
        digits.append(d)
    return digits


@settings(max_examples=100, deadline=None)
@given(st.integers(60, 6000).flatmap(lambda l: st.integers(4**l, 4 ** (l + 1) - 1)))
@example(4**60)
@example(4**64 - 1)
@example(1 << 1000)
@example(4**6000 + 3)
def test_to_digits_matches_divmod_huge(n):
    digits = to_digits(n)
    assert digits == divmod_digits(n)
    assert from_digits(digits) == n


@given(st.integers(1, 10**9))
def test_canonical_no_trailing_zero(n):
    assert to_digits(n)[-1] != 0


@given(st.integers(1, 4**40))
def test_length_is_floor_log4_plus_one(n):
    length = len(to_digits(n))
    assert 4 ** (length - 1) <= n < 4**length


@given(st.integers(0, 4**40), st.integers(0, 50))
def test_digit_at_matches_vector(n, i):
    digits = to_digits(n)
    expected = digits[i] if i < len(digits) else 0
    assert digit_at(n, i) == expected


def test_rejections():
    with pytest.raises(ValueError):
        to_digits(-1)
    with pytest.raises(ValueError):
        from_digits([4])
    with pytest.raises(ValueError):
        from_digits([1, -1])
    with pytest.raises(ValueError):
        digit_at(-3, 0)
