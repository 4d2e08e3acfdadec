"""Exact base-4 digit codec for unbounded nonnegative integers.

Digit vectors are little-endian (index i holds the coefficient of 4**i)
and canonical: no trailing zero digit, the empty list encodes 0.
"""

from __future__ import annotations


#: byte value -> its four base-4 digits, least significant first.
_BYTE_DIGITS = [(b & 3, b >> 2 & 3, b >> 4 & 3, b >> 6) for b in range(256)]


def to_digits(n: int) -> list[int]:
    """Canonical little-endian base-4 digits of n (empty for 0).

    Read four digits per byte of n's little-endian bytes, so the cost is
    linear in the digit count.
    """
    if n < 0:
        raise ValueError(f"natural number required, got {n}")
    raw = n.to_bytes((n.bit_length() + 7) // 8, "little")
    digits = [d for b in raw for d in _BYTE_DIGITS[b]]
    while digits and not digits[-1]:
        digits.pop()
    return digits


def from_digits(digits: list[int]) -> int:
    """Value of a little-endian base-4 digit vector.

    Trailing zeros are tolerated; digits outside {0,1,2,3} are rejected.
    """
    value = 0
    for i, d in enumerate(digits):
        if not 0 <= d <= 3:
            raise ValueError(f"digit {d} at index {i} is outside 0..3")
        value += d << (2 * i)
    return value


def digit_at(n: int, i: int) -> int:
    """Base-4 digit of n at position i (0 beyond the canonical length)."""
    if n < 0:
        raise ValueError(f"natural number required, got {n}")
    if i < 0:
        raise ValueError(f"digit index must be nonnegative, got {i}")
    return (n >> (2 * i)) & 3
