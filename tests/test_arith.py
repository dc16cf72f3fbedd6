import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import int_digit_limit
from kncomp.arith import (
    ExactField,
    NonIntegerProductError,
    PrimeField,
    decimal_text,
    is_prime,
    random_prime,
    tau_from_determinant,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_tau_from_determinant_divides_exactly_or_raises():
    assert tau_from_determinant(6, 3, 10) == 60  # n^(n-p-2) = 6
    assert tau_from_determinant(4, 3, 12) == 3  # n^-1: P_3 in K_4
    assert tau_from_determinant(3, 3, 0) == 0
    with pytest.raises(NonIntegerProductError):
        tau_from_determinant(4, 4, 20)


def test_decimal_text_equals_str_at_any_length():
    # Around the 4096-bit pieces and their joins, and far beyond the default
    # 4300-digit limit, under which decimal_text runs here.
    values = [0, 1, -1, -(2**5000) + 3]
    for bits in (4095, 4096, 4097, 8191, 8192, 8193, 12289):
        values += [2**bits - 1, 2**bits]
    for digits in (1233, 1234, 1235, 2466, 2467, 4300, 4301):
        values += [10**digits - 1, 10**digits]
    rng = random.Random(4096)
    values += [rng.getrandbits(rng.randint(1, 300_000)) for _ in range(16)]
    with int_digit_limit(0):
        expected = [str(v) for v in values]
    assert [decimal_text(v) for v in values] == expected


@given(fractions_st, fractions_st)
def test_addition_and_multiplication_are_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


_HOM_PRIME = random_prime(rng=random.Random(0))


def residue(q: Fraction) -> int:
    """q modulo _HOM_PRIME, which divides no denominator drawn here."""
    return q.numerator * pow(q.denominator, -1, _HOM_PRIME) % _HOM_PRIME


@given(fractions_st, fractions_st)
def test_prime_field_matches_rational_arithmetic(a, b):
    field = PrimeField(_HOM_PRIME)
    fa, fb = residue(a), residue(b)
    assert field.add(fa, fb) == residue(a + b)
    assert field.sub(fa, fb) == residue(a - b)
    assert field.mul(fa, fb) == residue(a * b)
    if b != 0:
        assert field.div(fa, fb) == residue(a / b)


def test_random_prime_is_62_bit_prime_and_seeded():
    p1 = random_prime(rng=random.Random(99))
    p2 = random_prime(rng=random.Random(99))
    assert p1 == p2
    assert p1.bit_length() == 62
    assert is_prime(p1)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(15)


def test_prime_field_division_by_zero_residue():
    field = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        field.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        field.div(3, field.from_int(14))


def test_field_ipow_handles_negative_exponents():
    field = PrimeField(101)
    assert field.mul(field.ipow(5, -2), field.ipow(5, 2)) == 1
    exact = ExactField()
    assert exact.ipow(5, -2) == Fraction(1, 25)


def test_exact_field_counts_operations():
    field = ExactField()
    field.mul(Fraction(1, 2), Fraction(2, 3))
    field.div(Fraction(1, 2), Fraction(2, 3))
    field.add(Fraction(1), Fraction(1))
    assert field.muls == 1 and field.divs == 1 and field.ops == 2
