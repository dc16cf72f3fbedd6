import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kncomp.arith import (
    ExactField,
    NonIntegerProductError,
    PrimeField,
    ZeroPivotError,
    is_prime,
    mod_retry,
    product_to_integer,
    random_prime,
    tau_from_determinant,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_product_to_integer_tree_factors():
    # L-values of the 3-vertex path at n=4, scaled by 4^2.
    assert product_to_integer([Fraction(3, 4), Fraction(3, 4), Fraction(1, 3)], 16) == 3


def test_product_to_integer_empty_product_is_scale():
    for n in (1, 2, 5, 9):
        scale = n ** (n - 2) if n >= 2 else 1
        assert product_to_integer([], scale) == scale


def test_product_to_integer_zero_factor():
    assert product_to_integer([Fraction(1, 2), Fraction(0)], 1) == 0


def test_product_to_integer_rejects_non_integer():
    with pytest.raises(NonIntegerProductError):
        product_to_integer([Fraction(1, 2)], 3)


def test_tau_from_determinant_divides_exactly_or_raises():
    assert tau_from_determinant(6, 3, 10) == 60  # n^(n-p-2) = 6
    assert tau_from_determinant(4, 3, 12) == 3  # n^-1: P_3 in K_4
    assert tau_from_determinant(3, 3, 0) == 0
    with pytest.raises(NonIntegerProductError):
        tau_from_determinant(4, 4, 20)


@given(st.lists(fractions_st, max_size=8), st.integers(-1000, 1000))
def test_product_to_integer_loses_no_precision(factors, scale):
    expected = Fraction(scale)
    for f in factors:
        expected *= f
    if expected.denominator == 1:
        got = product_to_integer(factors, scale)
        assert got == expected
        # dividing the factors back out recovers the scale exactly
        back = Fraction(got)
        for f in factors:
            if f == 0:
                return
            back /= f
        assert back == scale
    else:
        with pytest.raises(NonIntegerProductError):
            product_to_integer(factors, scale)


@given(fractions_st, fractions_st)
def test_addition_and_multiplication_are_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


_HOM_PRIME = random_prime(rng=random.Random(0))


@given(fractions_st, fractions_st)
def test_prime_field_matches_rational_arithmetic(a, b):
    field = PrimeField(_HOM_PRIME)
    fa, fb = field.from_fraction(a), field.from_fraction(b)
    assert field.add(fa, fb) == field.from_fraction(a + b)
    assert field.sub(fa, fb) == field.from_fraction(a - b)
    assert field.mul(fa, fb) == field.from_fraction(a * b)
    if b != 0:
        assert field.div(fa, fb) == field.from_fraction(a / b)


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
        field.from_fraction(Fraction(1, 7))


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


def test_mod_retry_moves_past_unlucky_moduli():
    attempts = []

    def task(field):
        attempts.append(field.modulus)
        if len(attempts) < 3:
            raise ZeroPivotError(1)
        return field.modulus

    result = mod_retry(task, random.Random(5))
    assert result == attempts[-1]
    assert len(attempts) == 3
    assert len(set(attempts)) == 3


def test_mod_retry_gives_up_after_bounded_attempts():
    def always_zero(field):
        raise ZeroPivotError(2)

    with pytest.raises(ArithmeticError, match="5 distinct"):
        mod_retry(always_zero, random.Random(5))
