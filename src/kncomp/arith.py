"""Exact and modular arithmetic used by the counting engines.

Every count this package emits is exact. Integers are plain Python ints
(arbitrary precision), rationals are `fractions.Fraction`, which normalizes
to lowest terms with a positive denominator on construction. A prime field
with a random 62-bit modulus provides a fixed-word-cost backend for
benchmarking, where the digit growth of exact rationals would otherwise
dominate the measurement.

The engines run their recursions through a small "field" object (ExactField
or PrimeField) so the same code serves exact counting and modular timing
runs; the fields also count multiplications and divisions, which backs the
linear-work checks in the test suite.
"""

import random
from fractions import Fraction

__all__ = [
    "Fraction",
    "product_to_integer",
    "tau_from_determinant",
    "NonIntegerProductError",
    "ZeroPivotError",
    "ExactField",
    "PrimeField",
    "random_prime",
    "is_prime",
    "mod_retry",
    "MOD_PRIME_BITS",
]

MOD_PRIME_BITS = 62


class NonIntegerProductError(ArithmeticError):
    """A product that a counting formula guarantees to be integral was not."""


class ZeroPivotError(ArithmeticError):
    """A value needed in a denominator of an elimination recursion was zero.

    Modular callers retry with a fresh prime, since a vanishing residue is
    overwhelmingly a modulus artifact rather than a real zero.
    """

    def __init__(self, label: int):
        super().__init__(f"zero pivot at label {label}")
        self.label = label


def product_to_integer(factors, scale: int = 1) -> int:
    """Multiply `scale` by every factor and return the exact integer result.

    Raises NonIntegerProductError when the product has a nontrivial
    denominator: every spanning-tree formula in this package is integral,
    so a non-integer product signals an engine bug upstream.
    """
    total = Fraction(scale)
    for f in factors:
        total *= f
    if total.denominator != 1:
        raise NonIntegerProductError(f"product is not an integer: {total}")
    return total.numerator


def tau_from_determinant(n: int, p: int, det: int) -> int:
    """tau(K_n - H) = n^(n-p-2) * det(n*I_p - L(H)), given the determinant.

    A negative power of n must divide det; NonIntegerProductError if not.
    """
    exp = n - p - 2
    if exp >= 0:
        return n**exp * det
    tau, rest = divmod(det, n**-exp)
    if rest:
        raise NonIntegerProductError(f"det(n*I - L) is not divisible by {n}^{-exp}")
    return tau


# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int = MOD_PRIME_BITS, rng: random.Random | None = None) -> int:
    """Random prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("need at least 2 bits for a prime")
    draw = (rng or random).getrandbits
    while True:
        candidate = draw(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


class ExactField:
    """Fraction arithmetic with multiply/divide counters."""

    __slots__ = ("muls", "divs")

    def __init__(self):
        self.muls = 0
        self.divs = 0

    @property
    def ops(self) -> int:
        return self.muls + self.divs

    def from_int(self, i: int) -> Fraction:
        return Fraction(i)

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        self.muls += 1
        return a * b

    def div(self, a, b):
        self.divs += 1
        return a / b

    def ipow(self, base: int, exp: int):
        """Exact base**exp for integer base, exponent of either sign."""
        return Fraction(base) ** exp


class PrimeField:
    """Arithmetic modulo a prime, on plain int residues.

    Division by a zero residue raises ZeroDivisionError. All counting
    formulas stay valid modulo p as long as no denominator vanishes, which
    for a random 62-bit modulus is a probability ~k/p event.
    """

    __slots__ = ("modulus", "muls", "divs")

    def __init__(self, modulus: int):
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        self.muls = 0
        self.divs = 0

    @property
    def ops(self) -> int:
        return self.muls + self.divs

    def from_int(self, i: int) -> int:
        return i % self.modulus

    def from_fraction(self, q: Fraction) -> int:
        den = q.denominator % self.modulus
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.modulus}")
        return q.numerator * pow(den, -1, self.modulus) % self.modulus

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        self.muls += 1
        return a * b % self.modulus

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero residue mod {self.modulus}")
        self.divs += 1
        return a * pow(b, -1, self.modulus) % self.modulus

    def ipow(self, base: int, exp: int) -> int:
        b = base % self.modulus
        if exp < 0:
            return pow(pow(b, -1, self.modulus), -exp, self.modulus)
        return pow(b, exp, self.modulus)


def mod_retry(task, rng: random.Random, attempts: int = 5):
    """Run `task(field)` under fresh random prime fields until one succeeds.

    Retries on zero pivots / zero residues; after `attempts` distinct
    moduli all hit a zero, gives up (at that point the zeros are almost
    certainly genuine).
    """
    for _ in range(attempts):
        field = PrimeField(random_prime(rng=rng))
        try:
            return task(field)
        except (ZeroPivotError, ZeroDivisionError):
            continue
    raise ArithmeticError(f"zero residue under {attempts} distinct random moduli")
