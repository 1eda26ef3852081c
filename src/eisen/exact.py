"""Exact scalars and small arithmetic utilities.

Everything downstream works over ``fractions.Fraction``: arbitrary-precision
rationals, always in lowest terms with a positive denominator.  This module
holds p-adic valuations with a proper infinity for the valuation of zero,
base-2 digit sums, Bernoulli numbers and the rational number 2*zeta(k)/pi^k
that stands in for zeta(k) everywhere (both read off one memo of integer
tangent numbers), and the one parser and one writer of exact numbers as
text.  No floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import DomainError, InvalidPrimeError


class _Infinity:
    """The valuation of zero: larger than every integer, equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Infinity"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("eisen.exact.Infinity")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True


INFINITY = _Infinity()

#: A p-adic valuation: an integer, or INFINITY (only for the value 0).
Valuation = Union[int, _Infinity]


def json_valuation(v: Valuation) -> Union[int, str]:
    """A valuation as written in JSON documents and records: the int, or "inf" for INFINITY."""
    return "inf" if v is INFINITY else int(v)


# largest n that is_prime decides: trial division up to it takes at most ~33k
# steps, and the scan's moduli stay below 10**4
_PRIME_BOUND = 2**32


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for n <= 2**32.

    Larger n raise ``DomainError``: trial division would take time growing as
    sqrt(n), and the answer is never guessed.
    """
    if n > _PRIME_BOUND:
        # the bit length, not n: str() of a huge int is itself slow or refused
        raise DomainError(f"primality is not decided above 2**32 (got a {n.bit_length()}-bit modulus)")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


#: the primes below 100, ascending: the usual moduli skip trial division, and
#: the scan's Dumas loop tries them in this order
SMALL_PRIMES = tuple(n for n in range(100) if is_prime(n))


def _check_prime(p: int) -> None:
    # every modulus is verified: at a composite p the valuation criterion
    # certifies reducible polynomials (x^2 - 4 passes it at p = 4)
    if p not in SMALL_PRIMES and not is_prime(p):
        raise InvalidPrimeError(f"p must be a prime >= 2, got {p}")


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Union[int, Fraction], p: int) -> Valuation:
    """p-adic valuation of a rational: nu(a/b) = nu(a) - nu(b), nu(0) = INFINITY."""
    _check_prime(p)
    if x == 0:
        return INFINITY
    if isinstance(x, int):
        return _int_valuation(x, p)
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def digit_sum_base2(m: int) -> int:
    """Sum of the binary digits of m >= 0."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    return bin(m).count("1")


#: T_1, T_2, ...: a longer memo is built in full, then swapped in, so readers need no lock
_tangent_numbers: tuple[int, ...] = ()


def _tangent_number(h: int) -> int:
    """T_h for h >= 1, by the integer recurrence of Brent and Harvey (arXiv:1108.0286)."""
    global _tangent_numbers
    memo = _tangent_numbers
    if h > len(memo):
        n = max(h, 2 * len(memo))
        t = [math.factorial(i) for i in range(n)]
        for k in range(1, n):
            for j in range(k, n):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        memo = _tangent_numbers = tuple(t)
    return memo[h - 1]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, with B_1 = -1/2; (-1)^(n/2-1) n T_(n/2) / (2^n (2^n - 1)) for even n >= 2."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    if n == 0:
        return Fraction(1)
    return Fraction((-1) ** (n // 2 - 1) * n * _tangent_number(n // 2), 2**n * (2**n - 1))


def zeta_ratio(k: int) -> Fraction:
    """The exact rational 2*zeta(k)/pi^k = T_(k/2) / ((2^k - 1) (k-1)!) for even k >= 2.

    This ratio is the only representation of zeta(k) in the package: every
    identity used here is weight-homogeneous, so the pi powers always cancel.
    """
    if k < 2 or k % 2:
        raise DomainError(f"k must be even and >= 2, got {k}")
    return Fraction(_tangent_number(k // 2), (2**k - 1) * math.factorial(k - 1))


def divisor_power_sum(n: int, e: int) -> int:
    """sigma_e(n): sum of d^e over the positive divisors d of n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**e
            q = n // d
            if q != d:
                total += q**e
        d += 1
    return total


#: exact text: an integer or num/den in ASCII digits, the denominator nonzero
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """The rational written as ``-?digits`` or ``-?digits/digits``, denominator positive.

    Anything else raises ``DomainError``: no ``+``, spaces, underscores,
    decimal point or exponent, so ``"1e3000000"`` is refused at once where
    ``Fraction(str)`` would expand it to three million digits.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise DomainError(f"{text!r} is not an integer or num/den in ASCII digits with a positive denominator")
    return Fraction(_to_int(m[1]), _to_int(m[2] or "1"))


def format_rational(c: Fraction) -> str:
    """The exact text ``num/den`` of c, which ``parse_rational`` reads back (integers as ``n/1``).

    A part with more digits than ``str(int)`` converts (4300 by default)
    raises ``DomainError``, as ``parse_rational`` does on the way in.
    """
    try:
        return f"{c.numerator}/{c.denominator}"
    except ValueError as exc:  # CPython's int-to-str digit limit
        raise DomainError(str(exc)) from None


def parse_integer(text: str) -> int:
    """The integer written as ``-?digits`` in ASCII; anything else raises ``DomainError``."""
    m = _RATIONAL.fullmatch(text)
    if m is None or m[2] is not None:
        raise DomainError(f"{text!r} is not an integer in ASCII digits")
    return _to_int(text)


def _to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int(str) converts
        raise DomainError(str(exc)) from None
