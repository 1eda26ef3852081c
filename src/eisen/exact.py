"""Exact scalars and small arithmetic utilities.

Everything downstream works over arbitrary-precision rationals; this module
fixes the scalar type (``fractions.Fraction``, aliased ``ExactRational``),
p-adic valuations with a proper infinity for the valuation of zero, base-2
digit sums, exact binomials, Bernoulli numbers, and the rational number
2*zeta(k)/pi^k that stands in for zeta(k) everywhere.  No floating point.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Union

from .errors import DomainError, InvalidPrimeError

#: The universal scalar: arbitrary-precision rational, always in lowest terms
#: with positive denominator.  ``fractions.Fraction`` already guarantees both.
ExactRational = Fraction


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

    # nu(x*y) = nu(x) + nu(y) stays total when one factor is zero
    def __add__(self, other: object) -> "_Infinity":
        return self

    __radd__ = __add__


INFINITY = _Infinity()

#: A p-adic valuation: an integer, or INFINITY (only for the value 0).
Valuation = Union[int, _Infinity]


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


#: the primes below 100, so the usual moduli skip trial division
_SMALL_PRIMES = frozenset(n for n in range(100) if is_prime(n))


def _check_prime(p: int) -> None:
    # every modulus is verified: at a composite p the valuation criterion
    # certifies reducible polynomials (x^2 - 4 passes it at p = 4)
    if p not in _SMALL_PRIMES and not is_prime(p):
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


def factorial_valuation2(m: int) -> int:
    """nu_2(m!) via the digit-sum identity m - s_2(m)."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    return m - digit_sum_base2(m)


def binomial(n: int, r: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= r <= n."""
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def binomial_mod2(n: int, r: int) -> int:
    """C(n, r) mod 2 by Lucas: 1 iff the bits of r are a subset of the bits of n."""
    if r < 0 or r > n:
        return 0
    return 1 if n & r == r else 0


_bernoulli_even: list[Fraction] = [Fraction(1)]  # index t holds B_{2t}
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, memoized.

    Computed from the defining convolution sum C(m+1, j) B_j = 0 restricted to
    even indices (odd Bernoulli numbers vanish beyond B_1).  B_1 = -1/2.
    The memo table is append-only: reads are lock-free, extension is serialized.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    half = n // 2
    if half < len(_bernoulli_even):
        return _bernoulli_even[half]
    with _bernoulli_lock:
        while len(_bernoulli_even) <= half:
            t = len(_bernoulli_even)
            m = 2 * t
            acc = Fraction(0)
            for j in range(t):
                acc += math.comb(m + 1, 2 * j) * _bernoulli_even[j]
            # the lone odd contribution C(m+1, 1) * B_1 folds into the 1/2
            _bernoulli_even.append(Fraction(1, 2) - acc / (m + 1))
    return _bernoulli_even[half]


def zeta_ratio(k: int) -> Fraction:
    """The exact rational 2*zeta(k)/pi^k = (-1)^(k/2-1) * 2^k * B_k / k! for even k >= 2.

    This ratio is the only representation of zeta(k) in the package: every
    identity used here is weight-homogeneous, so the pi powers always cancel.
    """
    if k < 2 or k % 2:
        raise DomainError(f"k must be even and >= 2, got {k}")
    sign = 1 if (k // 2) % 2 == 1 else -1
    return Fraction(sign * 2**k, math.factorial(k)) * bernoulli(k)


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
