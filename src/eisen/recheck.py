"""Re-checkers for irreducibility certificate documents, on the standard library alone.

A re-checker reads nothing but the JSON document of a certificate and shares
no arithmetic with the code that produced it, down to the primality test:
were ``exact.is_prime`` to admit a composite, a certifier using it and a
re-checker using it would accept the same forgery.  So this module imports
only the standard library and nothing from ``eisen``, and it runs as a single
file copied anywhere; it has its own digits-only parser, its own trial
division and its own distinct-degree factorization.  The re-checkers are
total: a malformed document is rejected with False, never answered with an
exception.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union


def _is_prime_by_trial(n: int) -> bool:
    """The re-checkers' primality test: trial division, and False (never an error) for n >= 2**32."""
    if not 2 <= n < 2**32:
        return False
    return n == 2 or n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def _total(recheck: Callable[[Mapping], bool]) -> Callable[[Mapping], bool]:
    """Turn every failure to read a document into a rejection."""

    @functools.wraps(recheck)
    def total(doc: Mapping) -> bool:
        try:
            return recheck(doc)
        except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError):
            return False

    return total


def _parse_rational(s: str) -> Fraction:
    # digits only: Fraction() would also take "1e999999999" and expand it
    num, slash, den = s.partition("/")
    if not (s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"not a num/den string: {s!r}")
    return Fraction(int(num), int(den) if slash else 1)


def _parse_coeffs(poly: Mapping) -> Optional[list[Fraction]]:
    """The serialized coefficients, or None unless their count matches the degree."""
    coeffs, n = poly["coeffs"], poly["degree"]
    if not isinstance(coeffs, list) or type(n) is not int or n < 1 or len(coeffs) != n + 1:
        return None
    return [_parse_rational(s) for s in coeffs]


@_total
def recheck_dumas_certificate(doc: Mapping) -> bool:
    """Re-verify a Dumas certificate from its JSON document alone.

    Checks that the recorded modulus is prime, recomputes every valuation from
    the serialized coefficients with a naive division loop (independent of the
    library's valuation code), compares them with the recorded ones, and
    re-evaluates both conditions, which the recorded criterion "dumas" and
    gcd 1 must match.  Every recorded number must be an int (a valuation may
    also be "inf"), not merely compare equal to one.  Returns True only for a
    sound "irreducible" certificate.
    """
    coeffs = _parse_coeffs(doc["poly"])
    p = doc["prime"]
    if coeffs is None or coeffs[-1] != 1 or type(p) is not int or not _is_prime_by_trial(p):
        return False
    n = len(coeffs) - 1

    def nu(x: Fraction) -> Union[int, None]:
        if x == 0:
            return None  # stands for infinity
        num, den, v = abs(x.numerator), x.denominator, 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    vals = [nu(c) for c in coeffs[:-1]]
    recorded = doc["valuations"]
    if not isinstance(recorded, list) or not all(s == "inf" or type(s) is int for s in recorded):
        return False
    if vals != [None if s == "inf" else s for s in recorded]:
        return False
    if vals[0] is None:
        return False
    if doc["verdict"] != "irreducible" or doc["criterion"] != "dumas":
        return False
    slope_ok = all(v is None or v * n >= vals[0] * (n - r) for r, v in enumerate(vals))
    if not slope_ok:
        return False
    # gcd(|nu(a_0)|, n) = 1, so the recorded chord must be -nu(a_0)/n unreduced
    if math.gcd(abs(vals[0]), n) != 1 or type(doc["gcd"]) is not int or doc["gcd"] != 1:
        return False
    slope = (doc["slope_num"], doc["slope_den"])
    return all(type(x) is int for x in slope) and slope == (-vals[0], n)


# The pattern re-checker's own distinct-degree factorization: textbook
# repeated squaring, with every coefficient reduced as soon as it is formed.


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    r = a[:]
    df = len(f) - 1
    q = [0] * max(len(r) - df, 1)
    inv = pow(f[-1], -1, p)
    while len(r) - 1 >= df and r:
        c = r[-1] * inv % p
        shift = len(r) - 1 - df
        q[shift] = c
        for i, fc in enumerate(f):
            r[shift + i] = (r[shift + i] - c * fc) % p
        _gf_trim(r)
    return _gf_trim(q), r


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_trim(out)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _gf_trim(a[:]), _gf_trim(b[:])
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gf_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _gf_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _gf_divmod(_gf_mul(result, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _gf_divmod(_gf_mul(base, base, p), f, p)[1]
    return result


def _ddf_by_repeated_squaring(int_coeffs: Sequence[int], p: int) -> Optional[list[int]]:
    """Degree multiset of the factors of f mod p, or None; the re-checker's DDF.

    Same contract as ``eisen.irreducibility.distinct_degree_pattern``,
    computed another way: each degree step raises h to the p-th power modulo
    the unfactored part g by repeated squaring.  A composite p is a
    ``ValueError``.
    """
    if not _is_prime_by_trial(p):
        raise ValueError(f"p = {p} is not prime")
    if int_coeffs[-1] % p == 0:
        return None
    f = _gf_trim([c % p for c in int_coeffs])
    n = len(f) - 1
    if n < 1:
        return None
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    deriv = _gf_trim([(i * c) % p for i, c in enumerate(f)][1:])
    if not deriv or len(_gf_gcd(f, deriv, p)) > 1:
        return None

    pattern: list[int] = []
    g = f[:]
    h = [0, 1]  # the polynomial x
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_powmod(h, p, g, p)
        h_minus_x = h[:] + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        common = _gf_gcd(_gf_trim(h_minus_x), g, p)
        if len(common) > 1:
            deg = len(common) - 1
            pattern.extend([d] * (deg // d))
            g = _gf_divmod(g, common, p)[0]
            if len(g) - 1 < 1:
                break
            h = _gf_divmod(h, g, p)[1]
    if len(g) - 1 > 0:
        pattern.append(len(g) - 1)
    return sorted(pattern)


@_total
def recheck_pattern_certificate(doc: Mapping) -> bool:
    """Re-verify a degree-pattern certificate from its JSON document.

    Recomputes the pattern at every recorded prime with the re-checker's own
    repeated-squaring DDF and redoes the subset-sum exclusion over sets of
    reachable degrees.  The other fields must agree: criterion
    "finite-field-pattern", no unexcluded degrees, ``primes`` the primes of
    ``patterns`` with none twice, each pattern keyed by its prime's plain
    decimal digits, and ``skipped`` a list of other primes, each prime by the
    re-checker's own trial division and none listed twice; every recorded
    degree, prime and skipped prime must be an int.  Returns True only for a
    sound "irreducible" verdict.
    """
    coeffs = _parse_coeffs(doc["poly"])
    if coeffs is None or any(c.denominator != 1 for c in coeffs) or doc["verdict"] != "irreducible":
        return False
    ints = [c.numerator for c in coeffs]
    n = len(ints) - 1
    patterns, primes, skipped = doc["patterns"], doc["primes"], doc["skipped"]
    if not patterns or doc["criterion"] != "finite-field-pattern" or doc["unexcluded_degrees"] != []:
        return False
    if not all(isinstance(q, list) and all(type(x) is int for x in q) for q in (primes, skipped)):
        return False
    if set(primes) != {int(p_str) for p_str in patterns} or not set(primes).isdisjoint(skipped):
        return False
    if not len(primes) == len(set(primes)) == len(patterns):
        return False
    if len(skipped) != len(set(skipped)) or not all(_is_prime_by_trial(q) for q in skipped):
        return False
    # degrees a rational factor could still have, given the patterns so far
    reachable = set(range(n + 1))
    for p_str, recorded in patterns.items():
        if p_str != str(int(p_str)) or not _is_prime_by_trial(int(p_str)):
            return False
        if not isinstance(recorded, list) or not all(type(d) is int for d in recorded):
            return False
        pattern = _ddf_by_repeated_squaring(ints, int(p_str))
        if pattern is None or pattern != recorded:
            return False
        sums = {0}
        for d in pattern:
            sums |= {s + d for s in sums}
        reachable &= sums
    return not any(0 < d < n for d in reachable)
