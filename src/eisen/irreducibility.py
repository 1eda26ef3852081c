"""Irreducibility certificates for monic rational polynomials.

Two one-directional criteria are implemented.  The valuation criterion of
Dumas: if for some prime p every coefficient satisfies the slope bound

    nu_p(a_r) / (n - r)  >=  nu_p(a_0) / n      (0 <= r <= n-1)

and gcd(nu_p(a_0), n) = 1, the polynomial is irreducible over Q.  And a
finite-field oracle: reduce mod several primes, compute the multiset of
irreducible-factor degrees by distinct-degree factorization, and intersect
the subset-sums; if no proper degree survives, no rational factorization can
exist.  Neither criterion can ever certify reducibility, so the third verdict
is "inconclusive".  Every "irreducible" verdict carries a machine-checkable
witness, and both kinds of certificate can be re-verified from their JSON
form alone by re-checkers that share no arithmetic with the code producing them.

Polynomials are sequences of rationals, constant term first, leading
coefficient included.  Slope comparisons are cross-multiplied integer
comparisons throughout; nothing here touches floating point.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import DomainError, InvalidPrimeError
from .exact import INFINITY, Valuation, format_rational, is_prime, json_valuation, valuation

Coeffs = Sequence[Union[int, Fraction]]

#: witness primes the finite-field oracle keeps per polynomial, at most
ORACLE_PRIME_COUNT = 10

#: primes ``select_witness_primes`` examines per polynomial, at most
_WITNESS_PRIMES_EXAMINED = 120


def _as_fractions(coeffs: Coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    if len(out) < 2:
        raise DomainError("polynomial must have degree >= 1")
    return out


def _require_monic(coeffs: list[Fraction]) -> None:
    if coeffs[-1] != 1:
        raise DomainError(f"polynomial must be monic, leading coefficient {coeffs[-1]}")


# ---------------------------------------------------------------------------
# Newton polygon


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of the points (r, nu_p(a_r)).

    ``points`` lists the finite-valuation points left to right; ``vertices``
    the hull corners; ``slopes`` the hull segments as (slope, horizontal run)
    pairs, slopes strictly increasing.
    """

    prime: int
    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    slopes: tuple[tuple[Fraction, int], ...]

    @classmethod
    def from_valuations(cls, prime: int, vals: Sequence[Valuation]) -> "NewtonPolygon":
        """Build from the full valuation list nu(a_0) .. nu(a_n); INFINITY entries are gaps."""
        pts = [(r, v) for r, v in enumerate(vals) if v is not INFINITY]
        if len(pts) < 2:
            raise DomainError("need at least two finite valuation points")
        # lower hull, left to right (monotone chain)
        hull: list[tuple[int, int]] = []
        for pt in pts:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # keep the turn strictly convex: drop the middle point when it
                # is on or above the segment hull[-2] -> pt
                if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        slopes = tuple(
            (Fraction(hull[i + 1][1] - hull[i][1], hull[i + 1][0] - hull[i][0]), hull[i + 1][0] - hull[i][0])
            for i in range(len(hull) - 1)
        )
        return cls(prime=prime, points=tuple(pts), vertices=tuple(hull), slopes=slopes)

    def is_single_segment(self) -> bool:
        return len(self.vertices) == 2


def newton_polygon(coeffs: Coeffs, p: int) -> NewtonPolygon:
    """Newton polygon of a monic polynomial with nonzero constant term."""
    cs = _as_fractions(coeffs)
    _require_monic(cs)
    if cs[0] == 0:
        raise DomainError("constant term is zero; factor out x first")
    return NewtonPolygon.from_valuations(p, [valuation(c, p) for c in cs])


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Outcome of one criterion on one polynomial, kept as its JSON document.

    ``fields`` is the document after its "poly" object, in final order.  For
    the Dumas criterion: prime, valuations, slope_num, slope_den, gcd,
    verdict, criterion; valuations list nu_p(a_r) for r = 0 .. n-1 with "inf"
    marking zero coefficients, and slope_num/slope_den the chord slope
    -nu_p(a_0)/n in lowest terms (null, as is gcd, for a zero constant term).
    For the degree-pattern criterion: primes (in the order kept), patterns
    (keyed by prime, ascending), skipped, unexcluded_degrees, verdict,
    criterion.  ``verdict`` is "irreducible" or "inconclusive" (the criteria
    implemented here can never return "reducible"); an "irreducible"
    document holds everything needed to re-check it mechanically.
    ``reason`` says why a verdict is inconclusive, and ``slope_condition``
    is Dumas' condition (i), which the document does not record.
    """

    poly_id: str
    coeffs: tuple[Fraction, ...]
    fields: dict
    reason: Optional[str] = None
    slope_condition: Optional[bool] = None

    @property
    def verdict(self) -> str:
        return self.fields["verdict"]

    @property
    def criterion(self) -> str:
        return self.fields["criterion"]

    @property
    def primes(self) -> tuple[int, ...]:
        return (self.fields["prime"],) if "prime" in self.fields else tuple(self.fields["primes"])

    def to_json_dict(self) -> dict:
        """The document: the "poly" object, then a copy of ``fields`` that shares nothing with them.

        Coefficients are formatted here only: the scan's Dumas loop keeps verdicts, not documents.
        """
        coeffs = [format_rational(c) for c in self.coeffs]
        poly = {"id": self.poly_id, "degree": len(self.coeffs) - 1, "coeffs": coeffs}
        return {"poly": poly, **copy.deepcopy(self.fields)}


def dumas_check(coeffs: Coeffs, p: int, poly_id: str = "poly") -> IrreducibilityCertificate:
    """Apply the valuation criterion at p; verdict is irreducible or inconclusive.

    Condition (i), the slope bound, is evaluated by the cross-multiplied
    comparison nu(a_r) * n >= nu(a_0) * (n - r); zero coefficients satisfy it
    vacuously.  Condition (ii) is gcd(|nu(a_0)|, n) = 1.  A zero constant term
    makes the chord undefined and yields "inconclusive".
    """
    cs = _as_fractions(coeffs)
    _require_monic(cs)
    n = len(cs) - 1
    vals = [valuation(c, p) for c in cs[:-1]]
    v0 = vals[0]
    if v0 is INFINITY:
        slope_ok, g, chord, reason = False, None, (None, None), "zero constant term"
    else:
        slope_ok = all(v is INFINITY or v * n >= v0 * (n - r) for r, v in enumerate(vals))
        g = math.gcd(abs(v0), n)  # condition (ii), and the chord's reduction
        chord = (-v0 // g, n // g)
        failures = [] if slope_ok else ["slope condition fails"]
        if g != 1:
            failures.append(f"gcd(nu(a_0), n) = {g}")
        reason = "; ".join(failures) or None
    fields = {
        "prime": p,
        "valuations": [json_valuation(v) for v in vals],
        "slope_num": chord[0],
        "slope_den": chord[1],
        "gcd": g,
        "verdict": "irreducible" if slope_ok and g == 1 else "inconclusive",
        "criterion": "dumas",
    }
    return IrreducibilityCertificate(poly_id, tuple(cs), fields, reason, slope_ok)


# ---------------------------------------------------------------------------
# re-checking certificate documents
#
# The re-checkers read nothing but the JSON document and share no arithmetic
# with the code that produced it.  They are total: a malformed document is
# rejected with False, never answered with an exception.


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
    if coeffs is None or coeffs[-1] != 1 or type(p) is not int or not is_prime(p):
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

    Same contract as ``distinct_degree_pattern``, computed another way: each
    degree step raises h to the p-th power modulo the unfactored part g by
    repeated squaring.
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"p = {p} is not prime")
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
    ``patterns``, and ``skipped`` a list of other primes; every recorded
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
    # degrees a rational factor could still have, given the patterns so far
    reachable = set(range(n + 1))
    for p_str, recorded in patterns.items():
        if not (isinstance(p_str, str) and p_str.isascii() and p_str.isdigit() and is_prime(int(p_str))):
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


# ---------------------------------------------------------------------------
# finite-field degree patterns (distinct-degree factorization, no splitting)
#
# A polynomial mod p is one nonnegative integer with coefficient i in slot i,
# bits [iW, (i+1)W) (Kronecker substitution), so one integer operation adds,
# scales or multiplies every slot at once.  Slots may exceed p until ``red``
# reduces all of them together.  The DDF builds the Frobenius matrix Q of f
# once (Berlekamp 1967): row i is x^(ip) mod f, so h^p = sum_i h_i x^(ip) = h Q
# for any h mod f, and each degree step is one vector-matrix product instead
# of a powering (von zur Gathen and Shoup 1992).
#
# Slot bound: for deg f = n, no slot ever reaches B = n p (p + 1).  A product
# of two reduced polynomials of degree < n, or h Q, sums at most n terms below
# p^2 in a slot; a dividend starts below n p (f' has slots i c_i, h - x slots
# below 2p) and each of its slots takes at most deg(divisor) <= n quotient
# terms below p^2.  With S = bits(B - 1) and M = floor(2^S / p), floor(v M /
# 2^S) is floor(v / p) or one less for every slot v < 2^S, so one
# compare-and-subtract finishes the reduction; W (whole bytes) holds (B - 1) M,
# so v M never spills into the next slot.


class _PackedGF:
    """GF(p)[x] on packed integers of up to 2n - 1 slots, multiplying modulo the monic f of degree n."""

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        bound = n * p * (p + 1)
        self.p, self.n, self.s = p, n, (bound - 1).bit_length()
        self.m = (1 << self.s) // p
        self.w = -(-((bound - 1) * self.m).bit_length() // 8)  # bytes per slot
        self.W = W = 8 * self.w
        ones = int.from_bytes(b"\1".ljust(self.w, b"\0") * (2 * n - 1), "little")
        self.quotient_mask = ones * ((1 << (W - self.s)) - 1)
        self.offset, self.top_bits = ones * ((1 << (W - 1)) - p), ones << (W - 1)
        self.f = self.pack(f)
        self.low = (1 << (n * W)) - 1
        self.neg_f = self.pack([-c % p for c in f[:-1]])  # x^n mod f
        self.barrett_g = self.divmod(1 << ((2 * n - 2) * W), self.f)[0]  # x^(2n-2) // f

    def pack(self, coeffs: Sequence[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(self.w, "little") for c in coeffs), "little")

    def unpack(self, v: int) -> list[int]:
        raw, w = v.to_bytes(self.n * self.w, "little"), self.w
        return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]

    def degree(self, v: int) -> int:
        """Degree of a reduced v (-1 for zero)."""
        return (v.bit_length() - 1) // self.W

    def red(self, v: int) -> int:
        """Every slot of v mod p, by slot-parallel Barrett; each slot must be below the bound."""
        p = self.p
        v -= ((v * self.m >> self.s) & self.quotient_mask) * p  # each slot now below 2p
        return v - (((v + self.offset) & self.top_bits) >> (self.W - 1)) * p

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and reduced remainder of a by the reduced nonzero b."""
        p, W = self.p, self.W
        cut = self.degree(b) * W
        inv = pow(b >> cut, -1, p)
        b_low = b & ((1 << cut) - 1)
        q = 0
        top = (a.bit_length() - 1) // W * W
        while top >= cut:
            t = a >> top
            c = t * inv % p
            q |= c << (top - cut)
            a += ((p - c) * b_low - (t << cut)) << (top - cut)  # the top slot becomes exactly 0
            top = (a.bit_length() - 1) // W * W
        return q, self.red(a)

    def gcd(self, a: int, b: int) -> int:
        """A gcd of the reduced nonzero a and b, which is reduced mod a first."""
        b = self.divmod(b, a)[1]
        while b:
            a, b = b, self.divmod(a, b)[1]
        return a

    def mulmod(self, a: int, b: int) -> int:
        """a b mod f for reduced a, b of degree < n (polynomial Barrett)."""
        prod = self.red(a * b)
        nw = self.n * self.W
        q = self.red((prod >> nw) * self.barrett_g) >> (nw - 2 * self.W)
        return self.red((prod & self.low) + (q * self.neg_f & self.low))


def distinct_degree_pattern(int_coeffs: Sequence[int], p: int) -> Optional[list[int]]:
    """Degree multiset of the irreducible factors of f mod p, or None.

    Returns None when the reduction is unusable: p divides the leading
    coefficient, or f mod p is not squarefree.  Uses distinct-degree
    factorization only; the factors themselves are never split, so the result
    is deterministic.  The returned multiset always sums to deg f.

    h tracks x^(p^d) mod f and g the part of f not yet factored; h - x is
    reduced mod g before each gcd, which is valid because g divides f.
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"p = {p} is not prime")
    if int_coeffs[-1] % p == 0:
        return None
    n = len(int_coeffs) - 1
    if n < 1:
        return None
    inv = pow(int_coeffs[-1], -1, p)
    f = [c % p * inv % p for c in int_coeffs]
    gf = _PackedGF(f, p)
    if gf.degree(gf.gcd(gf.f, gf.pack([i * c for i, c in enumerate(f)][1:]))) > 0:
        return None  # f and f' share a factor (or f' = 0)
    if n == 1:
        return [1]

    x = gf.pack([0, 1])
    h = x
    for bit in bin(p)[3:]:  # x^p mod f, most significant bit first
        h = gf.mulmod(h, h)
        if bit == "1":
            h = gf.mulmod(h, x)
    q = [1, h]
    for _ in range(n - 2):
        q.append(gf.mulmod(q[-1], q[1]))

    pattern: list[int] = []
    g = gf.f
    h = x
    d = 0
    while gf.degree(g) >= 2 * (d + 1):
        d += 1
        h = gf.red(sum(map(mul, gf.unpack(h), q)))  # h^p, now x^(p^d) mod f
        common = gf.gcd(g, h + ((p - 1) << gf.W))  # gcd(g, h - x)
        if gf.degree(common) > 0:
            pattern.extend([d] * (gf.degree(common) // d))
            g = gf.divmod(g, common)[0]
    if gf.degree(g) > 0:
        pattern.append(gf.degree(g))
    return sorted(pattern)


def _subset_sum_bits(pattern: Iterable[int]) -> int:
    bits = 1
    for d in pattern:
        bits |= bits << d
    return bits


def assemble_pattern_certificate(
    int_coeffs: Sequence[int],
    patterns: Mapping[int, list[int]],
    skipped: Iterable[int] = (),
    poly_id: str = "poly",
) -> IrreducibilityCertificate:
    """Degree-pattern certificate from patterns already computed.

    ``patterns`` maps each usable prime to its degree multiset, in the order
    the primes are to be reported; ``skipped`` lists the unusable ones.
    Verdict "irreducible" when some pattern is the single block {n}, or when
    the intersection of the subset-sums of all patterns contains no proper
    degree; otherwise "inconclusive", with the surviving degrees reported.
    """
    if len(int_coeffs) < 2:
        raise DomainError("polynomial must have degree >= 1")
    n = len(int_coeffs) - 1
    bits = (1 << (n + 1)) - 1
    for pat in patterns.values():
        bits &= _subset_sum_bits(pat)  # a pattern [n] leaves only 0 and n
    unexcluded = [d for d in range(1, n) if (bits >> d) & 1]
    if not patterns:
        reason = "no usable primes"
    elif unexcluded:
        reason = f"degrees {unexcluded} not excluded"
    else:
        reason = None
    fields = {
        "primes": list(patterns),
        "patterns": {str(p): list(patterns[p]) for p in sorted(patterns)},
        "skipped": sorted(skipped),
        "unexcluded_degrees": unexcluded,
        "verdict": "irreducible" if patterns and not unexcluded else "inconclusive",
        "criterion": "finite-field-pattern",
    }
    return IrreducibilityCertificate(poly_id, tuple(Fraction(c) for c in int_coeffs), fields, reason)


def finite_field_degree_patterns(
    int_coeffs: Sequence[int], primes: Sequence[int], poly_id: str = "poly"
) -> IrreducibilityCertificate:
    """Degree-pattern oracle over an explicit prime list.

    The input must be a primitive integer polynomial (callers clear
    denominators).  Primes with non-squarefree reduction, or dividing the
    leading coefficient, are skipped and recorded; the verdict is that of
    ``assemble_pattern_certificate`` on the rest.
    """
    if len(int_coeffs) < 2:
        raise DomainError("polynomial must have degree >= 1")
    patterns: dict[int, list[int]] = {}
    skipped: list[int] = []
    for p in primes:
        pat = distinct_degree_pattern(int_coeffs, p)
        if pat is None:
            skipped.append(p)
        else:
            patterns[p] = pat
    return assemble_pattern_certificate(int_coeffs, patterns, skipped, poly_id)


# ---------------------------------------------------------------------------
# helpers for callers


def primitive_integer_polynomial(coeffs: Coeffs) -> list[int]:
    """Clear denominators and divide out the content; preserves the root set."""
    cs = _as_fractions(coeffs)
    lcm = math.lcm(*[c.denominator for c in cs])
    ints = [c.numerator * (lcm // c.denominator) for c in cs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def select_witness_primes(int_coeffs: Sequence[int], floor: int = 0) -> tuple[Optional[dict[int, list[int]]], int]:
    """Walk primes above ``floor`` and pick a small witness set for the oracle.

    Keeps a prime only when its degree pattern strictly shrinks the set of
    not-yet-excluded proper factor degrees (non-squarefree reductions are
    skipped outright), and stops as soon as the kept patterns jointly exclude
    every proper degree.  Returns (kept, primes_examined), where kept maps
    each kept prime to its pattern in the order kept, ready for
    ``assemble_pattern_certificate``; kept is None if no proof emerged within
    the fixed caps (``ORACLE_PRIME_COUNT`` primes kept, 120 examined), which
    is the honest outcome for a reducible input.
    """
    n = len(int_coeffs) - 1
    proper_mask = ((1 << n) - 1) & ~1  # bits 1 .. n-1
    remaining = proper_mask
    kept: dict[int, list[int]] = {}
    p = max(floor, 1)
    examined = 0
    while examined < _WITNESS_PRIMES_EXAMINED and len(kept) < ORACLE_PRIME_COUNT:
        p += 1
        if not is_prime(p):
            continue
        examined += 1
        pat = distinct_degree_pattern(int_coeffs, p)
        if pat is None:
            continue
        if pat == [n]:
            return {p: pat}, examined
        sums = _subset_sum_bits(pat)
        if remaining & sums != remaining:
            kept[p] = pat
            remaining &= sums
            if not remaining:
                return kept, examined
    return None, examined
