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
witness: both kinds of certificate can be re-verified from their JSON form
alone by the re-checkers of ``eisen.recheck``, which import only the standard
library.

Polynomials are sequences of rationals, constant term first, leading
coefficient included.  Slope comparisons are cross-multiplied integer
comparisons throughout; nothing here touches floating point.
"""

from __future__ import annotations

import contextlib
import copy
import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DomainError, InvalidPrimeError
from .exact import INFINITY, Valuation, format_rational, is_prime, json_valuation, valuation

Coeffs = Sequence[Union[int, Fraction]]

#: witness primes the finite-field oracle keeps per polynomial, at most
ORACLE_PRIME_COUNT = 10

#: primes ``select_witness_primes`` examines per polynomial, at most
_WITNESS_PRIMES_EXAMINED = 120


def _as_fractions(coeffs: Coeffs) -> list[Fraction]:
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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
# finite-field degree patterns (distinct-degree factorization, no splitting)
#
# A polynomial mod p is one nonnegative integer with coefficient i in slot i,
# bits [iW, (i+1)W) (Kronecker substitution), so one integer operation adds,
# scales or multiplies every slot at once.  Slots may exceed p until ``red``
# reduces all of them together.  Degree step 1 powers x to x^p mod f; when a
# step 2 runs, the DDF builds the Frobenius matrix Q of f from it, once
# (Berlekamp 1967): row i is x^(ip) mod f, so h^p = sum_i h_i x^(ip) = h Q for
# any h mod f, and each later step is one vector-matrix product instead of a
# powering (von zur Gathen and Shoup 1992).
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


#: the witness walk's nonzero bitmask of proper degrees not yet excluded,
#: set by ``select_witness_primes`` around each of its DDF calls and None
#: elsewhere.  It travels beside the call, not in it, so the walk calls
#: ``distinct_degree_pattern(int_coeffs, p)`` as every other caller does and
#: a wrapper written for that signature (a tracer, a fault injector) still
#: sees and can replace every pattern of the walk.
_WALK_REMAINING: ContextVar[Optional[int]] = ContextVar("walk_remaining", default=None)


@contextlib.contextmanager
def _walk_remaining(remaining: int) -> Iterator[None]:
    """DDF calls in the block serve a walk whose unexcluded degrees are ``remaining``."""
    token = _WALK_REMAINING.set(remaining)
    try:
        yield
    finally:
        _WALK_REMAINING.reset(token)


def distinct_degree_pattern(int_coeffs: Sequence[int], p: int) -> Optional[list[int]]:
    """Degree multiset of the irreducible factors of f mod p, or None.

    Returns None when the reduction is unusable: p divides the leading
    coefficient, or f mod p is not squarefree.  Uses distinct-degree
    factorization only; the factors themselves are never split, so the result
    is deterministic.  The returned multiset always sums to deg f.

    Inside the witness walk (``_walk_remaining``), whose nonzero bitmask
    ``remaining`` holds the proper degrees not yet excluded, only a pattern
    that can shrink it is asked for: the result is then also None when the
    pattern's subset sums cover ``remaining``.  The loop stops as soon as
    they must: the subset sums of the parts found so far, with the
    unfactored rest g counted as one part, are subset sums of the final
    pattern, since splitting g only adds sums.  Degree 1 has no proper
    degree (the walk's mask is 0) and returns [1].  Outside the walk the
    full pattern is returned.

    h tracks x^(p^d) mod f and g the part of f not yet factored; h - x is
    reduced mod g before each gcd, which is valid because g divides f.  The
    squarefree test runs last, so a non-squarefree f runs the loop on
    meaningless parts whose pattern is then thrown away.
    """
    if not is_prime(p):
        raise InvalidPrimeError(f"p = {p} is not prime")
    if int_coeffs[-1] % p == 0:
        return None
    n = len(int_coeffs) - 1
    if n < 1:
        return None
    if n == 1:
        return [1]
    remaining = _WALK_REMAINING.get()
    inv = pow(int_coeffs[-1], -1, p)
    f = [c % p * inv % p for c in int_coeffs]
    gf = _PackedGF(f, p)

    x = gf.pack([0, 1])
    h = x
    for bit in bin(p)[3:]:  # x^p mod f, most significant bit first
        h = gf.mulmod(h, h)
        if bit == "1":
            h = gf.mulmod(h, x)
    q = [1, h]  # rows 0 and 1 of Q; the rest once step 2 runs

    pattern: list[int] = []
    g = gf.f
    d = 1
    while True:
        common = gf.gcd(g, h + ((p - 1) << gf.W))  # gcd(g, h - x), h = x^(p^d) mod f
        if gf.degree(common) > 0:
            pattern.extend([d] * (gf.degree(common) // d))
            g = gf.divmod(g, common)[0]
            if remaining is not None:
                sums = _subset_sum_bits(pattern)
                if remaining & (sums | sums << gf.degree(g)) == remaining:
                    return None  # no split of g can shrink remaining
        if gf.degree(g) < 2 * (d + 1):
            break
        d += 1
        if d == 2:
            for _ in range(n - 2):
                q.append(gf.mulmod(q[-1], q[1]))
        h = gf.red(sum(map(mul, gf.unpack(h), q)))  # h^p, now x^(p^d) mod f
    if gf.degree(g) > 0:
        pattern.append(gf.degree(g))
    if gf.degree(gf.gcd(gf.f, gf.pack([i * c for i, c in enumerate(f)][1:]))) > 0:
        return None  # f and f' share a factor (or f' = 0)
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
    not-yet-excluded proper factor degrees, and stops as soon as the kept
    patterns jointly exclude every proper degree.  The DDF runs inside
    ``_walk_remaining`` of that set, so it returns a pattern only for a prime
    to keep and stops early at the others; unusable reductions are skipped
    as well.
    Returns (kept, primes_examined), where kept maps each kept prime to its
    pattern in the order kept, ready for ``assemble_pattern_certificate``;
    kept is None if no proof emerged within the fixed caps
    (``ORACLE_PRIME_COUNT`` primes kept, 120 examined), which is the honest
    outcome for a reducible input.
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
        with _walk_remaining(remaining):
            pat = distinct_degree_pattern(int_coeffs, p)
        if pat is None:
            continue
        if pat == [n]:
            return {p: pat}, examined
        kept[p] = pat
        remaining &= _subset_sum_bits(pat)
        if not remaining:
            return kept, examined
    return None, examined
