"""Irreducibility certificates for rational polynomials.

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

Polynomials are sequences f_0 .. f_n of ints or rationals, constant term
first; the valuation criteria read f as the monic f / f_n
(``valuation_profile``).  Slope comparisons are cross-multiplied integer
comparisons throughout; nothing here touches floating point.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
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


def _degree(coeffs: Coeffs) -> int:
    if len(coeffs) < 2:
        raise DomainError("polynomial must have degree >= 1")
    return len(coeffs) - 1


def valuation_profile(coeffs: Coeffs, p: int) -> tuple[Valuation, ...]:
    """nu_p(f_r / f_n) for r < n, INFINITY for f_r = 0: the valuations of the monic f / f_n."""
    if not coeffs[-1]:
        raise DomainError("leading coefficient is zero")
    lead = valuation(coeffs[-1], p)
    return tuple(valuation(c, p) - lead if c else INFINITY for c in coeffs[:-1])


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
    """Newton polygon of the monic f / f_n, for f with nonzero constant term."""
    _degree(coeffs)
    if not coeffs[0]:
        raise DomainError("constant term is zero; factor out x first")
    return NewtonPolygon.from_valuations(p, [*valuation_profile(coeffs, p), 0])


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
    The document's "poly" is ``coeffs`` / ``divisor`` (f_n for Dumas, 1 for patterns).
    """

    poly_id: str
    coeffs: tuple[Union[int, Fraction], ...]
    divisor: Union[int, Fraction]
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

        Coefficients are divided and formatted here only: the scan keeps verdicts, not documents.
        """
        coeffs = [format_rational(Fraction(c, self.divisor)) for c in self.coeffs]
        poly = {"id": self.poly_id, "degree": len(self.coeffs) - 1, "coeffs": coeffs}
        return {"poly": poly, **copy.deepcopy(self.fields)}


def dumas_check(coeffs: Coeffs, p: int, poly_id: str = "poly") -> IrreducibilityCertificate:
    """Apply the valuation criterion at p to f / f_n; verdict is irreducible or inconclusive.

    Condition (i), the slope bound, is evaluated by the cross-multiplied
    comparison nu(a_r) * n >= nu(a_0) * (n - r); zero coefficients satisfy it
    vacuously.  Condition (ii) is gcd(|nu(a_0)|, n) = 1.  A zero constant term
    makes the chord undefined and yields "inconclusive".
    """
    n = _degree(coeffs)
    vals = valuation_profile(coeffs, p)
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
    return IrreducibilityCertificate(poly_id, tuple(coeffs), coeffs[-1], fields, reason, slope_ok)


# ---------------------------------------------------------------------------
# finite-field degree patterns (distinct-degree factorization, no splitting)
#
# A polynomial mod p is one nonnegative integer with coefficient i in slot i,
# bits [iW, (i+1)W) (Kronecker substitution), so one integer operation adds,
# scales or multiplies every slot at once.  Slots may exceed p until ``red``
# reduces all of them together.  Degree step 1 powers x to x^p mod f
# (``x_pow_p``).  It starts from x^e, e the longest prefix of p's bits with
# e < n: a monomial, already reduced, so it costs no product (for p < n it is
# x^p itself).  Each later bit squares by ``mulmod``, and a 1 bit multiplies
# by x as a shift, one fold of the top slot through x^n = -f_low (``neg_f``)
# and one ``red``.  When a step 2 runs, the DDF builds rows 0 .. t of the
# Frobenius matrix Q of f from x^p, once (Berlekamp 1967), t = ceil(n/2): row
# i is x^(ip) mod f, so h^p = sum_i h_i x^(ip) = A + x^(tp) B for any h mod f,
# with A = sum_{i<t} h_i x^(ip) and B = sum_{i<n-t} h_{t+i} x^(ip), and each
# later step is two half vector-matrix products and one ``mulmod`` instead of
# a powering (von zur Gathen and Shoup 1992).
#
# ``rem`` is the one remainder pass of both Euclids.  A dividend one degree
# above its divisor, as most are, takes an inverse-free two-slot step; any
# other goes through ``divmod``; the remainder comes back up to a nonzero
# square.  ``gcd`` loops over it on reduced operands (the DDF hands it a
# reduced h - x: slot 1 minus 1, or plus p - 1 where that slot is 0).
# ``disc_character`` loops over it on f and f' and keeps only the quadratic
# character of Res(f, f'): the DDF's squarefree test and, at odd p,
# Stickelberger's parity of the factor count.  ``divmod`` is the one loop
# that clears a dividend's top slot one at a time and keeps the quotient: for
# g / common, Barrett's x^(2n-2) // f and ``rem``'s longer passes.
#
# Slot bound: for deg f = n, no slot ever reaches B = max(n, 3) p (p + 1).  A
# product of two reduced polynomials of degree < n, or A or B, sums at most
# n terms below p^2 in a slot, and A plus a reduced x^(tp) B stays below
# t p^2 + p; a dividend starts reduced and each of its slots takes at most
# deg(divisor) <= n one-slot terms below p^2; ``rem``'s two-slot step on a
# reduced dividend stays below 3 p (p + 1), which is what the 3 covers at
# n = 2; a fold by x leaves each slot at most (p - 1) + (p - 1)^2 < B.  With
# S = bits(B - 1) and M = floor(2^S / p), floor(v M / 2^S) is floor(v / p) or
# one less for every slot v < 2^S, so one compare-and-subtract finishes the
# reduction; W (whole bytes) holds (B - 1) M, so v M never spills into the
# next slot.


class _PackedGF:
    """GF(p)[x] on packed integers of up to 2n - 1 slots, multiplying modulo the monic f of degree n."""

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        bound = max(n, 3) * p * (p + 1)
        self.p, self.n, self.s = p, n, (bound - 1).bit_length()
        self.m = (1 << self.s) // p
        self.w = -(-((bound - 1) * self.m).bit_length() // 8)  # bytes per slot
        self.W = W = 8 * self.w
        self.slot, self.shifts = (1 << W) - 1, range(0, n * W, W)
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
        slot = self.slot
        return [v >> i & slot for i in self.shifts]

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

    def rem(self, a: int, b: int) -> int:
        """s (a mod b), reduced, for reduced a and b with deg b >= 1, s a nonzero square mod p.

        A dividend exactly one degree above b, as most of Euclid's are, takes
        one pseudo-remainder step with no inverse: with b1, b0 the top two
        slots of b and a1, a0 those of a, q1 = a1 b1 and q0 = a0 b1 - a1 b0
        (mod p), the sum b1^2 a + ((p - q1) x + (p - q0)) b is 0 mod p in its
        two top slots, so its slots below deg b are b1^2 (a mod b), s = b1^2.
        On a reduced a each slot is at most (p - 1)^2 + 2 p (p - 1) =
        (p - 1)(3p - 1), below the kernel's slot bound, so a must be reduced.
        Any other dividend is ``divmod``'s remainder, s = 1.
        """
        p, W, slot = self.p, self.W, self.slot
        cut = (b.bit_length() - 1) // W * W
        if (a.bit_length() - 1) // W * W != cut + W:
            return self.divmod(a, b)[1]
        b1, a1 = b >> cut, a >> (cut + W)
        q1, q0 = a1 * b1 % p, ((a >> cut & slot) * b1 - a1 * (b >> (cut - W) & slot)) % p
        return self.red((b1 * b1 % p * a + ((p - q1) << W | p - q0) * b) & ((1 << cut) - 1))

    def gcd(self, a: int, b: int) -> int:
        """A gcd of the nonzero a and of b (which may be 0), up to a unit; b is divided by a first.

        Euclid over ``rem``, so both must be reduced, every slot below p.  A
        nonzero constant divisor ends the loop at once.  The result is reduced,
        and some nonzero multiple of the monic gcd: callers read only its
        degree and divide by it.
        """
        while a.bit_length() > self.W:  # deg a >= 1
            a, b = self.rem(b, a), a
        return a or b

    def disc_character(self) -> int:
        """chi(disc f), the quadratic character mod p: 0 exactly when f is not squarefree mod p.

        Euclid over ``rem`` on f and f' that keeps only some u with
        chi(u) = chi(Res(f, f')): a pass a = q b + r gives
        Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), a nonzero
        constant c gives Res(a, c) = c^(deg a), and r = 0 gives 0;
        disc f = (-1)^(n(n-1)/2) Res(f, f') for monic f.  A sign enters u as the
        factor -1, whose character is (-1)^((p-1)/2).  ``rem`` returns s r for a
        nonzero square s, and Res(b, s r) = s^(deg b) Res(b, r), so s drops out.
        At p = 2 the result is 0 or 1.
        """
        p, n = self.p, self.n
        f = [*self.unpack(self.f), 1]
        a, b = self.f, self.pack([i * c % p for i, c in enumerate(f)][1:])
        u = p - 1 if n * (n - 1) // 2 % 2 else 1  # (-1)^(n(n-1)/2)
        while b:
            da, db = self.degree(a), self.degree(b)
            if not db:
                if da % 2:
                    u = u * b % p
                return 1 if pow(u, (p - 1) // 2, p) == 1 else -1
            r = self.rem(a, b)
            if da * db % 2:
                u = p - u
            if (da - self.degree(r)) % 2:
                u = u * (b >> db * self.W) % p
            a, b = b, r
        return 0

    def mulmod(self, a: int, b: int) -> int:
        """a b mod f for reduced a, b of degree < n (polynomial Barrett)."""
        prod = self.red(a * b)
        nw = self.n * self.W
        q = self.red((prod >> nw) * self.barrett_g) >> (nw - 2 * self.W)
        return self.red((prod & self.low) + (q * self.neg_f & self.low))

    def x_pow_p(self) -> int:
        """x^p mod f, from the monomial x^e for the longest prefix e of p's bits with e < n."""
        bits = bin(self.p)[2:]
        i = (self.n - 1).bit_length()
        if int(bits[:i], 2) >= self.n:
            i -= 1
        h, nw = 1 << (int(bits[:i], 2) * self.W), self.n * self.W
        for bit in bits[i:]:
            h = self.mulmod(h, h)
            if bit == "1":
                h <<= self.W  # times x, then x^n = -f_low folds the top slot
                h = self.red((h & self.low) + (h >> nw) * self.neg_f)
        return h

    def frobenius_rows(self, xp: int) -> tuple[list[int], int]:
        """Rows x^(ip) mod f of Q for i < t = ceil(n/2), and row t, from xp = x^p mod f."""
        rows = [1, xp]
        for _ in range((self.n + 1) // 2 - 1):
            rows.append(self.mulmod(rows[-1], xp))
        return rows, rows.pop()

    def frobenius(self, h: int, rows: list[int], top: int) -> int:
        """h^p mod f for a reduced h, as A + x^(tp) B from ``frobenius_rows``."""
        c = self.unpack(h)
        a, b = sum(map(mul, c, rows)), sum(map(mul, c[len(rows) :], rows))
        return self.red(a + self.mulmod(self.red(b), top))


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
    reduced mod g before each gcd, which is valid because g divides f.  At
    odd p the loop stops at its last factor: after step d, g has no factor
    of degree <= d, so if deg g < 3(d + 1) it has one or two, and
    Stickelberger's theorem (Swan 1962, Cor. 1), chi(disc f) = (-1)^(n - r)
    for a squarefree f with r factors mod p, says which.  chi(disc f), from
    ``_PackedGF.disc_character`` at the first such decision or else at the
    end, is 0 exactly when f mod p is not squarefree; the result is then
    None.  At p = 2 every element is a square, so the loop runs on.
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
    gf = _PackedGF([c % p * inv % p for c in int_coeffs], p)  # f / f_n mod p
    h = gf.x_pow_p()

    pattern: list[int] = []
    g = gf.f
    chi = None  # chi(disc f), once asked for
    d = 1
    while True:
        # gcd(g, h - x), h = x^(p^d) mod f; h - x reduced: slot 1 minus 1, or plus p - 1 where it is 0
        common = gf.gcd(g, h - (1 << gf.W) if h >> gf.W & gf.slot else h + ((p - 1) << gf.W))
        if gf.degree(common) > 0:
            pattern.extend([d] * (gf.degree(common) // d))
            g = gf.divmod(g, common)[0]
            if remaining is not None:
                sums = _subset_sum_bits(pattern)
                if remaining & (sums | sums << gf.degree(g)) == remaining:
                    return None  # no split of g can shrink remaining
        m = gf.degree(g)
        if m < 2 * (d + 1):
            break
        if p > 2 and m < 3 * (d + 1):  # g has one or two factors, all of degree > d
            if chi is None:
                chi = gf.disc_character()
                if not chi:
                    return None  # f mod p is not squarefree
            if chi == (-1) ** (n - len(pattern) - 1):
                break  # Stickelberger: an odd number of factors left, so g is irreducible
        d += 1
        if d == 2:
            rows, top = gf.frobenius_rows(h)
        h = gf.frobenius(h, rows, top)  # now x^(p^d) mod f
    if gf.degree(g) > 0:
        pattern.append(gf.degree(g))
    if chi is None and not gf.disc_character():
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
    n = _degree(int_coeffs)
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
    return IrreducibilityCertificate(poly_id, tuple(int_coeffs), 1, fields, reason)


def finite_field_degree_patterns(
    int_coeffs: Sequence[int], primes: Sequence[int], poly_id: str = "poly"
) -> IrreducibilityCertificate:
    """Degree-pattern oracle over an explicit prime list.

    The input must be a primitive integer polynomial (callers clear
    denominators).  Primes with non-squarefree reduction, or dividing the
    leading coefficient, are skipped and recorded; the verdict is that of
    ``assemble_pattern_certificate`` on the rest.
    """
    _degree(int_coeffs)
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
    _degree(coeffs)
    lcm = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def primes_above(floor: int) -> Iterator[int]:
    """The primes above ``floor``, ascending: the order both witness walks examine."""
    return filter(is_prime, itertools.count(max(floor, 1) + 1))


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
    for examined, p in enumerate(itertools.islice(primes_above(floor), _WITNESS_PRIMES_EXAMINED), 1):
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
        if len(kept) == ORACLE_PRIME_COUNT:
            break
    return None, examined
