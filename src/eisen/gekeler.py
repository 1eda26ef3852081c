"""Monic polynomials in X = j encoding the non-elliptic zeros of E_k.

Every even weight k >= 4 decomposes uniquely as k = 12m + 4*delta + 6*epsilon
with delta in {0, 1, 2} and epsilon in {0, 1}; then

    E_k = Delta^m E_4^delta E_6^epsilon phi_k(j),

where Delta = (E_4^3 - E_6^2)/1728 and j = E_4^3/Delta, and phi_k is the monic
degree-m polynomial whose roots are the j-invariants of the zeros of E_k away
from j = 0 and j = 1728.  Two routes compute phi_k: exact division in the
E4/E6 basis (works for every even k) and, for k = 0 mod 12, a closed-form
expression for each coefficient directly in terms of the expansion vector
w(k).  The routes must agree exactly.

Both routes work on integers over one common denominator.  Each cancels the
denominator of 1/r_k against the part of that denominator which does not
depend on the coefficient index, by one gcd per weight, and hands the
numerators and that denominator to ``GekelerPolynomial.from_ratio``, which
keeps phi_k's primitive integer polynomial.  Each reads its binomial sum as
the coefficients of a polynomial, sum_a v_a x^a (1 + c x)^(m - a), built by
Horner's rule: adds and small multiples, with no binomial coefficient.  They
share no helper: division reads E_k's numerators off
``EisensteinTable.e_basis_numerators``, the closed form scales w(k) itself,
and each runs its own Horner loop, so each stays the other's cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError
from .exact import INFINITY, Valuation, valuation, zeta_ratio
from .eisenstein import EisensteinTable

# k mod 12 -> (delta, epsilon); the degree is m = (k - 4*delta - 6*epsilon)/12
_ELLIPTIC: dict[int, tuple[int, int]] = {
    0: (0, 0),
    2: (2, 1),
    4: (1, 0),
    6: (0, 1),
    8: (2, 0),
    10: (1, 1),
}


def elliptic_exponents(k: int) -> tuple[int, int, int]:
    """(m, delta, epsilon) with k = 12m + 4*delta + 6*epsilon, even k >= 4."""
    if k < 4 or k % 2:
        raise DomainError(f"k must be even and >= 4, got {k}")
    delta, epsilon = _ELLIPTIC[k % 12]
    m = (k - 4 * delta - 6 * epsilon) // 12
    return m, delta, epsilon


@dataclass(frozen=True)
class GekelerPolynomial:
    """Monic polynomial phi_k in X = j attached to weight k, plus elliptic exponents.

    ``ints`` is phi_k's primitive integer polynomial, constant term first, leading
    coefficient > 0; ``coeffs`` = ints / ints[-1] is formed on first read and kept.
    """

    k: int
    ints: tuple[int, ...]
    delta: int
    epsilon: int

    def __post_init__(self) -> None:
        m = len(self.ints) - 1
        if self.ints[-1] <= 0 or math.gcd(*self.ints) != 1:
            raise ConsistencyError(f"phi_{self.k} is not held as a primitive integer polynomial: {self.ints}")
        if self.k != 12 * m + 4 * self.delta + 6 * self.epsilon:
            raise ConsistencyError(
                f"weight bookkeeping broken: k={self.k}, m={m}, delta={self.delta}, epsilon={self.epsilon}"
            )
        if self.delta not in (0, 1, 2) or self.epsilon not in (0, 1):
            raise ConsistencyError(f"elliptic exponents out of range: {self.delta}, {self.epsilon}")

    @classmethod
    def from_ratio(cls, k: int, nums: list[int], den: int, delta: int, epsilon: int) -> "GekelerPolynomial":
        """phi_k = nums / den, constant term first; ConsistencyError unless it is monic (nums[-1] == den)."""
        if nums[-1] != den:
            raise ConsistencyError(f"phi_{k} came out non-monic: leading {Fraction(nums[-1], den)}")
        g = math.gcd(*nums) if den > 0 else -math.gcd(*nums)
        return cls(k, tuple(n // g for n in nums), delta, epsilon)

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.ints[-1]) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def __str__(self) -> str:
        m = self.degree
        if m == 0:
            return "1"
        pieces = []
        for r in range(m, -1, -1):
            c = self.coeffs[r]
            if not c:
                continue
            mono = "X" if r == 1 else f"X^{r}" if r else ""
            if r == m:
                pieces.append(mono)
            else:
                sign = " - " if c < 0 else " + "
                mag = abs(c)
                coeff_s = f"{mag}" if mag != 1 or not mono else ""
                sep = "*" if coeff_s and mono else ""
                pieces.append(f"{sign}{coeff_s}{sep}{mono}")
        return "".join(pieces)


def phi_by_division(k: int, table: EisensteinTable) -> GekelerPolynomial:
    """phi_k by exact division of E_k by Delta^m E_4^delta E_6^epsilon.

    After stripping the elliptic factors, every remaining monomial is a power
    of A = E_4^3 times a power of B = E_6^2 with total Delta-degree m (as
    4a + 6b = k); the substitution B = A - 1728*Delta rewrites the quotient as
    a polynomial in j = A/Delta.  Each structural step that could leave a
    remainder is checked and raises ConsistencyError if violated, as
    ``GekelerPolynomial`` does for a non-monic result or a wrong degree.

    With E_k = sum nums[a] / (scale r_k) E4^a E6^b from ``e_basis_numerators``
    and p_alpha the summed numerators of A^alpha B^(m-alpha),

        t_{k,r} = (-1728)^(m - r) sum_alpha p_alpha C(m - alpha, r - alpha) / (scale r_k).

    1/(scale r_k) is r_k.denominator / (r_k.numerator scale), and
    gcd(r_k.denominator, scale) is cancelled once per weight (at k = 446
    r_k.denominator divides scale and a 545-bit factor of scale is left).  The sum over alpha is the x^r
    coefficient of sum_alpha p_alpha x^alpha (1 + x)^(m - alpha), built by
    Horner in (1 + x): s <- s (1 + x) + p_alpha x^alpha, adds only.
    """
    m, delta, epsilon = elliptic_exponents(k)
    nums, scale = table.e_basis_numerators(k)
    r_k = zeta_ratio(k)
    g = math.gcd(r_k.denominator, scale)
    up, den = r_k.denominator // g, r_k.numerator * (scale // g)

    # strip E4^delta E6^epsilon, then fold into p_alpha * A^alpha * B^(m-alpha)
    p: dict[int, int] = {}
    for a, num in nums.items():
        b = (k - 4 * a) // 6
        a2, b2 = a - delta, b - epsilon
        if a2 < 0 or b2 < 0:
            raise ConsistencyError(
                f"E_{k} is not divisible by E4^{delta} E6^{epsilon}: monomial ({a},{b})"
            )
        if a2 % 3 or b2 % 2:
            raise ConsistencyError(f"non-cube/non-square residue at weight {k}: ({a2},{b2})")
        p[a2 // 3] = p.get(a2 // 3, 0) + num

    # Horner in (1 + x): s[r] = sum_alpha p_alpha C(m - alpha, r - alpha)
    s: list[int] = []
    for alpha in range(m + 1):
        s.append(p.get(alpha, 0))
        for i in range(alpha, 0, -1):
            s[i] += s[i - 1]
    nums = [s[r] * (-1728) ** (m - r) * up for r in range(m + 1)]
    return GekelerPolynomial.from_ratio(k, nums, den, delta, epsilon)


def phi_closed_form(k: int, table: EisensteinTable) -> GekelerPolynomial:
    """phi_k for k = 0 mod 12 by the closed coefficient formula

        t_{k,r} = (2 / r_k) (-1)^(k/12 - r)
                  sum_{a=0}^{r} w_{3a,k} 2^(2k/3 - 6r - 2a - 1)
                                / (3^(k/4 + 3r) 5^(a + k/6) 7^(k/6 - 2a))
                                * C(k/12 - a, k/12 - r)

    with r_k = 2 zeta(k)/pi^k.  Cross-checked against phi_by_division; any
    discrepancy is a hard failure in the callers that compare routes.

    The a-dependent factor (49/20)^a is 49^a 20^(r-a) / 20^r; with w over the
    lcm D of its denominators and v_a = D w_{3a,k} 49^a,
    S_r = sum_a v_a 20^(r-a) C(m - a, m - r) is an integer and
    t_{k,r} = (-1)^(k/12 - r) S_r 2^(2k/3 - 8r) / (r_k D 3^(k/4 + 3r) 5^(k/6 + r) 7^(k/6)).
    r_k's denominator is cancelled once per weight against
    D 3^(k/4) 5^(k/6) 7^(k/6), the part free of r.  Since
    20^(r-a) C(m - a, r - a) is the x^(r-a) coefficient of (1 + 20x)^(m - a),
    S_r is the x^r coefficient of sum_a v_a x^a (1 + 20x)^(m - a), built by
    Horner in (1 + 20x): s <- s (1 + 20x) + v_a x^a.
    """
    if k % 12:
        raise DomainError(f"closed form needs k = 0 mod 12, got {k}")
    if k < 12:
        raise DomainError(f"k must be >= 12, got {k}")
    m = k // 12
    vec = table.w_vector(k)
    r_k = zeta_ratio(k)
    den = math.lcm(*[w.denominator for w in vec.values()])
    lifted = {a: w.numerator * (den // w.denominator) * 49**a for a in range(m + 1) if (w := vec.get(3 * a))}
    free = den * 3 ** (k // 4) * 5 ** (k // 6) * 7 ** (k // 6)
    g = math.gcd(r_k.denominator, free)
    up, fixed = r_k.denominator // g, r_k.numerator * (free // g)
    # Horner in (1 + 20x): s[r] = S_r = sum_a v_a 20^(r-a) C(m - a, m - r)
    s: list[int] = []
    for a in range(m + 1):
        s.append(lifted.get(a, 0))
        for i in range(a, 0, -1):
            s[i] += 20 * s[i - 1]
    # over the one denominator fixed 3^(3m) 5^m = fixed 135^m
    nums = [s[r] * (-135) ** (m - r) * up << (2 * k // 3 - 8 * r) for r in range(m + 1)]
    return GekelerPolynomial.from_ratio(k, nums, fixed * 135**m, 0, 0)


def valuation_profile(phi: GekelerPolynomial, p: int) -> tuple[Valuation, ...]:
    """(nu_p(t_0), ..., nu_p(t_{m-1})): valuations of the non-leading coefficients, nu_p(ints_r) - nu_p(ints_m)."""
    lead = valuation(phi.ints[-1], p)
    return tuple(valuation(c, p) - lead if c else INFINITY for c in phi.ints[:-1])
