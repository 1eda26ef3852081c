"""The graded ring Q[E2, E4, E6] of quasimodular forms.

A form is a sparse polynomial in the three generators with exact rational
coefficients and a single homogeneous weight (2, 4 and 6 per exponent).  The
ring is closed under the normalized derivative q d/dq via the Ramanujan
identities

    (E2)' = (E2^2 - E4) / 12
    (E4)' = (E2 E4 - E6) / 3
    (E6)' = (E2 E6 - E4^2) / 2

which is what ``serre_derivative`` implements (over a common 12); forms with
no E2 content are classical modular forms in the E4/E6 basis.  Exact
q-expansions of forms are available for cross-checking anything computed
structurally.

A form holds integer numerators over one denominator, and the generator
q-expansions are integer series, so products, sums, derivatives and
substitution run on integers; a Fraction is formed only when a coefficient is
read.  The generator expansions and their powers are built once per run and
kept, keyed by (weight, exponent, number of terms), so substituting the forms
of many weights builds each power once.  Input is checked once, by the
constructor; a ring result is valid by construction and is only put in
lowest terms.  Sums, differences, products and scalar multiples are all one
multiply-accumulate, ``GradedForm.combination``: sum c * F * G over one
common denominator, reduced by a single gcd over the result's numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from .errors import DomainError, WeightMismatchError
from .exact import divisor_power_sum, bernoulli, format_rational

#: exponent triple (e2, e4, e6)
Monomial = tuple[int, int, int]
Scalar = Union[int, Fraction]


def _monomial_weight(mono: Monomial) -> int:
    e2, e4, e6 = mono
    return 2 * e2 + 4 * e4 + 6 * e6


class GradedForm:
    """Homogeneous polynomial in E2, E4, E6 with exact rational coefficients.

    ``GradedForm(weight, terms, den)`` is the form sum terms[m] / den * m; the
    terms may be ints or Fractions, and this constructor is the one place a
    weight, denominator or monomial is checked.  A form is stored as integer
    numerators over one positive denominator in lowest terms (``gcd(den,
    *nums) == 1``), so ring arithmetic runs on integers; ``terms`` and
    ``serialize`` form the Fractions when read.  Every operator is a call to
    ``combination``, and it and the derivative take one gcd over the
    numerators and denominator of their result.
    Immutable once constructed.  Zero coefficients are never stored; the zero
    form keeps a nominal weight but compares equal to any other zero form and
    combines additively with forms of any weight.
    """

    __slots__ = ("weight", "_nums", "_den")

    def __new__(cls, weight: int, terms: Mapping[Monomial, Scalar], den: int = 1) -> "GradedForm":
        if weight < 0 or weight % 2:
            raise DomainError(f"weight must be even and >= 0, got {weight}")
        if den <= 0:
            raise DomainError(f"denominator must be positive, got {den}")
        coeffs = {mono: Fraction(c) for mono, c in terms.items() if c}
        for mono in coeffs:
            if min(mono) < 0:
                raise DomainError(f"negative exponent in monomial {mono}")
            if _monomial_weight(mono) != weight:
                raise WeightMismatchError(
                    f"monomial {mono} has weight {_monomial_weight(mono)}, expected {weight}"
                )
        scale = math.lcm(*[c.denominator for c in coeffs.values()])
        nums = {mono: c.numerator * (scale // c.denominator) for mono, c in coeffs.items()}
        return cls._normalised(weight, nums, den * scale)

    @classmethod
    def _normalised(cls, weight: int, nums: Mapping[Monomial, int], den: int) -> "GradedForm":
        """The form sum nums[m] / den * m, with zero numerators dropped and the gcd divided out.

        Every ring result is built here unchecked: a sum of products and
        multiples of valid forms, or a derivative, is homogeneous, has
        non-negative exponents and a positive denominator by construction.
        """
        nums = {mono: n for mono, n in nums.items() if n}
        g = math.gcd(den, *nums.values())
        form = object.__new__(cls)
        form.weight = weight
        form._nums = {mono: n // g for mono, n in nums.items()} if g > 1 else nums
        form._den = den // g
        return form

    @classmethod
    def combination(
        cls, weight: int, terms: Sequence[tuple[Scalar, "GradedForm", Optional["GradedForm"]]]
    ) -> "GradedForm":
        """The form sum c * F * G over the terms (c, F, G) of the given weight; G None stands for 1.

        The one arithmetic path of the ring.  Every term is summed in integers
        over the lcm of the term denominators c.den * F.den * G.den, and the
        sum is put in lowest terms by a single gcd (``_normalised``).  A term
        whose forms are nonzero must have the given weight, or
        ``WeightMismatchError`` is raised; a zero form may have any weight.
        """
        dens = []
        for c, f, g in terms:
            if f._nums and (g is None or g._nums):
                w = f.weight + (g.weight if g is not None else 0)
                if w != weight:
                    raise WeightMismatchError(f"a term of weight {w} in a sum of weight {weight}")
            dens.append(c.denominator * f._den * (g._den if g is not None else 1))
        den = math.lcm(*dens)
        acc: dict[Monomial, int] = {}
        for (c, f, g), d in zip(terms, dens):
            mult = c.numerator * (den // d)
            if not mult:
                continue
            nums = f._nums
            if g is not None:
                nums = {}
                for (a2, a4, a6), na in f._nums.items():
                    for (b2, b4, b6), nb in g._nums.items():
                        mono = (a2 + b2, a4 + b4, a6 + b6)
                        nums[mono] = nums.get(mono, 0) + na * nb
            for mono, n in nums.items():
                acc[mono] = acc.get(mono, 0) + mult * n
        return cls._normalised(weight, acc, den)

    @classmethod
    def zero(cls, weight: int = 0) -> "GradedForm":
        return cls(weight, {})

    @classmethod
    def constant(cls, c: Scalar) -> "GradedForm":
        return cls(0, {(0, 0, 0): c})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def numerators(self) -> tuple[dict[Monomial, int], int]:
        """Integers nums, den with ``terms()[m] == Fraction(nums[m], den)``, in lowest terms."""
        return dict(self._nums), self._den

    def terms(self) -> dict[Monomial, Fraction]:
        return {mono: Fraction(n, self._den) for mono, n in self._nums.items()}

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedForm):
            return NotImplemented
        # a nonzero form's monomials fix its weight, and every zero form is {} over 1
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __repr__(self) -> str:
        return f"GradedForm({self.serialize()!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GradedForm") -> "GradedForm":
        return self._plus(1, other)

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self._plus(-1, other)

    def _plus(self, sign: int, other: "GradedForm") -> "GradedForm":
        if not isinstance(other, GradedForm):
            return NotImplemented
        weight = self.weight if self._nums else other.weight
        return GradedForm.combination(weight, [(1, self, None), (sign, other, None)])

    def __neg__(self) -> "GradedForm":
        return GradedForm.combination(self.weight, [(-1, self, None)])

    def __mul__(self, other: Union["GradedForm", Scalar]) -> "GradedForm":
        if isinstance(other, GradedForm):
            return GradedForm.combination(self.weight + other.weight, [(1, self, other)])
        if isinstance(other, (int, Fraction)):
            return GradedForm.combination(self.weight, [(other, self, None)])
        return NotImplemented

    __rmul__ = __mul__

    # -- canonical text form -------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: ``weight; e2,e4,e6:num/den; ...`` in lexicographic order."""
        parts = [str(self.weight)]
        for (e2, e4, e6), n in sorted(self._nums.items()):
            parts.append(f"{e2},{e4},{e6}:{format_rational(Fraction(n, self._den))}")
        return "; ".join(parts)


E2 = GradedForm(2, {(1, 0, 0): 1})
E4 = GradedForm(4, {(0, 1, 0): 1})
E6 = GradedForm(6, {(0, 0, 1): 1})
ONE = GradedForm.constant(1)

# q d/dq of each generator over a common 12, as (numerator, monomial) pairs applied in serre_derivative
_DERIVATIVE_RULES: dict[int, tuple[tuple[int, Monomial], ...]] = {
    0: ((1, (2, 0, 0)), (-1, (0, 1, 0))),  # E2: (E2^2 - E4) / 12
    1: ((4, (1, 1, 0)), (-4, (0, 0, 1))),  # E4: (E2 E4 - E6) / 3
    2: ((6, (1, 0, 1)), (-6, (0, 2, 0))),  # E6: (E2 E6 - E4^2) / 2
}


def serre_derivative(f: GradedForm) -> GradedForm:
    """The normalized derivative q d/dq on the quasimodular ring.

    Acts on the generators by the Ramanujan identities and extends as a
    derivation; raises the weight by 2 and annihilates constants.  On the
    q-expansion side this is exactly multiplication of the n-th coefficient
    by n, which the test-suite verifies term by term.
    """
    nums: dict[Monomial, int] = {}
    for mono, n in f._nums.items():
        for slot in range(3):
            e = mono[slot]
            if not e:
                continue
            lowered = list(mono)
            lowered[slot] = e - 1
            for rule_n, rule_mono in _DERIVATIVE_RULES[slot]:
                out = (
                    lowered[0] + rule_mono[0],
                    lowered[1] + rule_mono[1],
                    lowered[2] + rule_mono[2],
                )
                nums[out] = nums.get(out, 0) + n * e * rule_n
    return GradedForm._normalised(f.weight + 2, nums, 12 * f._den)


# -- exact truncated q-series (plain lists, index = power of q) --


def series_mul(a: Sequence[Scalar], b: Sequence[Scalar], n_terms: int) -> list[Scalar]:
    """Product of two q-series truncated to n_terms coefficients; integer series stay integer."""
    out: list[Scalar] = [0] * n_terms
    for i, x in enumerate(a[:n_terms]):
        if not x:
            continue
        for j, y in enumerate(b[: n_terms - i]):
            if y:
                out[i + j] += x * y
    return out


def q_derivative(a: list[Fraction]) -> list[Fraction]:
    """q d/dq of a q-series: multiply the n-th coefficient by n."""
    return [i * c for i, c in enumerate(a)]


@lru_cache(maxsize=None)
def generator_q_expansion(weight: int, n_terms: int) -> tuple[int, ...]:
    """q-expansion of the generator of the given weight (2, 4 or 6).

    The coefficient of q^n is -2k/B_k * sigma_{k-1}(n); k = 2, 4, 6 give the
    familiar integer series 1 - 24 sum, 1 + 240 sum, 1 - 504 sum.
    """
    if weight not in (2, 4, 6):
        raise DomainError(f"no generator of weight {weight}")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    scale = int(Fraction(-2 * weight) / bernoulli(weight))
    return (1, *[scale * divisor_power_sum(n, weight - 1) for n in range(1, n_terms)])


#: (weight, n_terms) -> the generator's powers 0, 1, ..., e_max built so far: a longer
#: tuple is built in full, then swapped in, so readers need no lock
_generator_powers: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _generator_power(weight: int, e: int, n_terms: int) -> tuple[int, ...]:
    """The generator of the given weight to the power e >= 0, as a truncated integer q-series.

    Each power is built once per run, from the one below it, and kept, like
    the generator expansions themselves.
    """
    powers = _generator_powers.get((weight, n_terms), ((1,) + (0,) * (n_terms - 1),))
    if e >= len(powers):
        gen = generator_q_expansion(weight, n_terms)
        grown = list(powers)
        while len(grown) <= e:
            grown.append(tuple(series_mul(grown[-1], gen, n_terms)))
        powers = _generator_powers[weight, n_terms] = tuple(grown)
    return powers[e]


def substitute_q_expansion(f: GradedForm, n_terms: int) -> list[Fraction]:
    """Evaluate a form as an exact truncated q-series.

    Substitutes the integer generator expansions, multiplies integer series
    and sums f's numerators; each q-coefficient is divided by f's denominator
    once.  Each generator power is built once per run, from the one below it
    (``_generator_power``), so the forms of many weights share them.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    total = [0] * n_terms
    for (e2, e4, e6), n in f._nums.items():
        cur = _generator_power(2, e2, n_terms)
        if e4:
            cur = series_mul(cur, _generator_power(4, e4, n_terms), n_terms)
        if e6:
            cur = series_mul(cur, _generator_power(6, e6, n_terms), n_terms)
        for i in range(n_terms):
            total[i] += n * cur[i]
    return [Fraction(t, f._den) for t in total]
