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
read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

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

    Stored as integer numerators over one positive denominator in lowest
    terms (``gcd(den, *nums) == 1``), so ring arithmetic runs on integers with
    one gcd per result; ``terms`` and ``serialize`` form the Fractions when
    read.  Immutable once constructed.  Zero coefficients are never stored;
    the zero form keeps a nominal weight but compares equal to any other zero
    form and combines additively with forms of any weight.
    """

    __slots__ = ("weight", "_nums", "_den", "_hash")

    def __init__(self, weight: int, terms: Mapping[Monomial, Scalar]):
        fracs = {mono: Fraction(c) for mono, c in terms.items()}
        den = math.lcm(*[c.denominator for c in fracs.values()])
        self._build(weight, {mono: c.numerator * (den // c.denominator) for mono, c in fracs.items()}, den)

    def _build(self, weight: int, nums: Mapping[Monomial, int], den: int) -> None:
        if weight < 0 or weight % 2:
            raise DomainError(f"weight must be even and >= 0, got {weight}")
        if den <= 0:
            raise DomainError(f"denominator must be positive, got {den}")
        clean: dict[Monomial, int] = {}
        for mono, n in sorted(nums.items()):
            if not n:
                continue
            if min(mono) < 0:
                raise DomainError(f"negative exponent in monomial {mono}")
            if _monomial_weight(mono) != weight:
                raise WeightMismatchError(
                    f"monomial {mono} has weight {_monomial_weight(mono)}, expected {weight}"
                )
            clean[mono] = n
        g = math.gcd(den, *clean.values())
        if g > 1:
            clean = {mono: n // g for mono, n in clean.items()}
        self.weight = weight
        self._nums = clean
        self._den = den // g
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_numerators(cls, weight: int, nums: Mapping[Monomial, int], den: int) -> "GradedForm":
        """The form sum nums[m] / den * m, with the same checks as the constructor."""
        form = cls.__new__(cls)
        form._build(weight, nums, den)
        return form

    @classmethod
    def zero(cls, weight: int = 0) -> "GradedForm":
        return cls(weight, {})

    @classmethod
    def constant(cls, c: Scalar) -> "GradedForm":
        return cls(0, {(0, 0, 0): Fraction(c)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def terms(self) -> dict[Monomial, Fraction]:
        return {mono: Fraction(n, self._den) for mono, n in self._nums.items()}

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedForm):
            return NotImplemented
        if not self._nums and not other._nums:
            return True
        return self.weight == other.weight and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._nums:
                self._hash = hash(())
            else:
                self._hash = hash((self.weight, self._den, tuple(self._nums.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"GradedForm({self.serialize()!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GradedForm") -> "GradedForm":
        if not isinstance(other, GradedForm):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.weight != other.weight:
            raise WeightMismatchError(
                f"cannot add weight {self.weight} to weight {other.weight}"
            )
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        nums = {mono: n * s for mono, n in self._nums.items()}
        for mono, n in other._nums.items():
            nums[mono] = nums.get(mono, 0) + n * t
        return GradedForm.from_numerators(self.weight, nums, den)

    def __neg__(self) -> "GradedForm":
        return GradedForm.from_numerators(self.weight, {m: -n for m, n in self._nums.items()}, self._den)

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self + (-other)

    def __mul__(self, other: Union["GradedForm", Scalar]) -> "GradedForm":
        if isinstance(other, GradedForm):
            nums: dict[Monomial, int] = {}
            for (a2, a4, a6), na in self._nums.items():
                for (b2, b4, b6), nb in other._nums.items():
                    mono = (a2 + b2, a4 + b4, a6 + b6)
                    nums[mono] = nums.get(mono, 0) + na * nb
            return GradedForm.from_numerators(self.weight + other.weight, nums, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return GradedForm.zero(self.weight)
            c = Fraction(other)
            return GradedForm.from_numerators(
                self.weight, {m: n * c.numerator for m, n in self._nums.items()}, self._den * c.denominator
            )
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "GradedForm":
        return self.__mul__(other)

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
    return GradedForm.from_numerators(f.weight + 2, nums, 12 * f._den)


# -- exact truncated q-series (plain lists, index = power of q) --


def series_mul(a: list[Scalar], b: list[Scalar], n_terms: int) -> list[Scalar]:
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


def substitute_q_expansion(f: GradedForm, n_terms: int) -> list[Fraction]:
    """Evaluate a form as an exact truncated q-series.

    Substitutes the integer generator expansions, multiplies integer series
    and sums f's numerators; each q-coefficient is divided by f's denominator
    once.  Powers of each generator are built incrementally so repeated
    exponents are cheap.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    gens = [generator_q_expansion(w, n_terms) for w in (2, 4, 6)]
    one = [1] + [0] * (n_terms - 1)
    powers: list[list[list[int]]] = [[one], [one], [one]]
    total = [0] * n_terms

    def power(slot: int, e: int) -> list[int]:
        cache = powers[slot]
        while len(cache) <= e:
            cache.append(series_mul(cache[-1], gens[slot], n_terms))
        return cache[e]

    for (e2, e4, e6), n in f._nums.items():
        cur = power(0, e2)
        if e4:
            cur = series_mul(cur, power(1, e4), n_terms)
        if e6:
            cur = series_mul(cur, power(2, e6), n_terms)
        for i in range(n_terms):
            total[i] += n * cur[i]
    return [Fraction(t, f._den) for t in total]
