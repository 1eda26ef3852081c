"""The graded ring Q[E2, E4, E6] of quasimodular forms.

A form is a sparse polynomial in the three generators with exact rational
coefficients and a single homogeneous weight (2, 4 and 6 per exponent).  The
ring is closed under the normalized derivative q d/dq via the Ramanujan
identities

    (E2)' = (E2^2 - E4) / 12
    (E4)' = (E2 E4 - E6) / 3
    (E6)' = (E2 E6 - E4^2) / 2

which is what ``serre_derivative`` implements; forms with no E2 content are
classical modular forms in the E4/E6 basis.  Exact q-expansions of forms are
available for cross-checking anything computed structurally.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .errors import DomainError, WeightMismatchError
from .exact import divisor_power_sum, bernoulli, format_rational, parse_integer, parse_rational

#: exponent triple (e2, e4, e6)
Monomial = tuple[int, int, int]
Scalar = Union[int, Fraction]


def _monomial_weight(mono: Monomial) -> int:
    e2, e4, e6 = mono
    return 2 * e2 + 4 * e4 + 6 * e6


class GradedForm:
    """Homogeneous polynomial in E2, E4, E6 with Fraction coefficients.

    Immutable once constructed.  Zero coefficients are never stored; the zero
    form keeps a nominal weight but compares equal to any other zero form and
    combines additively with forms of any weight.
    """

    __slots__ = ("weight", "_terms", "_hash")

    def __init__(self, weight: int, terms: Mapping[Monomial, Scalar]):
        if weight < 0 or weight % 2:
            raise DomainError(f"weight must be even and >= 0, got {weight}")
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in sorted(terms.items()):
            c = Fraction(coeff)
            if not c:
                continue
            if min(mono) < 0:
                raise DomainError(f"negative exponent in monomial {mono}")
            if _monomial_weight(mono) != weight:
                raise WeightMismatchError(
                    f"monomial {mono} has weight {_monomial_weight(mono)}, expected {weight}"
                )
            clean[mono] = c
        self.weight = weight
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, weight: int = 0) -> "GradedForm":
        return cls(weight, {})

    @classmethod
    def constant(cls, c: Scalar) -> "GradedForm":
        return cls(0, {(0, 0, 0): Fraction(c)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_e2_free(self) -> bool:
        return all(e2 == 0 for (e2, _, _) in self._terms)

    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedForm):
            return NotImplemented
        if not self._terms and not other._terms:
            return True
        return self.weight == other.weight and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._terms:
                self._hash = hash(())
            else:
                self._hash = hash((self.weight, tuple(self._terms.items())))
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
        terms = dict(self._terms)
        for mono, c in other._terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return GradedForm(self.weight, terms)

    def __neg__(self) -> "GradedForm":
        return GradedForm(self.weight, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self + (-other)

    def __mul__(self, other: Union["GradedForm", Scalar]) -> "GradedForm":
        if isinstance(other, GradedForm):
            terms: dict[Monomial, Fraction] = {}
            for (a2, a4, a6), ca in self._terms.items():
                for (b2, b4, b6), cb in other._terms.items():
                    mono = (a2 + b2, a4 + b4, a6 + b6)
                    terms[mono] = terms.get(mono, Fraction(0)) + ca * cb
            return GradedForm(self.weight + other.weight, terms)
        if isinstance(other, (int, Fraction)):
            if not other:
                return GradedForm.zero(self.weight)
            return GradedForm(self.weight, {m: c * other for m, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "GradedForm":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "GradedForm":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- canonical text form -------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: ``weight; e2,e4,e6:num/den; ...`` in lexicographic order."""
        parts = [str(self.weight)]
        for (e2, e4, e6), c in sorted(self._terms.items()):
            parts.append(f"{e2},{e4},{e6}:{format_rational(c)}")
        return "; ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "GradedForm":
        chunks = [s.strip() for s in text.split(";")]
        weight = parse_integer(chunks[0])
        terms: dict[Monomial, Fraction] = {}
        for chunk in chunks[1:]:
            if not chunk:
                continue
            mono_s, _, coeff_s = chunk.partition(":")
            e2, e4, e6 = (parse_integer(e) for e in mono_s.split(","))
            terms[(e2, e4, e6)] = parse_rational(coeff_s)
        return cls(weight, terms)


E2 = GradedForm(2, {(1, 0, 0): 1})
E4 = GradedForm(4, {(0, 1, 0): 1})
E6 = GradedForm(6, {(0, 0, 1): 1})
ONE = GradedForm.constant(1)

# q d/dq of each generator, as (coeff, monomial) pairs applied in serre_derivative
_DERIVATIVE_RULES: dict[int, tuple[tuple[Fraction, Monomial], ...]] = {
    0: ((Fraction(1, 12), (2, 0, 0)), (Fraction(-1, 12), (0, 1, 0))),  # E2
    1: ((Fraction(1, 3), (1, 1, 0)), (Fraction(-1, 3), (0, 0, 1))),    # E4
    2: ((Fraction(1, 2), (1, 0, 1)), (Fraction(-1, 2), (0, 2, 0))),    # E6
}


def serre_derivative(f: GradedForm) -> GradedForm:
    """The normalized derivative q d/dq on the quasimodular ring.

    Acts on the generators by the Ramanujan identities and extends as a
    derivation; raises the weight by 2 and annihilates constants.  On the
    q-expansion side this is exactly multiplication of the n-th coefficient
    by n, which the test-suite verifies term by term.
    """
    terms: dict[Monomial, Fraction] = {}
    for mono, c in f._terms.items():
        for slot in range(3):
            e = mono[slot]
            if not e:
                continue
            lowered = list(mono)
            lowered[slot] = e - 1
            for rule_c, rule_mono in _DERIVATIVE_RULES[slot]:
                out = (
                    lowered[0] + rule_mono[0],
                    lowered[1] + rule_mono[1],
                    lowered[2] + rule_mono[2],
                )
                terms[out] = terms.get(out, Fraction(0)) + c * e * rule_c
    return GradedForm(f.weight + 2, terms)


# -- exact truncated q-series (plain lists of Fractions, index = power of q) --


def series_mul(a: list[Fraction], b: list[Fraction], n_terms: int) -> list[Fraction]:
    """Product of two q-series truncated to n_terms coefficients."""
    out = [Fraction(0)] * n_terms
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
def generator_q_expansion(weight: int, n_terms: int) -> tuple[Fraction, ...]:
    """q-expansion of the generator of the given weight (2, 4 or 6).

    The coefficient of q^n is -2k/B_k * sigma_{k-1}(n); k = 2, 4, 6 give the
    familiar 1 - 24 sum, 1 + 240 sum, 1 - 504 sum.
    """
    if weight not in (2, 4, 6):
        raise DomainError(f"no generator of weight {weight}")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    scale = Fraction(-2 * weight) / bernoulli(weight)
    out = [Fraction(1)]
    for n in range(1, n_terms):
        out.append(scale * divisor_power_sum(n, weight - 1))
    return tuple(out)


def substitute_q_expansion(f: GradedForm, n_terms: int) -> list[Fraction]:
    """Evaluate a form as an exact truncated q-series.

    Substitutes the generator expansions and multiplies series exactly; powers
    of each generator are built incrementally so repeated exponents are cheap.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    gens = [list(generator_q_expansion(w, n_terms)) for w in (2, 4, 6)]
    one = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    powers: list[list[list[Fraction]]] = [[one], [one], [one]]
    total = [Fraction(0)] * n_terms

    def power(slot: int, e: int) -> list[Fraction]:
        cache = powers[slot]
        while len(cache) <= e:
            cache.append(series_mul(cache[-1], gens[slot], n_terms))
        return cache[e]

    for (e2, e4, e6), c in f._terms.items():
        cur = power(0, e2)
        if e4:
            cur = series_mul(cur, power(1, e4), n_terms)
        if e6:
            cur = series_mul(cur, power(2, e6), n_terms)
        for i in range(n_terms):
            if cur[i]:
                total[i] += c * cur[i]
    return total
