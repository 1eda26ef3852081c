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

The ring is one constructor, one multiply-accumulate, one derivative and one
substitution.  ``GradedForm(weight, terms, den)`` is the one place input is
checked; ``GradedForm.combination`` sums c * F * G over one common
denominator, reduced by a single gcd over the result's numerators;
``serre_derivative`` applies the rules above; ``substitute_q_expansion`` reads
a form as a q-series.  A form holds integer numerators over one denominator,
and the generator q-expansions are integer series, so all four run on
integers; ``numerators`` hands out the integers, and a Fraction is formed
only when a q-coefficient is read.  The generator powers are built once per
run and kept, keyed by (weight, number of terms), so substituting the forms
of many weights builds each power once.

Inside a form each monomial E2^e2 E4^e4 E6^e6 is held under one integer key,
(e2 << 2 SLOT) | (e4 << SLOT) | e6, with ``SLOT`` bits per exponent, so the
key of a product is the sum of the keys and ``combination``'s inner loop adds
two integers per pair of monomials.  ``serre_derivative`` and
``substitute_q_expansion`` read the exponents off each key, and
``numerators`` hands out exponent triples.  An exponent must fit its slot:
the constructor refuses one that does not, and ``combination`` and
``serre_derivative`` a result weight of 2^(SLOT + 1) or more, the first at
which an exponent of a monomial might not fit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import DomainError, WeightMismatchError
from .exact import divisor_power_sum, bernoulli

#: exponent triple (e2, e4, e6)
Monomial = tuple[int, int, int]
Scalar = Union[int, Fraction]

#: bits per exponent in a monomial's key, (e2 << 2 SLOT) | (e4 << SLOT) | e6
SLOT = 16
_MASK = (1 << SLOT) - 1
#: the least weight with a monomial whose exponent does not fit a slot (E2^(2^SLOT))
_WEIGHT_LIMIT = 2 << SLOT


def _monomial_weight(mono: Monomial) -> int:
    e2, e4, e6 = mono
    return 2 * e2 + 4 * e4 + 6 * e6


def _key(mono: Monomial) -> int:
    """The one integer key of a monomial whose exponents fit their slots; a product's key is the sum."""
    e2, e4, e6 = mono
    return e2 << 2 * SLOT | e4 << SLOT | e6


def _monomial(key: int) -> Monomial:
    """The exponents (e2, e4, e6) of a key, ``_key``'s inverse."""
    return key >> 2 * SLOT, key >> SLOT & _MASK, key & _MASK


def _check_weight_fits(weight: int) -> None:
    """``DomainError`` unless every monomial of a ring result of this weight fits the slots."""
    if weight >= _WEIGHT_LIMIT:
        raise DomainError(f"weight {weight} is past the {SLOT}-bit exponent slots (below {_WEIGHT_LIMIT})")


class GradedForm:
    """Homogeneous polynomial in E2, E4, E6 with exact rational coefficients.

    ``GradedForm(weight, terms, den)`` is the form sum terms[m] / den * m; the
    terms may be ints or Fractions, and this constructor is the one place a
    weight, denominator or monomial is checked.  A form is stored as integer
    numerators over one positive denominator in lowest terms (``gcd(den,
    *nums) == 1``), each under its monomial's integer key (``_key``), and read
    by ``numerators`` with exponent triples.  An exponent of ``2 ** SLOT`` or
    more raises ``DomainError``.  ``combination`` and
    ``serre_derivative`` build their results unchecked and take one gcd over
    the numerators and denominator.  Immutable once constructed; zero
    coefficients are never stored.
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
            if max(mono) > _MASK:
                raise DomainError(f"monomial {mono} has an exponent past the {SLOT}-bit slot")
            if _monomial_weight(mono) != weight:
                raise WeightMismatchError(
                    f"monomial {mono} has weight {_monomial_weight(mono)}, expected {weight}"
                )
        scale = math.lcm(*[c.denominator for c in coeffs.values()])
        nums = {_key(mono): c.numerator * (scale // c.denominator) for mono, c in coeffs.items()}
        return cls._normalised(weight, nums, den * scale)

    @classmethod
    def _normalised(cls, weight: int, nums: Mapping[int, int], den: int) -> "GradedForm":
        """The form sum nums[key] / den * monomial, with zero numerators dropped and the gcd divided out.

        Every ring result is built here unchecked: a sum of products and
        multiples of valid forms, or a derivative, is homogeneous, has
        non-negative exponents and a positive denominator by construction.
        """
        nums = {key: n for key, n in nums.items() if n}
        g = math.gcd(den, *nums.values())
        form = object.__new__(cls)
        form.weight = weight
        form._nums = {key: n // g for key, n in nums.items()} if g > 1 else nums
        form._den = den // g
        return form

    @classmethod
    def combination(
        cls, weight: int, terms: Sequence[tuple[Scalar, "GradedForm", Optional["GradedForm"]]]
    ) -> "GradedForm":
        """The form sum c * F * G over the terms (c, F, G) of the given weight; G None stands for 1.

        The one arithmetic path of the ring.  Every term is summed in integers
        over the lcm of the term denominators c.den * F.den * G.den, and the
        sum is put in lowest terms by a single gcd (``_normalised``); a
        product's monomial key is the sum of its factors' keys.  A term whose
        forms are nonzero must have the given weight, or
        ``WeightMismatchError`` is raised; a zero form may have any weight.  A
        weight of ``2 ** (SLOT + 1)`` or more raises ``DomainError``.
        """
        _check_weight_fits(weight)
        dens = []
        for c, f, g in terms:
            if f._nums and (g is None or g._nums):
                w = f.weight + (g.weight if g is not None else 0)
                if w != weight:
                    raise WeightMismatchError(f"a term of weight {w} in a sum of weight {weight}")
            dens.append(c.denominator * f._den * (g._den if g is not None else 1))
        den = math.lcm(*dens)
        acc: dict[int, int] = {}
        for (c, f, g), d in zip(terms, dens):
            mult = c.numerator * (den // d)
            if g is None:
                for key, n in f._nums.items():
                    acc[key] = acc.get(key, 0) + mult * n
                continue
            for key_a, na in f._nums.items():
                na *= mult  # once per outer numerator, not once per pair
                for key_b, nb in g._nums.items():
                    key = key_a + key_b
                    acc[key] = acc.get(key, 0) + na * nb
        return cls._normalised(weight, acc, den)

    def numerators(self) -> tuple[dict[Monomial, int], int]:
        """Integers nums, den, the form being sum nums[m] / den * m, in lowest terms; a copy keyed by exponent triples."""
        return {_monomial(key): n for key, n in self._nums.items()}, self._den


E2 = GradedForm(2, {(1, 0, 0): 1})

# q d/dq of each generator over a common 12, by the shift of the generator's slot in a key,
# as (numerator, monomial key) pairs applied in serre_derivative
_DERIVATIVE_RULES: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (2 * SLOT, ((1, _key((2, 0, 0))), (-1, _key((0, 1, 0))))),  # E2: (E2^2 - E4) / 12
    (SLOT, ((4, _key((1, 1, 0))), (-4, _key((0, 0, 1))))),  # E4: (E2 E4 - E6) / 3
    (0, ((6, _key((1, 0, 1))), (-6, _key((0, 2, 0))))),  # E6: (E2 E6 - E4^2) / 2
)


def serre_derivative(f: GradedForm) -> GradedForm:
    """The normalized derivative q d/dq on the quasimodular ring.

    Acts on the generators by the Ramanujan identities and extends as a
    derivation; raises the weight by 2 and annihilates constants.  On the
    q-expansion side this is exactly multiplication of the n-th coefficient
    by n, which the test-suite verifies term by term.  Each exponent is read
    off its slot of the key; a result weight of ``2 ** (SLOT + 1)`` or more
    raises ``DomainError``.
    """
    _check_weight_fits(f.weight + 2)
    nums: dict[int, int] = {}
    for key, n in f._nums.items():
        for shift, rules in _DERIVATIVE_RULES:
            e = key >> shift & _MASK
            if not e:
                continue
            lowered = key - (1 << shift)
            for rule_n, rule_key in rules:
                out = lowered + rule_key
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


#: (weight, n_terms) -> the generator's powers 0, 1, ..., e_max built so far, the one memo
#: of the generator series: a longer tuple is built in full, then swapped in, so readers need no lock
_generator_powers: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _generator_power(weight: int, e: int, n_terms: int) -> tuple[int, ...]:
    """The generator of the given weight to the power e >= 0, as a truncated integer q-series.

    Each power is built once per run, from the one below it, and kept; once
    power 1 is kept, it is the generator the higher powers are built with.
    """
    powers = _generator_powers.get((weight, n_terms), ((1,) + (0,) * (n_terms - 1),))
    if e >= len(powers):
        grown = list(powers)
        gen = grown[1] if len(grown) > 1 else generator_q_expansion(weight, n_terms)
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
    for key, n in f._nums.items():
        e2, e4, e6 = _monomial(key)
        cur = _generator_power(2, e2, n_terms)
        if e4:
            cur = series_mul(cur, _generator_power(4, e4, n_terms), n_terms)
        if e6:
            cur = series_mul(cur, _generator_power(6, e6, n_terms), n_terms)
        for i in range(n_terms):
            total[i] += n * cur[i]
    return [Fraction(t, f._den) for t in total]
