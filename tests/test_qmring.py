import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisen.errors import DomainError, WeightMismatchError
from eisen.exact import zeta_ratio
from eisen.qmring import (
    E2,
    E4,
    E6,
    ONE,
    GradedForm,
    generator_q_expansion,
    q_derivative,
    series_mul,
    serre_derivative,
    substitute_q_expansion,
)

R2, R4, R6 = zeta_ratio(2), zeta_ratio(4), zeta_ratio(6)


def random_form(rng: random.Random, weight: int) -> GradedForm:
    terms = {}
    for e2 in range(weight // 2 + 1):
        for e4 in range((weight - 2 * e2) // 4 + 1):
            rem = weight - 2 * e2 - 4 * e4
            if rem % 6:
                continue
            if rng.random() < 0.5:
                terms[(e2, e4, rem // 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return GradedForm(weight, terms)


class TestConstruction:
    def test_homogeneity_enforced(self):
        with pytest.raises(WeightMismatchError):
            GradedForm(8, {(1, 0, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            GradedForm(2, {(-1, 1, 0): 1})

    def test_odd_weight_rejected(self):
        with pytest.raises(DomainError):
            GradedForm(5, {})

    def test_zero_coefficients_dropped(self):
        f = GradedForm(4, {(0, 1, 0): 0, (2, 0, 0): 1})
        assert f.terms() == {(2, 0, 0): Fraction(1)}


class TestAddition:
    def test_cancellation_to_zero(self):
        cube = E4 * E4 * E4
        total = cube + (-cube)
        assert total.is_zero
        assert total.weight == 12

    def test_like_terms(self):
        assert 2 * (E4 * E6) + 3 * (E4 * E6) == 5 * (E4 * E6)

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatchError):
            (E4 * E4) + E6

    def test_zero_form_is_neutral(self):
        z = GradedForm.zero(12)
        assert z + E6 == E6
        assert E6 + z == E6


class TestMultiplication:
    def test_weights_add(self):
        assert (E4 * E6).weight == 10

    def test_identity(self):
        f = 3 * (E2 * E2) + E4
        assert f * ONE == f

    def test_difference_of_squares(self):
        e2sq = E2 * E2
        left = (E4 + e2sq) * (E4 - e2sq)
        assert left == E4 * E4 - e2sq * e2sq
        assert left.weight == 8

    def test_scalar_multiplication(self):
        assert (Fraction(1, 2) * E4).terms() == {(0, 1, 0): Fraction(1, 2)}
        assert (E4 * 0).is_zero

    def test_commutative_associative(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_form(rng, 8)
            g = random_form(rng, 10)
            h = random_form(rng, 6)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    def test_division_by_scalar(self):
        assert (E4 * Fraction(1, 2)) * 2 == E4


class TestSerreDerivative:
    def test_weight_four_generator_relation(self):
        # in the zeta-normalized basis: derivative of G_4 equals G_2 G_4 - (7/2) G_6
        left = R4 * serre_derivative(E4)
        right = (R2 * R4) * (E2 * E4) - Fraction(7, 2) * R6 * E6
        assert left == right

    def test_weight_six_generator_relation(self):
        left = R6 * serre_derivative(E6)
        right = Fraction(3, 2) * (R2 * R6) * (E2 * E6) - Fraction(15, 7) * (R4 * R4) * (E4 * E4)
        assert left == right

    def test_constants_annihilated(self):
        assert serre_derivative(ONE).is_zero
        assert serre_derivative(GradedForm.constant(Fraction(22, 7))).is_zero

    def test_raises_weight_by_two(self):
        assert serre_derivative(E6).weight == 8

    def test_leibniz_rule(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_form(rng, rng.choice((4, 6, 8)))
            g = random_form(rng, rng.choice((4, 6, 10)))
            lhs = serre_derivative(f * g)
            rhs = serre_derivative(f) * g + f * serre_derivative(g)
            assert lhs == rhs

    def test_commutes_with_q_derivative(self):
        for f in (E2, E4, E6, E4 * E6, E4 * E4 * E4):
            derived = substitute_q_expansion(serre_derivative(f), 20)
            direct = q_derivative(substitute_q_expansion(f, 20))
            assert derived == direct


class TestQExpansion:
    def test_generator_series(self):
        assert list(generator_q_expansion(4, 3)) == [1, 240, 2160]
        assert list(generator_q_expansion(6, 2)) == [1, -504]
        assert list(generator_q_expansion(2, 3)) == [1, -24, -72]

    def test_substitute_weight_four(self):
        assert substitute_q_expansion(E4, 3) == [1, 240, 2160]

    def test_substitute_constant(self):
        assert substitute_q_expansion(ONE, 5) == [1, 0, 0, 0, 0]

    def test_discriminant_series(self):
        # E4^3 - E6^2 = 1728 * Delta = 1728 q - 41472 q^2 + 435456 q^3 + ...
        f = E4 * E4 * E4 - E6 * E6
        assert substitute_q_expansion(f, 4) == [0, 1728, -41472, 435456]

    def test_series_mul_truncates(self):
        a = [Fraction(1), Fraction(2)]
        b = [Fraction(3), Fraction(4)]
        assert series_mul(a, b, 2) == [3, 10]

    def test_bad_term_count(self):
        with pytest.raises(DomainError):
            substitute_q_expansion(E4, 0)


class TestSerialization:
    def test_canonical_text(self):
        f = 2 * (E4 * E6) - GradedForm(10, {(3, 1, 0): Fraction(1, 3)})
        assert f.serialize() == "10; 0,1,1:2/1; 3,1,0:-1/3"

    def test_zero_form(self):
        z = GradedForm.zero(6)
        assert z.serialize() == "6"

    def test_canonical_order_is_sorted(self):
        f = GradedForm(8, {(0, 2, 0): 1, (4, 0, 0): 1, (1, 0, 1): 1})
        body = f.serialize().split("; ")[1:]
        assert body == sorted(body, key=lambda s: tuple(int(x) for x in s.split(":")[0].split(",")))


class TestEquality:
    def test_zero_forms_equal_across_weights(self):
        assert GradedForm.zero(4) == GradedForm.zero(12)

    def test_hashable(self):
        seen = {E4: "four", E6: "six"}
        assert seen[GradedForm(4, {(0, 1, 0): 1})] == "four"

    def test_e2_free_flag(self):
        assert all(e2 == 0 for (e2, _, _) in (E4 * E6).terms())
        assert any(e2 for (e2, _, _) in (E2 * E4).terms())


# -- Fraction references and integer representation ---------------------------


def serre_derivative_fraction(f: GradedForm) -> GradedForm:
    """q d/dq summed term by term in Fractions.

    The arithmetic ``serre_derivative`` used before forms held integer
    numerators; kept as the reference the integer route must reproduce.
    """
    rules = {
        0: ((Fraction(1, 12), (2, 0, 0)), (Fraction(-1, 12), (0, 1, 0))),
        1: ((Fraction(1, 3), (1, 1, 0)), (Fraction(-1, 3), (0, 0, 1))),
        2: ((Fraction(1, 2), (1, 0, 1)), (Fraction(-1, 2), (0, 2, 0))),
    }
    terms: dict = {}
    for mono, c in f.terms().items():
        for slot in range(3):
            e = mono[slot]
            if not e:
                continue
            lowered = list(mono)
            lowered[slot] = e - 1
            for rule_c, rule_mono in rules[slot]:
                out = tuple(lowered[i] + rule_mono[i] for i in range(3))
                terms[out] = terms.get(out, Fraction(0)) + c * e * rule_c
    return GradedForm(f.weight + 2, terms)


def substitute_q_expansion_fraction(f: GradedForm, n_terms: int) -> list:
    """The q-series of f, every product and sum a Fraction.

    The arithmetic ``substitute_q_expansion`` used before forms held integer
    numerators; kept as the reference the integer route must reproduce.
    """

    def mul(a: list, b: list) -> list:
        out = [Fraction(0)] * n_terms
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[: n_terms - i]):
                    if y:
                        out[i + j] += x * y
        return out

    gens = [[Fraction(c) for c in generator_q_expansion(w, n_terms)] for w in (2, 4, 6)]
    one = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    powers = [[one], [one], [one]]
    total = [Fraction(0)] * n_terms

    def power(slot: int, e: int) -> list:
        while len(powers[slot]) <= e:
            powers[slot].append(mul(powers[slot][-1], gens[slot]))
        return powers[slot][e]

    for (e2, e4, e6), c in f.terms().items():
        cur = power(0, e2)
        if e4:
            cur = mul(cur, power(1, e4))
        if e6:
            cur = mul(cur, power(2, e6))
        for i in range(n_terms):
            if cur[i]:
                total[i] += c * cur[i]
    return total


def monomials(weight: int) -> list:
    return [
        (e2, e4, (weight - 2 * e2 - 4 * e4) // 6)
        for e2 in range(weight // 2 + 1)
        for e4 in range((weight - 2 * e2) // 4 + 1)
        if (weight - 2 * e2 - 4 * e4) % 6 == 0
    ]


fractions_st = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))


@st.composite
def forms(draw, weights=st.sampled_from(range(0, 17, 2))):
    """A form of a drawn weight: E2 content included, zero coefficients and the zero form too."""
    weight = draw(weights)
    monos = draw(st.lists(st.sampled_from(monomials(weight)), max_size=6, unique=True))
    return GradedForm(weight, {m: draw(st.one_of(st.just(Fraction(0)), fractions_st)) for m in monos})


def in_lowest_terms(f: GradedForm) -> bool:
    return f._den > 0 and math.gcd(f._den, *f._nums.values()) == 1 and all(f._nums.values())


class TestIntegerRepresentation:
    @given(st.sampled_from(range(0, 17, 2)).flatmap(
        lambda w: st.tuples(st.just(w), st.dictionaries(st.sampled_from(monomials(w)), fractions_st))
    ))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_terms_are_the_nonzero_entries(self, drawn):
        weight, terms = drawn
        assert GradedForm(weight, terms).terms() == {m: c for m, c in terms.items() if c}

    @given(st.sampled_from(range(0, 17, 2)).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.dictionaries(st.sampled_from(monomials(w)), st.integers(-10**30, 10**30)),
            st.integers(1, 10**30),
        )
    ))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_from_numerators_matches_the_fraction_constructor(self, drawn):
        weight, nums, den = drawn
        f = GradedForm.from_numerators(weight, nums, den)
        g = GradedForm(weight, {m: Fraction(n, den) for m, n in nums.items()})
        assert f == g
        assert hash(f) == hash(g)
        assert in_lowest_terms(f)

    @given(forms(), forms(), fractions_st)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_lowest_terms_after_every_operation(self, f, g, c):
        results = [f * g, c * f, f * c, serre_derivative(f), -f]
        if f.weight == g.weight or f.is_zero or g.is_zero:
            results += [f + g, f - g]
        assert all(in_lowest_terms(r) for r in results)

    @pytest.mark.parametrize(
        "weight, nums, error",
        [
            (5, {}, DomainError),
            (2, {(-1, 1, 0): 1}, DomainError),
            (8, {(1, 0, 0): 1}, WeightMismatchError),
        ],
    )
    def test_both_constructors_raise_alike(self, weight, nums, error):
        with pytest.raises(error) as from_fractions:
            GradedForm(weight, {m: Fraction(n, 3) for m, n in nums.items()})
        with pytest.raises(error) as from_numerators:
            GradedForm.from_numerators(weight, nums, 3)
        assert str(from_fractions.value) == str(from_numerators.value)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(DomainError):
            GradedForm.from_numerators(4, {(0, 1, 0): 1}, 0)


class TestFractionReferences:
    @given(forms())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_serre_derivative(self, f):
        assert serre_derivative(f) == serre_derivative_fraction(f)

    @given(forms(weights=st.sampled_from(range(0, 13, 2))), st.integers(1, 12))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_substitute_q_expansion(self, f, n_terms):
        assert substitute_q_expansion(f, n_terms) == substitute_q_expansion_fraction(f, n_terms)

    def test_zero_forms(self):
        for z in (GradedForm.zero(0), GradedForm.zero(10)):
            assert serre_derivative(z) == serre_derivative_fraction(z)
            assert serre_derivative(z).is_zero
            assert substitute_q_expansion(z, 6) == substitute_q_expansion_fraction(z, 6) == [0] * 6
