import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisen import qmring
from eisen.errors import DomainError, WeightMismatchError
from eisen.exact import zeta_ratio
from eisen.qmring import (
    E2,
    GradedForm,
    generator_q_expansion,
    series_mul,
    serre_derivative,
    substitute_q_expansion,
)
from helpers import E4, E6, q_derivative

R2, R4, R6 = zeta_ratio(2), zeta_ratio(4), zeta_ratio(6)
ONE = GradedForm(0, {(0, 0, 0): 1})
ZERO = ({}, 1)


def terms_of(f: GradedForm) -> dict:
    """f's coefficients as Fractions, keyed by monomial."""
    nums, den = f.numerators()
    return {mono: Fraction(n, den) for mono, n in nums.items()}


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
        assert f.numerators() == ({(2, 0, 0): 1}, 1)


class TestSurface:
    def test_the_ring_has_one_arithmetic_path(self):
        # no operator veneer, inspection helpers or serialisation beside
        # the constructor, combination, numerators and the free functions
        gone = {"zero", "constant", "is_zero", "terms", "serialize", "_plus", "__bool__", "__repr__"}
        assert not gone & set(GradedForm.__dict__)
        # E4 and E6 are built by the tests: the package names only E2
        assert not {"ONE", "q_derivative", "format_rational", "E4", "E6"} & set(vars(qmring))
        assert {"combination", "numerators", "_normalised"} <= set(GradedForm.__dict__)


class TestAddition:
    def test_cancellation_to_zero(self):
        cube = GradedForm(12, {(0, 3, 0): 1})
        total = GradedForm.combination(12, [(1, cube, None), (-1, cube, None)])
        assert total.numerators() == ZERO
        assert total.weight == 12

    def test_like_terms(self):
        got = GradedForm.combination(10, [(2, E4, E6), (3, E4, E6)])
        assert got.numerators() == GradedForm.combination(10, [(5, E4, E6)]).numerators() == ({(0, 1, 1): 5}, 1)

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatchError):
            GradedForm.combination(8, [(1, E4, E4), (1, E6, None)])

    def test_zero_form_is_neutral(self):
        z = GradedForm(12, {})
        assert GradedForm.combination(6, [(1, z, None), (1, E6, None)]).numerators() == E6.numerators()
        assert GradedForm.combination(6, [(1, E6, None), (1, z, E2)]).numerators() == E6.numerators()


class TestMultiplication:
    def test_weights_add(self):
        assert GradedForm.combination(10, [(1, E4, E6)]).numerators() == ({(0, 1, 1): 1}, 1)
        with pytest.raises(WeightMismatchError):
            GradedForm.combination(8, [(1, E4, E6)])

    def test_identity(self):
        f = GradedForm(4, {(2, 0, 0): 3, (0, 1, 0): 1})
        assert GradedForm.combination(4, [(1, f, ONE)]).numerators() == f.numerators()

    def test_difference_of_squares(self):
        e2sq = GradedForm(4, {(2, 0, 0): 1})
        left = GradedForm.combination(
            8, [(1, GradedForm(4, {(0, 1, 0): 1, (2, 0, 0): 1}), GradedForm(4, {(0, 1, 0): 1, (2, 0, 0): -1}))]
        )
        right = GradedForm.combination(8, [(1, E4, E4), (-1, e2sq, e2sq)])
        assert left.numerators() == right.numerators()
        assert left.weight == 8

    def test_scalar_multiplication(self):
        assert GradedForm.combination(4, [(Fraction(1, 2), E4, None)]).numerators() == ({(0, 1, 0): 1}, 2)
        assert GradedForm.combination(4, [(0, E4, None)]).numerators() == ZERO

    def test_commutative_associative_distributive(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_form(rng, 8)
            g = random_form(rng, 10)
            h = random_form(rng, 6)
            k = random_form(rng, 10)
            fg = GradedForm.combination(18, [(1, f, g)])
            assert fg.numerators() == GradedForm.combination(18, [(1, g, f)]).numerators()
            gh = GradedForm.combination(16, [(1, g, h)])
            fg_h = GradedForm.combination(24, [(1, fg, h)])
            assert fg_h.numerators() == GradedForm.combination(24, [(1, f, gh)]).numerators()
            g_plus_k = GradedForm.combination(10, [(1, g, None), (1, k, None)])
            f_g_plus_k = GradedForm.combination(18, [(1, f, g_plus_k)])
            assert f_g_plus_k.numerators() == GradedForm.combination(18, [(1, f, g), (1, f, k)]).numerators()

    def test_division_by_scalar(self):
        half = GradedForm.combination(4, [(Fraction(1, 2), E4, None)])
        assert GradedForm.combination(4, [(2, half, None)]).numerators() == E4.numerators()


class TestSerreDerivative:
    def test_weight_four_generator_relation(self):
        # in the zeta-normalized basis: derivative of G_4 equals G_2 G_4 - (7/2) G_6
        left = GradedForm.combination(6, [(R4, serre_derivative(E4), None)])
        right = GradedForm.combination(6, [(R2 * R4, E2, E4), (-Fraction(7, 2) * R6, E6, None)])
        assert left.numerators() == right.numerators()

    def test_weight_six_generator_relation(self):
        left = GradedForm.combination(8, [(R6, serre_derivative(E6), None)])
        right = GradedForm.combination(
            8, [(Fraction(3, 2) * R2 * R6, E2, E6), (-Fraction(15, 7) * R4 * R4, E4, E4)]
        )
        assert left.numerators() == right.numerators()

    def test_constants_annihilated(self):
        assert serre_derivative(ONE).numerators() == ZERO
        assert serre_derivative(GradedForm(0, {(0, 0, 0): Fraction(22, 7)})).numerators() == ZERO

    def test_raises_weight_by_two(self):
        assert serre_derivative(E6).weight == 8

    def test_leibniz_rule(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_form(rng, rng.choice((4, 6, 8)))
            g = random_form(rng, rng.choice((4, 6, 10)))
            weight = f.weight + g.weight
            lhs = serre_derivative(GradedForm.combination(weight, [(1, f, g)]))
            rhs = GradedForm.combination(weight + 2, [(1, serre_derivative(f), g), (1, f, serre_derivative(g))])
            assert lhs.numerators() == rhs.numerators()

    def test_commutes_with_q_derivative(self):
        for f in (E2, E4, E6, GradedForm(10, {(0, 1, 1): 1}), GradedForm(12, {(0, 3, 0): 1})):
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
        f = GradedForm(12, {(0, 3, 0): 1, (0, 0, 2): -1})
        assert substitute_q_expansion(f, 4) == [0, 1728, -41472, 435456]

    def test_series_mul_truncates(self):
        a = [Fraction(1), Fraction(2)]
        b = [Fraction(3), Fraction(4)]
        assert series_mul(a, b, 2) == [3, 10]

    def test_bad_term_count(self):
        with pytest.raises(DomainError):
            substitute_q_expansion(E4, 0)

    def test_generator_powers_are_the_repeated_products(self):
        for weight in (2, 4, 6):
            power = [1, 0, 0, 0, 0, 0]
            for e in range(8):
                assert list(qmring._generator_power(weight, e, 6)) == power, (weight, e)
                power = series_mul(power, generator_q_expansion(weight, 6), 6)
        # built iteratively, so a high power needs no deep recursion
        assert qmring._generator_power(4, 1500, 2) == (1, 240 * 1500)

    def test_selftest_builds_each_generator_power_once(self, shared_table, monkeypatch):
        # the q-series oracle substitutes the forms of 29 weights; each power
        # of E4 and E6 is built once for the run, not once per weight
        from eisen.replicate import SELFTEST_Q_TERMS, selftest

        n = SELFTEST_Q_TERMS
        table = shared_table.ensure(480)
        gens = {qmring._generator_power(w, 1, n): w for w in (2, 4, 6)}
        built: Counter = Counter()
        real = qmring.series_mul

        def counting(a, b, n_terms):
            out = real(a, b, n_terms)
            # substitution also multiplies by the kept power 1, so a build is told apart by its caller
            if sys._getframe(1).f_code is qmring._generator_power.__code__:
                # a power built from the one below it: record the exponent reached
                built[gens[b], out[1] // b[1], n_terms] += 1
            return out

        monkeypatch.setattr(qmring, "_generator_powers", {})
        monkeypatch.setattr(qmring, "series_mul", counting)
        report = selftest(table=table)
        assert report.status == "PASS"
        assert set(built.values()) == {1}
        assert set(built) == {(4, e, n) for e in range(1, 16)} | {(6, e, n) for e in range(1, 11)}
        records = [r for r in report.records if r["check"] == "q-series"]
        assert records == [{"check": "q-series", "k": k, "passed": True} for k in range(4, 61, 2)]
        assert selftest(k_dual=0, k_qseries=60, k_phi=0, table=table).records == records
        assert sum(built.values()) == 25

    def test_the_power_memo_is_the_one_cache_of_the_generator_series(self, monkeypatch):
        # generator_q_expansion builds afresh at every call; _generator_power keeps what it built
        assert not hasattr(generator_q_expansion, "cache_info")
        first = generator_q_expansion(4, 7)
        assert generator_q_expansion(4, 7) == first
        assert generator_q_expansion(4, 7) is not first
        monkeypatch.setattr(qmring, "_generator_powers", {})
        power_one = qmring._generator_power(6, 1, 7)
        assert power_one == generator_q_expansion(6, 7)
        assert qmring._generator_power(6, 1, 7) is power_one

        def refuse(weight, n_terms):
            raise AssertionError(f"generator {weight} rebuilt with power 1 kept")

        # once power 1 is kept, higher powers grow from it alone
        monkeypatch.setattr(qmring, "generator_q_expansion", refuse)
        cube = qmring._generator_power(6, 3, 7)
        assert cube == tuple(series_mul(series_mul(power_one, power_one, 7), power_one, 7))
        assert qmring._generator_power(6, 1, 7) is power_one

    def test_e2_free_flag(self):
        assert all(e2 == 0 for (e2, _, _) in GradedForm.combination(10, [(1, E4, E6)]).numerators()[0])
        assert any(e2 for (e2, _, _) in GradedForm.combination(6, [(1, E2, E4)]).numerators()[0])


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
    for mono, c in terms_of(f).items():
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

    for (e2, e4, e6), c in terms_of(f).items():
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


#: products of the primes 2, 3, 5, 7: contents, denominators and scalars drawn
#: from them share factors often, so products and multiples must cancel
smooth_st = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4).map(math.prod)


@st.composite
def cancelling_forms(draw, weights=st.sampled_from(range(0, 13, 2))):
    """A form whose numerators share a drawn content and whose denominator is smooth; sometimes zero."""
    weight = draw(weights)
    monos = draw(st.lists(st.sampled_from(monomials(weight)), max_size=4, unique=True))
    content = draw(smooth_st)
    return GradedForm(weight, {m: content * draw(st.integers(-6, 6)) for m in monos}, draw(smooth_st))


@st.composite
def cancelling_scalars(draw):
    """A smooth Fraction or int of either sign, or zero."""
    sign = draw(st.sampled_from([-1, 0, 1]))
    num = sign * draw(smooth_st) * draw(st.integers(1, 11))
    return draw(st.sampled_from([Fraction(num, draw(smooth_st)), num]))


def nonzero(f: GradedForm) -> bool:
    return bool(f.numerators()[0])


def in_lowest_terms(f: GradedForm) -> bool:
    return f._den > 0 and math.gcd(f._den, *f._nums.values()) == 1 and all(f._nums.values())


class TestIntegerRepresentation:
    @given(st.sampled_from(range(0, 17, 2)).flatmap(
        lambda w: st.tuples(st.just(w), st.dictionaries(st.sampled_from(monomials(w)), fractions_st))
    ))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_terms_are_the_nonzero_entries(self, drawn):
        weight, terms = drawn
        assert terms_of(GradedForm(weight, terms)) == {m: c for m, c in terms.items() if c}

    @given(st.sampled_from(range(0, 17, 2)).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.dictionaries(st.sampled_from(monomials(w)), st.integers(-10**30, 10**30)),
            st.integers(1, 10**30),
        )
    ))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_numerators_over_den_match_the_fraction_terms(self, drawn):
        weight, nums, den = drawn
        f = GradedForm(weight, nums, den)
        g = GradedForm(weight, {m: Fraction(n, den) for m, n in nums.items()})
        assert f.numerators() == g.numerators()
        assert in_lowest_terms(f)

    @given(forms(), forms(), fractions_st)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_lowest_terms_after_every_operation(self, f, g, c):
        # ring results skip the constructor's checks: each must be the form those checks accept
        results = [
            GradedForm.combination(f.weight + g.weight, [(1, f, g)]),
            GradedForm.combination(f.weight, [(c, f, None)]),
            GradedForm.combination(f.weight, [(-1, f, None)]),
            serre_derivative(f),
        ]
        if f.weight == g.weight:
            results += [GradedForm.combination(f.weight, [(1, f, None), (sign, g, None)]) for sign in (1, -1)]
        for r in results:
            assert in_lowest_terms(r)
            assert r.numerators() == GradedForm(r.weight, terms_of(r)).numerators()

    @given(cancelling_forms(), cancelling_forms(), cancelling_scalars())
    @example(
        GradedForm(4, {(0, 1, 0): 6, (2, 0, 0): 10}, 7),  # content 2 over 7
        GradedForm(6, {(0, 0, 1): 7, (3, 0, 0): 21}, 2),  # content 7 over 2
        Fraction(-14, 3),
    )
    @example(GradedForm(4, {(0, 1, 0): 6, (2, 0, 0): 10}, 7), GradedForm(8, {}), Fraction(5, 4))
    @example(GradedForm(4, {}), GradedForm(6, {(0, 0, 1): 7}, 2), Fraction(0))
    @example(GradedForm(4, {(0, 1, 0): 6}, 7), GradedForm(2, {(1, 0, 0): 3}, 5), -7)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_products_match_the_normalised_raw_product(self, f, g, c):
        # a product or multiple through combination is the raw product put in
        # lowest terms by one gcd over it (_normalised)
        raw: dict = {}
        for (a2, a4, a6), na in f._nums.items():
            for (b2, b4, b6), nb in g._nums.items():
                mono = (a2 + b2, a4 + b4, a6 + b6)
                raw[mono] = raw.get(mono, 0) + na * nb
        product = GradedForm._normalised(f.weight + g.weight, raw, f._den * g._den)
        a, b = Fraction(c).numerator, Fraction(c).denominator
        multiple = GradedForm._normalised(f.weight, {m: n * a for m, n in f._nums.items()}, f._den * b)
        got_product = GradedForm.combination(f.weight + g.weight, [(1, f, g)])
        got_multiple = GradedForm.combination(f.weight, [(c, f, None)])
        for got, want in ((got_product, product), (got_multiple, multiple)):
            assert (got.weight, got._nums, got._den) == (want.weight, want._nums, want._den)

    def test_insertion_order_does_not_change_the_numerators(self):
        nums = {(0, 3, 0): 2, (3, 0, 1): -5, (6, 0, 0): 7, (0, 0, 2): 1}
        f = GradedForm(12, nums, 3)
        g = GradedForm(12, dict(reversed(nums.items())), 3)
        assert list(f._nums) == list(reversed(g._nums))
        assert f.numerators() == g.numerators()

    def test_zero_forms_read_alike_across_weights(self):
        # every zero form is {} over 1, whatever its weight or how it was reached
        cancelled = GradedForm.combination(4, [(1, E4, None), (-1, E4, None)])
        scaled = GradedForm(12, {(0, 3, 0): 0, (0, 0, 2): 0}, 5)
        for z in (GradedForm(0, {}), GradedForm(4, {}), GradedForm(12, {}, 7), cancelled, scaled):
            assert z.numerators() == ZERO
        assert (cancelled.weight, scaled.weight) == (4, 12)

    @pytest.mark.parametrize(
        "weight, nums, error",
        [
            (5, {}, DomainError),
            (2, {(-1, 1, 0): 1}, DomainError),
            (8, {(1, 0, 0): 1}, WeightMismatchError),
        ],
    )
    def test_bad_terms_raise_alike(self, weight, nums, error):
        # the same bad input, given as Fractions and as int numerators over den
        with pytest.raises(error) as from_fractions:
            GradedForm(weight, {m: Fraction(n, 3) for m, n in nums.items()})
        with pytest.raises(error) as from_ints:
            GradedForm(weight, nums, 3)
        assert str(from_fractions.value) == str(from_ints.value)

    def test_nonpositive_denominator_rejected(self):
        for den in (0, -3):
            with pytest.raises(DomainError):
                GradedForm(4, {(0, 1, 0): 1}, den)


def combination_fraction(weight: int, terms: list) -> GradedForm:
    """sum c * F * G summed term by term over the Fraction coefficients, every product and sum a Fraction."""
    one = {(0, 0, 0): Fraction(1)}
    total: dict = {}
    for c, f, g in terms:
        for m1, x in terms_of(f).items():
            for m2, y in (one if g is None else terms_of(g)).items():
                mono = tuple(i + j for i, j in zip(m1, m2))
                total[mono] = total.get(mono, Fraction(0)) + c * x * y
    return GradedForm(weight, total)


@st.composite
def combination_terms(draw):
    """A weight and terms (c, F, G) of that weight: multiples, products (E2 content
    included), zero forms of any weight, and terms that another term cancels."""
    weight = draw(st.sampled_from(range(0, 17, 2)))
    scalars = st.one_of(cancelling_scalars(), fractions_st, st.integers(-50, 50))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(scalars)
        kind = draw(st.sampled_from(["multiple", "product", "zero"]))
        if kind == "multiple":
            term = (c, draw(st.one_of(forms(st.just(weight)), cancelling_forms(st.just(weight)))), None)
        elif kind == "product":
            w1 = draw(st.sampled_from(range(0, weight + 1, 2)))
            term = (c, draw(forms(st.just(w1))), draw(cancelling_forms(st.just(weight - w1))))
        else:
            zero = GradedForm(draw(st.sampled_from(range(0, 31, 2))), {})
            term = draw(st.sampled_from([(c, zero, None), (c, zero, E2), (c, E6, zero)]))
        terms.append(term)
        if draw(st.booleans()):
            c, f, g = term
            terms.append((-c, f, None) if g is None else (-c, g, f))
    return weight, draw(st.permutations(terms))


class TestCombination:
    @given(combination_terms())
    @example((12, [(1, GradedForm(12, {(0, 3, 0): 1}), None), (-1, E4, GradedForm(8, {(0, 2, 0): 1}))]))
    @example((4, [(Fraction(-2, 3), E2, E2), (3, E4, None), (0, GradedForm(30, {}), None)]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_fraction_sum_in_lowest_terms(self, drawn):
        weight, terms = drawn
        got = GradedForm.combination(weight, terms)
        assert got.numerators() == combination_fraction(weight, terms).numerators()
        assert in_lowest_terms(got)
        assert got.weight == weight

    @given(forms().filter(nonzero), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_term_of_another_weight_raises(self, f, data):
        g = data.draw(forms(st.sampled_from(range(0, 17, 2)).filter(lambda w: w != f.weight)).filter(nonzero))
        c = data.draw(cancelling_scalars())
        # also when the scalar is 0, or the stray term cancels against a third
        for terms in ([(1, f, None), (c, g, None)], [(1, f, None), (c, g, None), (-c, g, None)]):
            with pytest.raises(WeightMismatchError):
                GradedForm.combination(f.weight, terms)
        with pytest.raises(WeightMismatchError):
            GradedForm.combination(f.weight + g.weight + 2, [(c, f, g)])


class TestFractionReferences:
    @given(forms())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_serre_derivative(self, f):
        assert serre_derivative(f).numerators() == serre_derivative_fraction(f).numerators()

    @given(forms(weights=st.sampled_from(range(0, 13, 2))), st.integers(1, 12))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_substitute_q_expansion(self, f, n_terms):
        assert substitute_q_expansion(f, n_terms) == substitute_q_expansion_fraction(f, n_terms)

    def test_zero_forms(self):
        for z in (GradedForm(0, {}), GradedForm(10, {})):
            assert serre_derivative(z).numerators() == serre_derivative_fraction(z).numerators() == ZERO
            assert substitute_q_expansion(z, 6) == substitute_q_expansion_fraction(z, 6) == [0] * 6
