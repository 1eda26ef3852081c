import hashlib
import math
import random
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisen import eisenstein, exact, gekeler, irreducibility
from eisen.errors import ConsistencyError, DomainError, MissingWeightError
from eisen.exact import INFINITY, bernoulli, digit_sum_base2, excerpt, parse_integer, parse_ratio, parse_table_row
from eisen.exact import valuation, zeta_ratio
from eisen.eisenstein import (
    D2,
    EisensteinTable,
    exponents,
    min_valuation2,
    popa_c,
    popa_d,
    popa_expand,
    q_expansion_direct,
    rademacher_expand,
    rademacher_expand_folded,
)
from eisen.qmring import GradedForm, substitute_q_expansion
from eisen.replicate import check_conjecture, check_min_valuation, check_theorem_main, gekeler_scan, selftest
from helpers import check_q_coefficients_fraction, integer_view_of

W12 = {0: Fraction(25, 143), 3: Fraction(18, 143)}
#: w(12) as the table stores it
W12_VIEW = ({0: 25, 3: 18}, 143)

#: sha256 of ``dump_csv`` of a table built to 200 and to 500: the order and the
#: grouping in which the convolution sums its terms must not change a byte
TABLE_200_SHA256 = "790965b3d9a2d453cd4cf0785a3c9e9906e49d0b9124460a966dcd809456243b"
TABLE_500_SHA256 = "b3842a59b4eba81d3f4e1d3b4f1c22049a4258b01e1e61b7ecfb27683f02cb9e"


def point_values(table: EisensteinTable, k_max: int) -> dict:
    """Every weight of ``table`` below k_max at the nodes ``extend(k_max)`` evaluates."""
    nodes = k_max // 12 + 2
    return {m: eisenstein._evaluate(m, table.integer_view(m), nodes) for m in table.weights() if m < k_max}


def nodes(count: int) -> list:
    """The evaluated sum's first ``count`` nodes, y = 0, 1, -1, 2, -2, ..."""
    return [0, *(sign * y for y in range(1, count) for sign in (1, -1))][:count]


def horner_at_nodes(k: int, nums: dict, count: int) -> list:
    """R(y) = sum_a nums[a] y^((b - b0)/2) at the first ``count`` nodes, each power on its own."""
    b0 = exponents(k)[-1][1]
    return [sum(nums[a] * y ** ((b - b0) // 2) for a, b in exponents(k)) for y in nodes(count)]


def weights_by_unknowns(n_max: int) -> dict:
    """The least weight k >= 8 with n = len(exponents(k)) unknowns and b0 = k/2 mod 2, by (n, b0)."""
    found: dict = {}
    for k in range(8, 12 * n_max + 12, 2):
        found.setdefault((len(exponents(k)), k // 2 % 2), k)
    return {key: k for key, k in found.items() if key[0] <= n_max}


@st.composite
def convolution_terms(draw, n_terms: int) -> tuple:
    """n_terms terms (coeff, m1, m2) over random point values at 1-5 nodes.

    The weights are 4, 6, 8, ..., so pairs of two weights 2 mod 4 (whose
    products carry the factor y) and other pairs both occur.  The
    denominators are odd and share the primes 3, 5, 7 and 11, so the lcm of
    the pair denominators grows unevenly from term to term.
    """
    count = draw(st.integers(1, 5))
    vals = st.lists(st.integers(-(10**30), 10**30), min_size=count, max_size=count)
    dens = st.builds(lambda e: 3 ** e[0] * 5 ** e[1] * 7 ** e[2] * 11 ** e[3], st.tuples(*[st.integers(0, 3)] * 4))
    drawn = draw(st.lists(st.tuples(vals, dens), min_size=1, max_size=6))
    points = {4 + 2 * i: point for i, point in enumerate(drawn)}
    weight = st.sampled_from(sorted(points))
    terms = draw(st.lists(st.tuples(st.integers(-(10**6), 10**6), weight, weight), min_size=n_terms, max_size=n_terms))
    return terms, points, count


def run_merge_mutant():
    """A faulty ``_pointwise_convolution``: each run sum after the first is scaled by its merge multiplier twice.

    Every linear combination of the pairs' values is again a polynomial's
    values, so interpolation and its check node pass the wrong sum.
    """
    real = eisenstein._pointwise_convolution

    def mutant(terms, points, count):
        total, den = real(terms[: eisenstein.RUN], points, count)
        for start in range(eisenstein.RUN, len(terms), eisenstein.RUN):
            acc, acc_den = real(terms[start : start + eisenstein.RUN], points, count)
            lcm = math.lcm(den, acc_den)
            mult = lcm // acc_den
            total = [lcm // den * t + mult * mult * v for t, v in zip(total, acc)]
            den = lcm
        return total, den

    return mutant


def counting(monkeypatch, name: str) -> Counter:
    """Count the calls, by weight, of the ``eisenstein`` function ``name``."""
    calls: Counter = Counter()
    real = getattr(eisenstein, name)

    def wrapper(k, *args):
        calls[k] += 1
        return real(k, *args)

    monkeypatch.setattr(eisenstein, name, wrapper)
    return calls


def popa_common_terms_fraction(k: int) -> list:
    """The coefficients of Popa's product sum and square term as products of ``popa_d``.

    The definition ``_popa_common_terms`` used before it formed one Fraction
    per coefficient; kept as the reference its integers over 2^(k+2) must reproduce.
    """
    out = []
    for j in range(3, k // 2 - 1, 2):
        coeff = (math.comb(k // 2, j) + math.comb(k // 2 - 2, j)) * popa_d(j + 1) * popa_d(k - j - 1)
        out.append((coeff, j + 1, k - j - 1))
    if k % 4 == 0:
        out.append((Fraction(k, 2) * popa_d(k // 2) ** 2, k // 2, k // 2))
    return out


def popa_precancelled_fraction(k: int, table: EisensteinTable) -> dict:
    """w(k) by the precancelled Popa route, every term a Fraction.

    The arithmetic ``popa_expand(route="precancelled")`` used before it summed
    integer numerators; kept as the reference the integer route must reproduce.
    """
    acc: dict = {}

    def add(a: int, v: Fraction) -> None:
        if v:
            acc[a] = acc.get(a, Fraction(0)) + v

    for j in range(3, k // 2 - 1, 2):
        coeff = (math.comb(k // 2, j) + math.comb(k // 2 - 2, j)) * popa_d(j + 1) * popa_d(k - j - 1)
        for a1, v1 in table.w_vector(j + 1).items():
            for a2, v2 in table.w_vector(k - j - 1).items():
                add(a1 + a2, coeff * v1 * v2)
    if k % 4 == 0:
        coeff = Fraction(k, 2) * popa_d(k // 2) ** 2
        for a1, v1 in table.w_vector(k // 2).items():
            for a2, v2 in table.w_vector(k // 2).items():
                add(a1 + a2, coeff * v1 * v2)
    half_dk2 = popa_d(k - 2) / 2
    for a, w in table.w_vector(k - 2).items():
        b = (k - 2 - 4 * a) // 6
        scale = -half_dk2 * w
        if a:
            add(a - 1, scale * Fraction(7 * a, 2))
        if b:
            add(a + 2, scale * Fraction(15 * b, 7))
    cd = popa_c(k) * popa_d(k)
    return {a: v / cd for a, v in acc.items() if v}


class TestConstants:
    def test_d4(self):
        assert popa_d(4) == Fraction(3, 16)
        assert popa_c(4) == Fraction(5, 6)

    def test_d2_named_constant(self):
        assert D2 == Fraction(-1, 8)
        assert popa_d(2) == D2  # the closed formula extends down to weight 2

    def test_c8(self):
        # 8/(2*5*3) + 4! * 2! / (2 * 7!) = 4/15 + 1/210
        assert popa_c(8) == Fraction(4, 15) + Fraction(1, 210) == Fraction(19, 70)

    def test_domain(self):
        with pytest.raises(DomainError):
            popa_c(2)
        with pytest.raises(DomainError):
            popa_c(7)
        with pytest.raises(DomainError):
            popa_d(1)


class TestExponents:
    def test_weight_twelve(self):
        assert exponents(12) == [(0, 2), (3, 0)]

    def test_weight_constraint(self):
        for k in range(4, 100, 2):
            for a, b in exponents(k):
                assert 4 * a + 6 * b == k


class TestTable:
    def test_axioms(self):
        table = EisensteinTable()
        assert table.w_vector(4) == {1: Fraction(1)}
        assert table.w_vector(6) == {0: Fraction(1)}

    def test_missing_weight(self):
        table = EisensteinTable()
        with pytest.raises(MissingWeightError):
            table.w_vector(8)

    @pytest.mark.parametrize("k", [7, 2, 0, -4])
    def test_a_weight_no_extend_can_supply_is_out_of_domain(self, k):
        table = EisensteinTable().extend(k)
        with pytest.raises(DomainError, match=f"k must be even and >= 4, got {k}"):
            table.w_vector(k)

    def test_extend_and_known_values(self, shared_table):
        table = shared_table.ensure(20)
        assert table.w_vector(8) == {2: Fraction(3, 7)}
        assert table.w_vector(10) == {1: Fraction(5, 11)}
        assert table.w_vector(12) == W12

    def test_determinism_bit_identical(self, shared_table):
        shared_table.ensure(60)
        fresh = EisensteinTable().extend(60)
        for k in fresh.weights():
            assert fresh.w_vector(k) == shared_table.table.w_vector(k)

    def test_a_fresh_build_to_200_dumps_the_pinned_bytes(self, tmp_path):
        dump = tmp_path / "table.csv"
        EisensteinTable().extend(200).dump_csv(dump)
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == TABLE_200_SHA256

    def test_the_shared_table_to_500_dumps_the_pinned_bytes(self, shared_table, tmp_path):
        dump = tmp_path / "table.csv"
        shared_table.ensure(500).dump_csv(dump)
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == TABLE_500_SHA256

    def test_index_structure(self, shared_table):
        table = shared_table.ensure(120)
        for k in table.weights():
            for a in table.w_vector(k):
                assert (k - 4 * a) % 6 == 0
                assert 0 <= a <= k // 4

    def test_e2_freeness_is_structural(self, shared_table):
        table = shared_table.ensure(60)
        for k in (12, 30, 60):
            assert all(e2 == 0 for (e2, _, _) in table.graded_form(k).numerators()[0])

    def test_e8_is_e4_squared(self, shared_table):
        # E_8 = sum nums[a] / (scale r_8) E4^a E6^b, so E_8 = E4^2 is one term with nums[2] = scale r_8
        nums, scale = shared_table.ensure(8).e_basis_numerators(8)
        assert list(nums) == [2]
        assert Fraction(nums[2], scale) == zeta_ratio(8)


class TestGradedFormMemo:
    @staticmethod
    def fresh(table: EisensteinTable, k: int) -> GradedForm:
        nums, scale = table.e_basis_numerators(k)
        return GradedForm(k, {(0, a, (k - 4 * a) // 6): n for a, n in nums.items()}, scale)

    def test_memo_equals_a_fresh_build_to_480(self, shared_table):
        table = shared_table.ensure(480)
        for k in range(4, 481, 2):
            cached, fresh = table.graded_form(k), self.fresh(table, k)
            assert (cached.weight, cached.numerators()) == (fresh.weight, fresh.numerators()), k

    def test_second_read_returns_the_same_form(self, shared_table):
        table = shared_table.ensure(24)
        assert table.graded_form(24) is table.graded_form(24)

    def test_changing_terms_leaves_the_memo_unchanged(self, shared_table):
        table = shared_table.ensure(24)
        nums, _ = table.graded_form(24).numerators()
        nums[(0, 0, 4)] += 1
        nums.clear()
        assert table.graded_form(24).numerators() == self.fresh(table, 24).numerators()

    def test_selftest_builds_each_weight_once(self, shared_table, tmp_path, monkeypatch):
        dump = tmp_path / "table.csv"
        shared_table.ensure(200).dump_csv(dump)
        table = EisensteinTable.load_csv(dump)
        calls: Counter = Counter()
        build = eisenstein._e_basis_numerators

        def counting(k, view):
            calls[k] += 1
            return build(k, view)

        monkeypatch.setattr(eisenstein, "_e_basis_numerators", counting)
        assert selftest(k_dual=200, k_qseries=60, k_phi=0, table=table).status == "PASS"
        assert calls == Counter(range(4, 199, 2))
        assert sum(calls.values()) == 98


class TestRademacher:
    def test_weight_eight_single_term(self, shared_table):
        # lone term p = 2: 3 * 3 * 3 / (1 * 7 * 9) = 3/7
        table = shared_table.ensure(8)
        assert rademacher_expand(8, point_values(table, 8)) == ({2: 3}, 7)

    def test_weight_twelve(self, shared_table):
        table = shared_table.ensure(12)
        assert rademacher_expand(12, point_values(table, 12)) == W12_VIEW

    def test_weight_six_out_of_domain(self, shared_table):
        with pytest.raises(DomainError):
            rademacher_expand(6, point_values(shared_table.table, 6))

    def test_missing_prerequisites(self):
        with pytest.raises(MissingWeightError):
            rademacher_expand(12, point_values(EisensteinTable(), 12))

    def test_too_few_nodes(self, shared_table):
        # w(24) has 3 unknowns, so it reads 4 nodes
        table = shared_table.ensure(20)
        points = {m: eisenstein._evaluate(m, table.integer_view(m), 3) for m in range(4, 21, 2)}
        with pytest.raises(DomainError, match="4 nodes"):
            rademacher_expand(24, points)

    def test_folded_matches_popa(self, shared_table):
        table = shared_table.ensure(96)
        for k in (8, 12, 16, 24, 48, 96):
            assert rademacher_expand_folded(k, table) == popa_expand(k, table, route="precancelled"), k

    def test_fold_covers_k_2_mod_4(self, shared_table):
        table = shared_table.ensure(10)
        points = point_values(table, 10)
        assert rademacher_expand(10, points) == popa_expand(10, table, route="precancelled") == ({1: 5}, 11)
        assert rademacher_expand_folded(10, table) == rademacher_expand(10, points)
        for expand, source in ((rademacher_expand, points), (rademacher_expand_folded, table)):
            for k in (6, 9, 11, 4, 2, 0, -2):
                with pytest.raises(DomainError):
                    expand(k, source)

    def test_extend_cross_checks_both_residues_mod_4(self, monkeypatch):
        checked = []
        real = eisenstein.popa_expand

        def spy(k, table, route="graded"):
            checked.append((k, route))
            return real(k, table, route)

        monkeypatch.setattr(eisenstein, "popa_expand", spy)
        table = EisensteinTable().extend(100)
        assert checked == [(k, "precancelled") for k in (24, 26, 48, 50, 96, 98)]
        # the precancelled route reads the stored views and leaves the graded memo empty
        assert table._graded == {}
        on_the_way_to_500 = [k for k in range(8, 501, 2) if eisenstein._cross_checked(k)]
        assert on_the_way_to_500 == [24, 26, 48, 50, 96, 98, 192, 194, 384, 386]

    def test_extend_rejects_a_disagreeing_cross_check(self, monkeypatch):
        real = eisenstein.popa_expand

        def perturbed(k, table, route="graded"):
            nums, den = real(k, table, route)
            if k == 26:
                nums[min(nums)] += 1
            return nums, den

        monkeypatch.setattr(eisenstein, "popa_expand", perturbed)
        table = EisensteinTable().extend(24)
        with pytest.raises(ConsistencyError, match="the convolution and Popa's recurrence disagree at weight 26"):
            table.extend(26)
        assert 26 not in table

    @pytest.mark.parametrize("node", [1, 5])
    def test_extend_rejects_a_perturbed_point_value(self, node, monkeypatch):
        # extend(44) evaluates at 44 // 12 + 2 = 5 nodes, y = 0, 1, -1, 2, -2,
        # all that w(44) needs: its 4 unknowns come from y = +-1 and +-2, and
        # the 1st node, y = 0, is the check node
        table = EisensteinTable().extend(42)
        real = eisenstein._evaluate

        def perturbed(k, view, count):
            vals, den = real(k, view, count)
            if k == 20:
                vals[node - 1] += 1
            return vals, den

        monkeypatch.setattr(eisenstein, "_evaluate", perturbed)
        match = "check node y = 0" if node == 1 else "weight 44"
        with pytest.raises(ConsistencyError, match=match):
            table.extend(44)
        assert 44 not in table

    def test_a_larger_extend_reevaluates_the_point_values(self, monkeypatch):
        # each extend evaluates every weight its sums read (4 .. k_max - 4) at its own node count
        table = EisensteinTable().extend(100)
        nodes = []
        real = eisenstein._evaluate
        monkeypatch.setattr(eisenstein, "_evaluate", lambda k, view, count: nodes.append(count) or real(k, view, count))
        table.extend(200)
        assert nodes == [200 // 12 + 2] * len(range(4, 197, 2))
        monkeypatch.undo()
        fresh = EisensteinTable().extend(200)
        assert table.weights() == fresh.weights()
        for k in fresh.weights():
            assert table.w_vector(k) == fresh.w_vector(k), k

    def test_extend_expands_and_evaluates_each_weight_once(self, tmp_path, monkeypatch):
        expanded = counting(monkeypatch, "rademacher_expand")
        evaluated = counting(monkeypatch, "_evaluate")
        table = EisensteinTable().extend(100)
        assert sum(expanded.values()) == 47
        assert expanded == Counter(range(8, 101, 2))
        # a weight is evaluated when a sum first reads it: the last, 100, reads 4 .. 96
        assert evaluated == Counter(range(4, 97, 2))
        # a loaded table that already holds every weight costs the warm calls nothing
        dump = tmp_path / "table.csv"
        table.dump_csv(dump)
        expanded.clear()
        evaluated.clear()
        EisensteinTable.load_csv(dump).extend(100)
        assert not expanded and not evaluated

    def test_the_table_keeps_no_point_values(self):
        # the point values live in one extend call; the table keeps the views
        # of w(k) and the graded memo, and extend leaves the memo empty
        table = EisensteinTable().extend(100)
        assert set(vars(table)) == {"_views", "_graded"}
        assert sorted(table._views) == list(range(4, 101, 2))
        assert table._graded == {}

    def test_expand_on_a_loaded_dump(self, shared_table, tmp_path):
        built = shared_table.ensure(120)
        dump = tmp_path / "table.csv"
        built.dump_csv(dump)
        loaded = EisensteinTable.load_csv(dump)
        points = point_values(loaded, 120)
        for k in range(8, 121, 2):
            view = rademacher_expand(k, points)
            assert view == built.integer_view(k), k
            assert list(view[0]) == [a for a, _ in exponents(k)], k

    @pytest.mark.parametrize("n_terms", [1, 8, 9, 17])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_run_sums_are_the_exact_sum_in_any_order(self, n_terms, data):
        # 1, 8, 9 and 17 terms: one short run, one full run, and a run boundary crossed once and twice
        # the oracle multiplies by y wherever both weights are 2 mod 4 (b0 = 1 each)
        terms, points, count = data.draw(convolution_terms(n_terms))
        acc, den = eisenstein._pointwise_convolution(terms, points, count)
        assert den == math.lcm(*[points[m1][1] * points[m2][1] for _, m1, m2 in terms])
        for i, y in enumerate(nodes(count)):
            exact = sum(
                Fraction(
                    c * (y if m1 % 4 == m2 % 4 == 2 else 1) * points[m1][0][i] * points[m2][0][i],
                    points[m1][1] * points[m2][1],
                )
                for c, m1, m2 in terms
            )
            assert Fraction(acc[i], den) == exact, i
        permuted = data.draw(st.permutations(terms))
        assert eisenstein._pointwise_convolution(permuted, points, count) == (acc, den)

    def test_extend_value_checks_each_weight_it_builds(self, tmp_path, monkeypatch):
        checked = counting(monkeypatch, "_check_q_coefficients")
        table = EisensteinTable().extend(100)
        assert checked == Counter(range(8, 101, 2))
        # a loaded weight, the base weights 4 and 6 included, is checked by the load, not again by extend
        dump = tmp_path / "table.csv"
        table.dump_csv(dump)
        checked.clear()
        loaded = EisensteinTable.load_csv(dump)
        assert checked == Counter(range(4, 101, 2))
        checked.clear()
        loaded.extend(100)
        assert not checked

    def test_the_value_check_stops_a_sum_fault_the_check_node_cannot_see(self, monkeypatch):
        # 40 is the first weight with two runs (9 terms) and is not
        # cross-checked, so only the value check can stop the mutant there
        table = EisensteinTable().extend(38)
        truth = EisensteinTable().extend(40).integer_view(40)
        monkeypatch.setattr(eisenstein, "_pointwise_convolution", run_merge_mutant())
        assert rademacher_expand(40, point_values(table, 40)) != truth
        with pytest.raises(ConsistencyError, match="weight 40: the constant q-coefficient"):
            table.extend(40)
        assert 40 not in table
        assert table.weights() == list(range(4, 39, 2))

    def test_the_popa_cross_check_stops_the_same_fault_without_the_value_check(self, monkeypatch):
        # with the value check off the mutant's 40 .. 46 are stored; 48 is the
        # next cross-checked weight, and Popa's recurrence disagrees there
        table = EisensteinTable().extend(38)
        monkeypatch.setattr(eisenstein, "_check_q_coefficients", lambda k, view: None)
        monkeypatch.setattr(eisenstein, "_pointwise_convolution", run_merge_mutant())
        with pytest.raises(ConsistencyError, match="the convolution and Popa's recurrence disagree at weight 48"):
            table.extend(60)
        assert 48 not in table
        assert table.weights() == list(range(4, 47, 2))

    def test_extend_refuses_a_built_value_below_zero_that_the_value_check_passes(self, monkeypatch):
        # u + t (1, -2, 1) on (u_1, u_4, u_7) of E_28 with t = u_4 keeps both
        # q-coefficients and makes w_{4,28} negative; 28 is not cross-checked,
        # so only the sign check of the door a loaded weight passes stops it
        truth = EisensteinTable().extend(28)
        r4, r6, r28 = zeta_ratio(4), zeta_ratio(6), zeta_ratio(28)
        ratio = {a: r4**a * r6**b / r28 for a, b in exponents(28)}
        u = {a: w * ratio[a] for a, w in truth.w_vector(28).items()}
        shifted = integer_view_of({a: (u[a] + u[4] * c) / ratio[a] for a, c in ((1, 1), (4, -2), (7, 1))})
        eisenstein._check_q_coefficients(28, shifted)
        real = eisenstein.rademacher_expand
        monkeypatch.setattr(eisenstein, "rademacher_expand", lambda k, points: shifted if k == 28 else real(k, points))
        table = EisensteinTable()
        with pytest.raises(ConsistencyError, match=r"weight 28: w_\{a,k\} <= 0 for a in \[4\]"):
            table.extend(28)
        assert table.weights() == list(range(4, 27, 2))

    def test_the_folded_sum_takes_the_square_term_first_and_p_descending(self, shared_table, monkeypatch):
        table = shared_table.ensure(40)
        seen = {}
        real = eisenstein._pointwise_convolution

        def recording(terms, points, count):
            seen[len(terms)] = [(m1, m2) for _, m1, m2 in terms]
            return real(terms, points, count)

        monkeypatch.setattr(eisenstein, "_pointwise_convolution", recording)
        rademacher_expand(40, point_values(table, 40))
        rademacher_expand(38, point_values(table, 38))
        descending = range(9, 1, -1)
        assert seen[9] == [(20, 20), *[(2 * p, 40 - 2 * p) for p in descending]]
        assert seen[8] == [(2 * p, 38 - 2 * p) for p in descending]


class TestEvenOddKernel:
    """The evaluated sum's kernel against plain evaluation of R at y = 0, 1, -1, 2, -2, ..."""

    def test_the_nodes(self):
        assert eisenstein._nodes(7) == nodes(7) == [0, 1, -1, 2, -2, 3, -3]
        assert eisenstein._nodes(0) == []

    @pytest.mark.parametrize("b0", [0, 1])
    def test_the_halves_evaluate_r_as_plain_horner_does(self, b0):
        rng = random.Random(b0)
        weights = {n: k for (n, parity), k in weights_by_unknowns(45).items() if parity == b0}
        assert sorted(weights) == list(range(1, 46))
        for n, k in weights.items():
            nums = {a: rng.randint(-(10**40), 10**40) for a, _ in exponents(k)}
            for count in (n + 1, n + 2):
                assert eisenstein._evaluate(k, (nums, 7), count) == (horner_at_nodes(k, nums, count), 7), (k, count)

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interpolation_round_trips_integer_polynomials(self, parity, data):
        k = data.draw(st.sampled_from([k for k in range(8, 301, 2) if len(exponents(k)) % 2 == parity]), label="k")
        nums = {a: data.draw(st.integers(-(10**30), 10**30)) for a, _ in exponents(k)}
        interpolated = eisenstein._interpolate(k, horner_at_nodes(k, nums, len(exponents(k)) + 1))
        assert interpolated == nums
        assert list(interpolated) == [a for a, _ in exponents(k)]

    # n = 4 unknowns at k = 44 (check node y = 0), n = 3 at k = 24 (check node y = 2)
    @pytest.mark.parametrize("k, check", [(44, 0), (24, 2)])
    def test_a_perturbed_value_at_the_check_node_is_rejected(self, k, check):
        n = len(exponents(k))
        vals = horner_at_nodes(k, {a: 3 * a + 1 for a, _ in exponents(k)}, n + 1)
        vals[nodes(n + 1).index(check)] += 1
        with pytest.raises(ConsistencyError, match=f"weight {k}: the interpolant misses the check node y = {check}"):
            eisenstein._interpolate(k, vals)

    @pytest.mark.parametrize("k", [44, 24])
    def test_an_odd_sum_at_a_pair_of_nodes_is_rejected(self, k):
        n = len(exponents(k))
        vals = horner_at_nodes(k, {a: 3 * a + 1 for a, _ in exponents(k)}, n + 1)
        vals[nodes(n + 1).index(-1)] += 1
        with pytest.raises(ConsistencyError, match=f"weight {k}: the values at y = 1 and y = -1 have no integer halves"):
            eisenstein._interpolate(k, vals)


class TestPopa:
    def test_weight_eight(self, shared_table):
        table = shared_table.ensure(8)
        assert popa_expand(8, table) == ({2: 3}, 7)

    def test_weight_ten(self, shared_table):
        table = shared_table.ensure(10)
        # c_10 d_10 < 0: the route's view still has den > 0
        assert popa_expand(10, table) == ({1: 5}, 11)

    def test_weight_twelve_both_routes(self, shared_table):
        table = shared_table.ensure(12)
        assert popa_expand(12, table, route="graded") == W12_VIEW
        assert popa_expand(12, table, route="precancelled") == W12_VIEW

    def test_routes_agree_up_to_120(self, shared_table):
        table = shared_table.ensure(120)
        for k in range(8, 121, 2):
            expected = table.integer_view(k)
            assert popa_expand(k, table, route="graded") == expected, k
            assert popa_expand(k, table, route="precancelled") == expected, k

    def test_unknown_route(self, shared_table):
        with pytest.raises(DomainError):
            popa_expand(12, shared_table.table, route="sideways")

    def test_missing_prerequisites(self):
        with pytest.raises(MissingWeightError):
            popa_expand(16, EisensteinTable())

    def test_precancelled_matches_its_fraction_reference_to_200(self, shared_table):
        table = shared_table.ensure(200)
        for k in range(8, 201, 2):
            reference = integer_view_of(popa_precancelled_fraction(k, table))
            view = popa_expand(k, table, route="precancelled")
            assert view == reference, k
            # the table's form, keys a ascending, not only equal under ==
            assert list(view[0]) == [a for a, _ in exponents(k)], k

    def test_graded_route_raises_on_an_uncancelled_e2_residue(self, shared_table, monkeypatch):
        # any table passes the cancellation: the E2 part of serre_derivative(G)
        # is (k - 2)/12 E2 G for every G of weight k - 2, so a wrong d_2 is the
        # only way to leave a residue
        table = shared_table.ensure(24)
        monkeypatch.setattr(eisenstein, "D2", Fraction(-1, 7))
        with pytest.raises(ConsistencyError, match="failed to cancel at weight 24"):
            popa_expand(24, table, route="graded")

    def test_graded_route_is_one_combination_per_weight(self, shared_table, monkeypatch):
        # all of Popa's terms go to the kernel at once: the ring has no
        # operator, so no per-term reduction can run on the graded route
        arithmetic = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "__hash__"}
        assert not arithmetic & set(GradedForm.__dict__)
        table = shared_table.ensure(60)
        weights = []
        real = GradedForm.combination

        def counting(weight, terms):
            weights.append(weight)
            return real(weight, terms)

        monkeypatch.setattr(GradedForm, "combination", staticmethod(counting))
        for k in range(8, 61, 2):
            assert popa_expand(k, table, route="graded") == table.integer_view(k), k
        assert weights == list(range(8, 61, 2))

    def test_common_terms_match_the_popa_d_products(self):
        # to 500, past extend's cross-checked weights 384 and 386
        for k in range(8, 501, 2):
            over = [(Fraction(num, 2 ** (k + 2)), m1, m2) for num, m1, m2 in eisenstein._popa_common_terms(k)]
            assert over == popa_common_terms_fraction(k), k

    def test_selftest_leaves_the_point_value_cache_empty(self, tmp_path, monkeypatch):
        # the cross-checks evaluate no point value of the convolution they check
        dump = tmp_path / "table.csv"
        EisensteinTable().extend(48).dump_csv(dump)
        table = EisensteinTable.load_csv(dump)
        evaluated = counting(monkeypatch, "_evaluate")
        assert selftest(k_dual=48, k_qseries=24, k_phi=48, table=table).status == "PASS"
        assert not evaluated


class TestQExpansionDirect:
    def test_weight_four(self):
        assert q_expansion_direct(4, 2) == [1, 240]

    def test_weight_six(self):
        assert q_expansion_direct(6, 2) == [1, -504]

    def test_sigma_feeds_coefficients(self):
        # sigma_3(4) = 1 + 8 + 64 = 73; q^4 coefficient of the weight-4 series
        series = q_expansion_direct(4, 5)
        assert series[4] == 240 * 73

    def test_domain(self):
        with pytest.raises(DomainError):
            q_expansion_direct(3, 5)
        with pytest.raises(DomainError):
            q_expansion_direct(4, 0)

    def test_matches_polynomial_expansion_to_60(self, shared_table):
        table = shared_table.ensure(60)
        n_terms = 30
        for k in range(4, 61, 2):
            rk = zeta_ratio(k)
            lhs = substitute_q_expansion(table.graded_form(k), n_terms)
            rhs = [rk * c for c in q_expansion_direct(k, n_terms)]
            assert lhs == rhs, k

    def test_constant_term_identity(self, shared_table):
        # substituting 1 for the generators collapses the vector to r_k
        table = shared_table.ensure(60)
        r4, r6 = zeta_ratio(4), zeta_ratio(6)
        for k in range(4, 61, 2):
            vec = table.w_vector(k)
            total = sum(w * r4**a * r6 ** ((k - 4 * a) // 6) for a, w in vec.items())
            assert total == zeta_ratio(k), k


class TestMinValuation:
    def test_weight_twelve(self, shared_table):
        table = shared_table.ensure(12)
        assert min_valuation2(table.integer_view(12)) == 0

    def test_weight_four(self, shared_table):
        assert min_valuation2(shared_table.table.integer_view(4)) == 0

    def test_weight_twenty_matches_digit_sum(self, shared_table):
        table = shared_table.ensure(20)
        assert min_valuation2(table.integer_view(20)) == digit_sum_base2(20) - 2 == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            min_valuation2(({}, 1))

    def test_zero_vector_value(self):
        assert min_valuation2(({0: 0}, 1)) is INFINITY
        assert min_valuation2(({0: 0, 3: 0}, 8)) is INFINITY

    def test_the_den_valuation_is_subtracted(self):
        # every w(k) has an odd den, so only a planted view can show it
        assert min_valuation2(({0: 3, 3: 4}, 8)) == -3
        assert min_valuation2(({0: 0, 3: 2}, 4)) == -1
        assert min_valuation2(({1: 12}, 1)) == 2

    def test_view_minus_den_matches_the_fraction_minimum_to_500(self, shared_table):
        table = shared_table.ensure(500)
        for k in range(4, 501, 2):
            expected = min(valuation(c, 2) for c in table.w_vector(k).values())
            assert min_valuation2(table.integer_view(k)) == expected, k


#: the characters of a drawn row's free-text fields: digits, signs, '/', '_', space, 'e', '.', U+0663 and commas
ROW_CHARACTERS = "0123456789-+/_ e.\u0663,"


@st.composite
def table_rows(draw) -> str:
    """A line of three index fields and a w field, each well formed or text over ``ROW_CHARACTERS``, some cut or lengthened."""
    integer = st.from_regex(r"-?[0-9]{1,5}", fullmatch=True)
    ratio = st.from_regex(r"-?[0-9]{1,5}/[0-9]{1,5}", fullmatch=True)
    lookalike = st.from_regex(r"-?[0-9\u0663]{1,4}", fullmatch=True)  # int(str) reads U+0663 as 3
    junk = st.text(ROW_CHARACTERS, max_size=8)
    fields = [draw(st.one_of(integer, lookalike, junk)) for _ in range(3)]
    fields.append(draw(st.one_of(ratio, integer, lookalike, junk)))
    count = draw(st.sampled_from([4, 4, 4, 1, 3, 5]))
    return ",".join(fields[:count] + [draw(junk) for _ in range(count - 4)])


def fieldwise_row(line: str):
    """A row k,a,b,w read field by field, ``parse_integer`` for k, a, b and ``parse_ratio`` for w.

    The integers (k, a, b, num, den), or the message ``load_csv`` refuses the line with.
    """
    row = line.split(",")
    if len(row) != 4:
        return f"bad table row {excerpt(line)}: expected 4 fields"
    try:
        return (*(parse_integer(field) for field in row[:3]), *parse_ratio(row[3]))
    except DomainError as exc:
        return f"bad table row {excerpt(line)}: {exc}"


#: rows ``load_csv`` refuses, and its message for each.  12,-3,4 satisfies
#: 4a + 6b = k with a negative exponent; the w fields after "12,x,2,1/1" are
#: not -?digits[/digits], though Fraction(str) takes most of them; the last
#: index fields are not -?digits, though int(str) takes them; the lone
#: well-formed row leaves weight 12 without its (a, b) = (3, 0) row;
#: 0,0,0,1/1 satisfies 4a + 6b = k at weight 0
BAD_ROWS = {
    "12,-3,4,1/1": "bad index row '12,-3,4,1/1': negative exponent",
    "12,0": "bad table row '12,0': expected 4 fields",
    "12,0,2,abc": "bad table row '12,0,2,abc': 'abc' is not an integer or num/den in ASCII digits with a positive denominator",
    "12,0,2,1/0": "bad table row '12,0,2,1/0': '1/0' is not an integer or num/den in ASCII digits with a positive denominator",
    "12,x,2,1/1": "bad table row '12,x,2,1/1': 'x' is not an integer in ASCII digits",
    "0,0,0,1/1": "bad index row '0,0,0,1/1': weight 0 is below 4",
    **{
        f"12,0,2,{w}": f"bad table row '12,0,2,{w}': '{w}' is not an integer or num/den in ASCII digits with a positive denominator"
        for w in ("1e3", "1.5", "+25/143", " 25/143", "25/-143", "1_000", "\u0663/1", "25/", "/143")
    },
    **{
        f"{k},{a},{b},25/143": f"bad table row '{k},{a},{b},25/143': '{bad}' is not an integer in ASCII digits"
        for k, a, b, bad in (("1_2", 0, 2, "1_2"), (12, "+0", 2, "+0"), (" 12", 0, 2, " 12"), (12, 0, " 2", " 2"))
    },
    "12,0,2,25/143": "weight 12 is missing rows for (a, b) in [(3, 0)]",
}


class TestPersistence:
    def test_dump_and_load_round_trip(self, tmp_path, shared_table):
        # to 480, so every weight the benchmark's dumps hold passes the value check
        table = shared_table.ensure(480)
        path = tmp_path / "table.csv"
        table.dump_csv(path)
        loaded = EisensteinTable.load_csv(path)
        assert loaded.weights() == table.weights()
        for k in table.weights():
            assert loaded.w_vector(k) == table.w_vector(k)
        again = tmp_path / "again.csv"
        loaded.dump_csv(again)
        assert again.read_bytes() == path.read_bytes()

    def test_lf_and_crlf_dumps_load_alike(self, tmp_path, shared_table):
        table = shared_table.ensure(60)
        crlf = tmp_path / "crlf.csv"
        table.dump_csv(crlf)
        data = crlf.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") > 1
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_bytes(data.replace(b"\r\n", b"\n"))
        # text mode also ends a line at a lone CR
        cr.write_bytes(data.replace(b"\r\n", b"\r"))
        tables = [EisensteinTable.load_csv(path) for path in (crlf, lf, cr)]
        assert tables[0]._views == tables[1]._views == tables[2]._views
        assert tables[0].weights() == table.weights()

    def test_loaded_table_extends(self, tmp_path, shared_table):
        table = shared_table.ensure(40)
        path = tmp_path / "table.csv"
        table.dump_csv(path)
        loaded = EisensteinTable.load_csv(path).extend(44)
        assert loaded.w_vector(44) == shared_table.ensure(44).w_vector(44)

    def test_value_past_the_digit_limit_writes_nothing(self, tmp_path):
        # a refused value must not leave a truncated dump, which would load
        # cleanly as a smaller table, nor empty a file already at the path
        table = EisensteinTable().extend(24)
        nums, den = table.integer_view(24)
        nums[min(nums)] = 10**4300 * den  # w_{0,24} = 10^4300, a 4301-digit numerator
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_bytes(b"k,a,b,w\n4,1,0,1/1\n")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for path in (kept, fresh):
                with pytest.raises(DomainError, match="4300"):
                    table.dump_csv(path)
        finally:
            sys.set_int_max_str_digits(old)
        assert kept.read_bytes() == b"k,a,b,w\n4,1,0,1/1\n"
        assert not fresh.exists()

    def test_corrupt_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,a,b,w\n12,1,1,1/2\n")  # 4+6 != 12
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)

    def test_duplicate_row_rejected(self, tmp_path, shared_table):
        path = tmp_path / "bad.csv"
        shared_table.ensure(12).dump_csv(path)
        with open(path, "a") as fh:
            fh.write("12,3,0,5/1\n")
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)

    @pytest.mark.parametrize("row", list(BAD_ROWS))
    def test_bad_row_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"k,a,b,w\n{row}\n")
        with pytest.raises(ConsistencyError) as raised:
            EisensteinTable.load_csv(path)
        assert str(raised.value) == BAD_ROWS[row]

    @settings(max_examples=400, deadline=None)
    @given(line=table_rows())
    @example(line=f"12,0,2,{'9' * 4301}/1")
    @example(line=f"12,0,2,1/{'9' * 4301}")
    @example(line=f"{'9' * 4301},0,2,1/1")
    @example(line="1\u06632,0,2,25/143")
    def test_one_match_reads_exactly_the_rows_the_field_parsers_read(self, line):
        expected = fieldwise_row(line)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            read = parse_table_row(line)
            if isinstance(expected, tuple):
                assert read == expected
                return
            assert read is None
            with tempfile.TemporaryDirectory() as folder:
                path = f"{folder}/bad.csv"
                with open(path, "w") as fh:
                    fh.write(f"k,a,b,w\n{line}\n")
                with pytest.raises(ConsistencyError) as raised:
                    EisensteinTable.load_csv(path)
        finally:
            sys.set_int_max_str_digits(old)
        assert str(raised.value) == expected
        if "9" * 4301 in line:
            assert "4300" in expected

    def test_exponent_notation_rejected_fast(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,a,b,w\n12,0,2,1e3000000\n")
        started = time.perf_counter()
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)
        assert time.perf_counter() - started < 0.1

    def test_integer_and_negative_w_fields_load(self, tmp_path):
        # the base weights written as integers load; a negative w field
        # parses, and only the value check refuses it (every w_{a,k} > 0)
        path = tmp_path / "table.csv"
        path.write_text("k,a,b,w\n4,1,0,1\n6,0,1,1\n12,0,2,25/143\n12,3,0,18/143\n")
        loaded = EisensteinTable.load_csv(path)
        assert loaded.w_vector(4) == {1: 1} and loaded.w_vector(6) == {0: 1}
        assert loaded.w_vector(12) == {0: Fraction(25, 143), 3: Fraction(18, 143)}
        path.write_text("k,a,b,w\n12,0,2,-25/143\n12,3,0,2\n")
        with pytest.raises(ConsistencyError, match="weight 12: the constant q-coefficient"):
            EisensteinTable.load_csv(path)

    def test_a_huge_weight_with_missing_rows_is_named_briefly(self, tmp_path):
        # 4a + 6b = 4 * 10^6 has dim M_k = 333334 solutions and the dump gives one:
        # the error names the first three missing pairs and counts the rest
        path = tmp_path / "huge.csv"
        path.write_text("k,a,b,w\n4,1,0,1/1\n6,0,1,1/1\n4000000,1000000,0,1/1\n")
        with pytest.raises(ConsistencyError) as raised:
            EisensteinTable.load_csv(path)
        message = str(raised.value)
        assert len(message) < 200
        assert message == (
            "weight 4000000 is missing rows for (a, b) in [(1, 666666), (4, 666664), (7, 666662)] and 333330 more"
        )

    def test_dump_missing_one_row_rejected(self, tmp_path, shared_table):
        path = tmp_path / "table.csv"
        shared_table.ensure(60).dump_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        dropped = next(i for i, line in enumerate(lines) if line.startswith("36,3,4,"))
        path.write_text("".join(lines[:dropped] + lines[dropped + 1 :]))
        with pytest.raises(ConsistencyError, match=r"weight 36 is missing rows for \(a, b\) in \[\(3, 4\)\]"):
            EisensteinTable.load_csv(path)

    @pytest.mark.parametrize("row, factor", [("36,0,6,", 2), ("60,15,0,", 3), ("120,0,20,", -1)])
    def test_dump_with_one_value_changed_rejected(self, tmp_path, shared_table, row, factor):
        path = tmp_path / "table.csv"
        shared_table.ensure(120).dump_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(row))
        num, den = lines[i][len(row) :].split("/")
        lines[i] = f"{row}{factor * int(num)}/{den}"
        path.write_text("".join(lines))
        k = row.split(",")[0]
        with pytest.raises(ConsistencyError, match=f"weight {k}: the constant q-coefficient of E_k is not 1"):
            EisensteinTable.load_csv(path)

    def test_q1_check_catches_what_the_constant_term_misses(self, tmp_path):
        # u_0 up by 1 and u_3 down by 1 at weight 24 keep sum u_a = 1 but move
        # sum u_a (240a - 504b) by (0 - 2016) - (720 - 1008) = -1728
        table = EisensteinTable().extend(24)
        r4, r6, r24 = zeta_ratio(4), zeta_ratio(6), zeta_ratio(24)
        u = {a: w * r4**a * r6 ** ((24 - 4 * a) // 6) / r24 for a, w in table.w_vector(24).items()}
        u[0] += 1
        u[3] -= 1
        path = tmp_path / "table.csv"
        table._views[24] = integer_view_of({a: v * r24 / (r4**a * r6 ** ((24 - 4 * a) // 6)) for a, v in u.items()})
        table.dump_csv(path)
        with pytest.raises(ConsistencyError, match="weight 24: the q\\^1 coefficient of E_k is not -2k/B_k"):
            EisensteinTable.load_csv(path)

    def test_every_w_entry_is_positive(self, shared_table):
        # why load_csv may require every (a, b) row: no w_{a,k} is ever 0
        table = shared_table.ensure(120)
        for k in table.weights():
            vec = table.w_vector(k)
            assert sorted(vec) == [a for a, _ in exponents(k)]
            assert all(w > 0 for w in vec.values())

    def test_corrupt_base_weight_rejected(self, tmp_path):
        # w(4) and w(6) have one coefficient each, which the value check pins to 1
        path = tmp_path / "bad.csv"
        for row, k in (("4,1,0,2/1", 4), ("6,0,1,1/2", 6)):
            path.write_text(f"k,a,b,w\n{row}\n")
            with pytest.raises(ConsistencyError, match=f"weight {k}: the constant q-coefficient of E_k is not 1"):
                EisensteinTable.load_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("12,0,2,25/143\n")
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)


class TestTangentMemo:
    """``load_csv`` and ``extend`` build the tangent numbers their value checks read once, to their largest weight."""

    def test_a_load_builds_the_memo_once_to_its_largest_weight(self, shared_table, tmp_path, monkeypatch):
        # the k <= 480 rows of the shared table, which other tests may have extended further
        path = tmp_path / "table.csv"
        shared_table.ensure(480).dump_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line[0].isdigit() or int(line.split(",")[0]) <= 480))
        monkeypatch.setattr(exact, "_tangent_numbers", ())
        fills = spy_fills(monkeypatch)
        assert EisensteinTable.load_csv(path).max_weight() == 480
        assert fills == [240] and len(exact._tangent_numbers) == 240

    def test_a_build_builds_the_memo_once_to_its_largest_weight(self, monkeypatch):
        monkeypatch.setattr(exact, "_tangent_numbers", ())
        fills = spy_fills(monkeypatch)
        EisensteinTable().extend(500)
        assert fills == [250] and len(exact._tangent_numbers) == 250

    def test_a_full_table_builds_no_memo(self, shared_table, monkeypatch):
        table = shared_table.ensure(100)
        monkeypatch.setattr(exact, "_tangent_numbers", ())
        table.extend(100)
        assert exact._tangent_numbers == ()

    @pytest.mark.parametrize("rows, memo", [("", 0), ("4,1,0,1/1\n6,0,1,1/1\n", 4)])
    def test_a_huge_weight_with_missing_rows_builds_no_memo(self, tmp_path, monkeypatch, rows, memo):
        # only w(4) and w(6), stored before the error as rows of smaller weights are,
        # read tangent numbers: T_2 and T_3, in a memo grown to 2 and then to 4
        path = tmp_path / "huge.csv"
        path.write_text(f"k,a,b,w\n{rows}40000000,10000000,0,1/1\n")
        monkeypatch.setattr(exact, "_tangent_numbers", ())
        started = time.perf_counter()
        with pytest.raises(ConsistencyError, match="weight 40000000 is missing rows"):
            EisensteinTable.load_csv(path)
        assert time.perf_counter() - started < 0.1
        assert len(exact._tangent_numbers) == memo

    def test_the_first_rejection_is_raised_before_the_memo_is_built(self, shared_table, tmp_path, monkeypatch):
        # weight 12's doubled value is refused before weight 60's missing row is reached
        path = tmp_path / "table.csv"
        shared_table.ensure(60).dump_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        lines = [line for line in lines if not line.startswith("60,0,10,")]
        lines = [line.replace("12,0,2,25/143", "12,0,2,50/143") for line in lines]
        path.write_text("".join(lines))
        monkeypatch.setattr(exact, "_tangent_numbers", ())
        with pytest.raises(ConsistencyError, match="weight 12: the constant q-coefficient of E_k is not 1"):
            EisensteinTable.load_csv(path)
        assert len(exact._tangent_numbers) < 30


def spy_fills(monkeypatch) -> list:
    """The length of each tangent-number memo built from here on, by ``extend``, ``load_csv`` or a lone read."""
    fills = []
    real = exact.fill_tangent_numbers

    def spy(count):
        if count > len(exact._tangent_numbers):
            fills.append(count)
        return real(count)

    monkeypatch.setattr(exact, "fill_tangent_numbers", spy)
    monkeypatch.setattr(eisenstein, "fill_tangent_numbers", spy)
    return fills


def loaded_copy(table: EisensteinTable, path) -> EisensteinTable:
    table.dump_csv(path)
    return EisensteinTable.load_csv(path)


def as_rows(vec: dict, factor: int = 1) -> tuple:
    """w(k) as ``load_csv`` reads a weight's rows, numerators and denominators by a, each scaled by factor."""
    return {a: c.numerator * factor for a, c in vec.items()}, {a: c.denominator * factor for a, c in vec.items()}


def rejection(check, *args):
    """The message ``check`` raises ``ConsistencyError`` with, or None if it accepts."""
    try:
        check(*args)
    except ConsistencyError as exc:
        return str(exc)
    return None


class TestDeferredLoad:
    """A loaded weight is checked in integers and stored as its reduced integer view, the one form of w(k)."""

    def test_loaded_and_built_tables_read_alike_to_480(self, shared_table, tmp_path):
        built = shared_table.ensure(480)
        loaded = loaded_copy(built, tmp_path / "table.csv")
        assert loaded.weights() == built.weights() and loaded.max_weight() == built.max_weight()
        for k in range(4, 481, 2):
            assert k in loaded
            vec = built.w_vector(k)
            nums, scale = built.e_basis_numerators(k)
            form = GradedForm(k, {(0, a, (k - 4 * a) // 6): n for a, n in nums.items()}, scale)
            # the stored view is that of the Fractions it gives, on either table
            assert loaded.integer_view(k) == built.integer_view(k) == integer_view_of(vec), k
            assert loaded.e_basis_numerators(k) == (nums, scale), k
            assert loaded.graded_form(k).numerators() == form.numerators(), k
            assert loaded.w_vector(k) == vec, k
            assert list(loaded.w_vector(k)) == sorted(vec), k
            # w_vector forms new Fractions on each call: changing them leaves the view as it was
            vec.clear()
            assert loaded.w_vector(k) == built.w_vector(k) != {}, k

    @pytest.mark.parametrize("kind", ["built", "loaded", "gap-filled", "unreduced rows"])
    def test_every_stored_view_is_reduced_and_a_ascending(self, shared_table, tmp_path, kind):
        built = shared_table.ensure(480)
        path = tmp_path / "table.csv"
        built.dump_csv(path)
        if kind == "gap-filled":
            # 48 is a cross-checked weight, so Popa's recurrence runs on the loaded views too
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith(("30,", "48,", "62,"))))
        elif kind == "unreduced rows":
            # 6/14 is w_{2,8} = 3/7 and 50/286 is w_{0,12} = 25/143
            text = path.read_text().replace("\n8,2,0,3/7\n", "\n8,2,0,6/14\n")
            path.write_text(text.replace("\n12,0,2,25/143\n", "\n12,0,2,50/286\n"))
            assert "6/14" in path.read_text() and "50/286" in path.read_text()
        table = built if kind == "built" else EisensteinTable.load_csv(path).extend(480)
        assert set(vars(table)) == {"_views", "_graded"}
        assert table.weights() == built.weights()
        for k in table.weights():
            nums, den = table.integer_view(k)
            assert den > 0 and math.gcd(den, *nums.values()) == 1, k
            assert list(nums) == [a for a, _ in exponents(k)], k
            assert (nums, den) == built.integer_view(k), k

    def test_phi_routes_form_no_fraction_of_w(self, shared_table, tmp_path, monkeypatch):
        loaded = loaded_copy(shared_table.ensure(480), tmp_path / "table.csv")

        def refuse(*args):
            raise AssertionError("a Fraction of w(k) was formed")

        monkeypatch.setattr(eisenstein, "Fraction", refuse)
        assert selftest(k_dual=0, k_qseries=0, k_phi=480, table=loaded).status == "PASS"

    def test_scan_forms_no_fraction_of_w(self, shared_table, tmp_path, monkeypatch):
        loaded = loaded_copy(shared_table.ensure(446), tmp_path / "table.csv")

        def refuse(*args):
            raise AssertionError("a Fraction of w(k) was formed")

        monkeypatch.setattr(eisenstein, "Fraction", refuse)
        assert gekeler_scan(446, table=loaded).status == "PASS"

    def test_scan_forms_no_fraction_of_phi(self, shared_table, tmp_path, monkeypatch):
        # the certifier reads phi_k's integers; only text (a document, phi's str) divides them
        loaded = loaded_copy(shared_table.ensure(446), tmp_path / "table.csv")

        def refuse(*args):
            raise AssertionError("a Fraction of phi_k was formed")

        monkeypatch.setattr(gekeler, "Fraction", refuse)
        monkeypatch.setattr(irreducibility, "Fraction", refuse)
        assert gekeler_scan(446, table=loaded).status == "PASS"

    def test_an_unreduced_row_loads_and_dumps_reduced(self, tmp_path):
        # 6/14 is w_{2,8} = 3/7 and 50/286 is w_{0,12} = 25/143, written unreduced
        path = tmp_path / "table.csv"
        path.write_text("k,a,b,w\n4,1,0,2/2\n6,0,1,3/3\n8,2,0,6/14\n12,0,2,50/286\n12,3,0,18/143\n")
        loaded = EisensteinTable.load_csv(path)
        built = EisensteinTable().extend(12)
        # the stored views are those of the reduced values
        assert loaded.integer_view(12) == integer_view_of(W12) == W12_VIEW
        assert loaded.e_basis_numerators(8) == built.e_basis_numerators(8)
        dumped = tmp_path / "dumped.csv"
        loaded.dump_csv(dumped)
        assert dumped.read_text().splitlines() == [
            "k,a,b,w", "4,1,0,1/1", "6,0,1,1/1", "8,2,0,3/7", "12,0,2,25/143", "12,3,0,18/143"
        ]
        assert loaded.w_vector(8) == {2: Fraction(3, 7)}
        assert loaded.w_vector(12) == W12

    def test_extend_fills_a_gap_in_a_loaded_dump_as_a_build_does(self, tmp_path, monkeypatch):
        # 48 is a cross-checked weight, so Popa's recurrence reads the loaded table too
        built = EisensteinTable().extend(72)
        path = tmp_path / "table.csv"
        built.dump_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(("30,", "48,", "62,"))))
        loaded = EisensteinTable.load_csv(path)
        assert loaded.weights() == [k for k in range(4, 73, 2) if k not in (30, 48, 62)]
        checked = []
        real = eisenstein.popa_expand

        def spy(k, table, route="graded"):
            checked.append((k, table, route))
            return real(k, table, route)

        monkeypatch.setattr(eisenstein, "popa_expand", spy)
        loaded.extend(72)
        assert checked == [(48, loaded, "precancelled")]
        assert loaded.weights() == built.weights()
        for k in built.weights():
            assert loaded.w_vector(k) == built.w_vector(k), k
        refilled, fresh = tmp_path / "refilled.csv", tmp_path / "fresh.csv"
        loaded.dump_csv(refilled)
        built.dump_csv(fresh)
        assert refilled.read_bytes() == fresh.read_bytes()

    def test_a_gap_fill_evaluates_only_the_weights_its_sum_reads(self, shared_table, tmp_path, monkeypatch):
        # the sum for the one missing weight 30 reads 4 .. 26; no weight above the gap is evaluated
        fresh = tmp_path / "fresh.csv"
        shared_table.ensure(500).dump_csv(fresh)
        path = tmp_path / "table.csv"
        path.write_text("".join(line for line in fresh.read_text().splitlines(keepends=True) if not line.startswith("30,")))
        loaded = EisensteinTable.load_csv(path)
        evaluated = counting(monkeypatch, "_evaluate")
        loaded.extend(500)
        assert evaluated == Counter(range(4, 27, 2))
        refilled = tmp_path / "refilled.csv"
        loaded.dump_csv(refilled)
        assert refilled.read_bytes() == fresh.read_bytes()

    def test_the_valuation_checks_and_selftest_read_views(self, shared_table, tmp_path, monkeypatch):
        loaded = loaded_copy(shared_table.ensure(480), tmp_path / "table.csv")

        def refuse(*args):
            raise AssertionError("w_vector was called")

        monkeypatch.setattr(EisensteinTable, "w_vector", refuse)
        assert selftest(table=loaded).status == "PASS"
        assert check_min_valuation(480, table=loaded).status == "PASS"
        assert check_conjecture(480, table=loaded).status == "PASS"
        assert check_theorem_main(5, table=loaded).status == "PASS"

    def test_integer_check_at_the_one_row_weights(self, shared_table):
        # J = 0: one exponent pair, and the carried 49^j 20^(J-j) is 1
        table = shared_table.ensure(14)
        for k in (4, 6, 8, 10, 14):
            (a, w), = table.w_vector(k).items()
            assert len(exponents(k)) == 1 and rejection(eisenstein._check_q_coefficients, k, table.integer_view(k)) is None
            for value in (w, 2 * w, -w, Fraction(0), w + Fraction(1, 10**6), Fraction(w.numerator, w.denominator + 1)):
                vec = {a: value}
                expected = rejection(check_q_coefficients_fraction, k, vec)
                assert rejection(eisenstein._check_q_coefficients, k, eisenstein._lift(k, *as_rows(vec))) == expected, (k, value)

    def test_the_q1_closed_form_to_1000(self):
        for k in range(4, 1001, 2):
            assert Fraction(*eisenstein._q1_ratio(k)) == -2 * k * zeta_ratio(k) / bernoulli(k), k

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_check_rejects_exactly_when_the_fraction_reference_does(self, shared_table, data):
        table = shared_table.ensure(480)
        k = data.draw(st.sampled_from(range(8, 481, 2)), label="k")
        vec = table.w_vector(k)
        for a in data.draw(st.lists(st.sampled_from(sorted(vec)), unique=True), label="changed"):
            kind = data.draw(st.sampled_from(["add", "scale", "flip", "zero"]), label=f"kind {a}")
            if kind == "add":
                vec[a] += Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 10**6)))
            elif kind == "scale":
                vec[a] *= Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
            elif kind == "flip":
                vec[a] = -vec[a]
            else:
                vec[a] = Fraction(0)
        factor = data.draw(st.integers(1, 6), label="unreduced by")
        view = eisenstein._lift(k, *as_rows(vec, factor))
        expected = rejection(check_q_coefficients_fraction, k, vec)
        assert rejection(eisenstein._check_q_coefficients, k, view) == expected

    def test_a_zero_value_on_the_null_space_is_refused(self, tmp_path):
        # u + t (1, -2, 1) with t = -u_0 keeps both q-coefficients and zeroes w_{0,24}
        table = EisensteinTable().extend(24)
        r4, r6, r24 = zeta_ratio(4), zeta_ratio(6), zeta_ratio(24)
        ratio = {a: r4**a * r6 ** ((24 - 4 * a) // 6) / r24 for a, _ in exponents(24)}
        u = {a: w * ratio[a] for a, w in table.w_vector(24).items()}
        shift = -u[0]
        table._views[24] = integer_view_of({a: (u[a] + shift * c) / ratio[a] for a, c in ((0, 1), (3, -2), (6, 1))})
        path = tmp_path / "table.csv"
        table.dump_csv(path)
        assert "24,0,4,0/1" in path.read_text()
        with pytest.raises(ConsistencyError, match=r"weight 24: w_\{a,k\} <= 0 for a in \[0\]"):
            EisensteinTable.load_csv(path)

    def test_both_checks_accept_the_null_space_shift_of_w24(self, shared_table):
        # (1, -2, 1) / 100 on (u_0, u_3, u_6) keeps sum u_a and sum u_a (240a - 504b):
        # the blind spot of a two-coefficient check, shared by the reference
        vec = shared_table.ensure(24).w_vector(24)
        r4, r6, r24 = zeta_ratio(4), zeta_ratio(6), zeta_ratio(24)
        for a, du in ((0, 1), (3, -2), (6, 1)):
            vec[a] += Fraction(du, 100) * r24 / (r4**a * r6 ** ((24 - 4 * a) // 6))
        assert vec != shared_table.table.w_vector(24)
        assert rejection(check_q_coefficients_fraction, 24, vec) is None
        assert rejection(eisenstein._check_q_coefficients, 24, eisenstein._lift(24, *as_rows(vec))) is None
