import ast
import inspect
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from eisen import cli, eisenstein, exact, gekeler, irreducibility, qmring, replicate
from eisen.errors import ConsistencyError, DomainError, MissingWeightError
from eisen.exact import INFINITY, digit_sum_base2, zeta_ratio
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
    rademacher_expand_unfolded,
)
from eisen.qmring import GradedForm, substitute_q_expansion
from eisen.replicate import gekeler_scan, selftest

W12 = {0: Fraction(25, 143), 3: Fraction(18, 143)}

#: the coefficient-domain convolution (``_scaled_vector`` is its former cache)
CONVOLUTION_HELPERS = {"_scaled_convolution", "_scaled_vector"}
#: the production sum's evaluation and interpolation
POINT_VALUE_HELPERS = {"_evaluate", "_pointwise_convolution", "_interpolate"}


def names_in(function) -> set:
    return names_in_tree(ast.parse(inspect.getsource(function)))


def names_in_tree(tree: ast.AST) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def point_values(table: EisensteinTable, k_max: int) -> dict:
    """Every weight of ``table`` below k_max at the nodes ``extend(k_max)`` evaluates."""
    nodes = k_max // 12 + 2
    return {m: eisenstein._evaluate(m, table.w_vector(m), nodes) for m in table.weights() if m < k_max}


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
        for a1, v1 in table._w[j + 1].items():
            for a2, v2 in table._w[k - j - 1].items():
                add(a1 + a2, coeff * v1 * v2)
    if k % 4 == 0:
        coeff = Fraction(k, 2) * popa_d(k // 2) ** 2
        for a1, v1 in table._w[k // 2].items():
            for a2, v2 in table._w[k // 2].items():
                add(a1 + a2, coeff * v1 * v2)
    half_dk2 = popa_d(k - 2) / 2
    for a, w in table._w[k - 2].items():
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

    def test_index_structure(self, shared_table):
        table = shared_table.ensure(120)
        for k in table.weights():
            for a in table.w_vector(k):
                assert (k - 4 * a) % 6 == 0
                assert 0 <= a <= k // 4

    def test_e2_freeness_is_structural(self, shared_table):
        table = shared_table.ensure(60)
        for k in (12, 30, 60):
            assert all(e2 == 0 for (e2, _, _) in table.graded_form(k).terms())

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
            assert cached == fresh, k
            assert cached.serialize() == fresh.serialize(), k
            assert hash(cached) == hash(fresh), k

    def test_second_read_returns_the_same_form(self, shared_table):
        table = shared_table.ensure(24)
        assert table.graded_form(24) is table.graded_form(24)

    def test_changing_terms_leaves_the_memo_unchanged(self, shared_table):
        table = shared_table.ensure(24)
        terms = table.graded_form(24).terms()
        terms[(0, 0, 4)] += 1
        terms.clear()
        assert table.graded_form(24) == self.fresh(table, 24)
        assert table.graded_form(24).serialize() == self.fresh(table, 24).serialize()

    def test_selftest_builds_each_weight_once(self, shared_table, tmp_path, monkeypatch):
        dump = tmp_path / "table.csv"
        shared_table.ensure(200).dump_csv(dump)
        table = EisensteinTable.load_csv(dump)
        calls: Counter = Counter()
        build = eisenstein._e_basis_numerators

        def counting(k, vec):
            calls[k] += 1
            return build(k, vec)

        monkeypatch.setattr(eisenstein, "_e_basis_numerators", counting)
        assert selftest(k_dual=200, k_qseries=60, k_phi=0, table=table).status == "PASS"
        assert calls == Counter(range(4, 199, 2))
        assert sum(calls.values()) == 98


class TestRademacher:
    def test_weight_eight_single_term(self, shared_table):
        # lone term p = 2: 3 * 3 * 3 / (1 * 7 * 9) = 3/7
        table = shared_table.ensure(8)
        assert rademacher_expand(8, point_values(table, 8)) == {2: Fraction(3, 7)}

    def test_weight_twelve(self, shared_table):
        table = shared_table.ensure(12)
        assert rademacher_expand(12, point_values(table, 12)) == W12

    def test_weight_six_out_of_domain(self, shared_table):
        with pytest.raises(DomainError):
            rademacher_expand(6, point_values(shared_table.table, 6))

    def test_missing_prerequisites(self):
        with pytest.raises(MissingWeightError):
            rademacher_expand(12, point_values(EisensteinTable(), 12))

    def test_too_few_nodes(self, shared_table):
        # w(24) has 3 unknowns, so it reads 4 nodes
        table = shared_table.ensure(20)
        points = {m: eisenstein._evaluate(m, table.w_vector(m), 3) for m in range(4, 21, 2)}
        with pytest.raises(DomainError, match="4 nodes"):
            rademacher_expand(24, points)

    def test_folded_matches_symmetric(self, shared_table):
        table = shared_table.ensure(96)
        for k in (8, 12, 16, 24, 48, 96):
            assert rademacher_expand_folded(k, table) == rademacher_expand_unfolded(k, table)

    def test_fold_covers_k_2_mod_4(self, shared_table):
        table = shared_table.ensure(10)
        points = point_values(table, 10)
        assert rademacher_expand(10, points) == rademacher_expand_unfolded(10, table) == {1: Fraction(5, 11)}
        assert rademacher_expand_folded(10, table) == rademacher_expand(10, points)
        sources = ((rademacher_expand, points), (rademacher_expand_unfolded, table), (rademacher_expand_folded, table))
        for expand, source in sources:
            for k in (6, 9, 11, 4, 2, 0, -2):
                with pytest.raises(DomainError):
                    expand(k, source)

    def test_folded_matches_unfolded_to_200(self, shared_table):
        table = shared_table.ensure(200)
        points = point_values(table, 200)
        for k in range(8, 201, 2):
            assert rademacher_expand(k, points) == rademacher_expand_unfolded(k, table), k

    def test_extend_cross_checks_both_residues_mod_4(self, monkeypatch):
        checked = []
        real = eisenstein.rademacher_expand_unfolded
        monkeypatch.setattr(
            eisenstein, "rademacher_expand_unfolded", lambda k, table: checked.append(k) or real(k, table)
        )
        EisensteinTable().extend(100)
        assert checked == [24, 26, 48, 50, 96, 98]
        on_the_way_to_500 = [k for k in range(8, 501, 2) if eisenstein._cross_checked(k)]
        assert on_the_way_to_500 == [24, 26, 48, 50, 96, 98, 192, 194, 384, 386]

    def test_extend_rejects_a_disagreeing_cross_check(self, monkeypatch):
        real = eisenstein.rademacher_expand_unfolded

        def perturbed(k, table):
            vec = real(k, table)
            if k == 26:
                vec[min(vec)] += 1
            return vec

        monkeypatch.setattr(eisenstein, "rademacher_expand_unfolded", perturbed)
        table = EisensteinTable().extend(24)
        with pytest.raises(ConsistencyError):
            table.extend(26)
        assert 26 not in table

    @pytest.mark.parametrize("z", [1, 5])
    def test_extend_rejects_a_perturbed_point_value(self, z, monkeypatch):
        # extend(44) evaluates at 44 // 12 + 2 = 5 nodes, all that w(44)
        # needs (4 unknowns and the check node z = 5)
        table = EisensteinTable().extend(42)
        real = eisenstein._evaluate

        def perturbed(k, vec, count):
            vals, den = real(k, vec, count)
            if k == 20:
                vals[z - 1] += 1
            return vals, den

        monkeypatch.setattr(eisenstein, "_evaluate", perturbed)
        match = "check node z = 5" if z == 5 else "weight 44"
        with pytest.raises(ConsistencyError, match=match):
            table.extend(44)
        assert 44 not in table

    def test_a_larger_extend_reevaluates_the_point_values(self, monkeypatch):
        # each extend evaluates every weight it reads at its own node count
        table = EisensteinTable().extend(100)
        nodes = []
        real = eisenstein._evaluate
        monkeypatch.setattr(eisenstein, "_evaluate", lambda k, vec, count: nodes.append(count) or real(k, vec, count))
        table.extend(200)
        assert nodes == [200 // 12 + 2] * len(range(4, 201, 2))
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
        assert evaluated == Counter(range(4, 101, 2))
        # a loaded table that already holds every weight costs the warm calls nothing
        dump = tmp_path / "table.csv"
        table.dump_csv(dump)
        expanded.clear()
        evaluated.clear()
        EisensteinTable.load_csv(dump).extend(100)
        assert not expanded and not evaluated

    def test_the_table_keeps_no_point_values(self):
        # the point values live in one extend call; the table keeps w(k), the
        # graded memo and the integer-view memo, and extend fills neither memo
        table = EisensteinTable().extend(100)
        assert set(vars(table)) == {"_w", "_graded", "_views"}
        assert table._graded == {}
        assert table._views == {}

    def test_expand_on_a_loaded_dump(self, shared_table, tmp_path):
        built = shared_table.ensure(120)
        dump = tmp_path / "table.csv"
        built.dump_csv(dump)
        loaded = EisensteinTable.load_csv(dump)
        points = point_values(loaded, 120)
        for k in range(8, 121, 2):
            vec = rademacher_expand(k, points)
            assert vec == built.w_vector(k), k
            assert list(vec) == sorted(vec)

    def test_folded_and_unfolded_share_no_convolution_arithmetic(self):
        assert not CONVOLUTION_HELPERS & names_in(eisenstein.rademacher_expand)
        assert not POINT_VALUE_HELPERS & names_in(eisenstein.rademacher_expand_unfolded)
        assert "_scaled_convolution" in names_in(eisenstein.rademacher_expand_unfolded)


class TestPopa:
    def test_weight_eight(self, shared_table):
        table = shared_table.ensure(8)
        assert popa_expand(8, table) == {2: Fraction(3, 7)}

    def test_weight_ten(self, shared_table):
        table = shared_table.ensure(10)
        assert popa_expand(10, table) == {1: Fraction(5, 11)}

    def test_weight_twelve_both_routes(self, shared_table):
        table = shared_table.ensure(12)
        assert popa_expand(12, table, route="graded") == W12
        assert popa_expand(12, table, route="precancelled") == W12

    def test_routes_agree_up_to_120(self, shared_table):
        table = shared_table.ensure(120)
        for k in range(8, 121, 2):
            expected = table.w_vector(k)
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
            assert popa_expand(k, table, route="precancelled") == popa_precancelled_fraction(k, table), k

    def test_graded_route_raises_on_an_uncancelled_e2_residue(self, shared_table, monkeypatch):
        # any table passes the cancellation: the E2 part of serre_derivative(G)
        # is (k - 2)/12 E2 G for every G of weight k - 2, so a wrong d_2 is the
        # only way to leave a residue
        table = shared_table.ensure(24)
        monkeypatch.setattr(eisenstein, "D2", Fraction(-1, 7))
        with pytest.raises(ConsistencyError, match="failed to cancel at weight 24"):
            popa_expand(24, table, route="graded")

    def test_graded_route_is_one_combination_per_weight(self, shared_table, monkeypatch):
        # all of Popa's terms go to the kernel at once: no ring operator, so
        # no per-term reduction, runs on the graded route
        table = shared_table.ensure(60)
        weights = []
        real = GradedForm.combination

        def counting(weight, terms):
            weights.append(weight)
            return real(weight, terms)

        def refuse(*args):
            raise AssertionError("a ring operator ran on the graded Popa route")

        monkeypatch.setattr(GradedForm, "combination", staticmethod(counting))
        for name in ("__add__", "__mul__", "__rmul__"):
            monkeypatch.setattr(GradedForm, name, refuse)
        for k in range(8, 61, 2):
            assert popa_expand(k, table, route="graded") == table.w_vector(k), k
        assert weights == list(range(8, 61, 2))

    def test_common_terms_match_the_popa_d_products(self):
        for k in range(8, 401, 2):
            over = [(Fraction(num, 2 ** (k + 2)), m1, m2) for num, m1, m2 in eisenstein._popa_common_terms(k)]
            assert over == popa_common_terms_fraction(k), k

    @pytest.mark.parametrize("route", [eisenstein._popa_graded, eisenstein._popa_precancelled])
    def test_routes_share_no_convolution_helper(self, route):
        names = names_in(route)
        assert not (CONVOLUTION_HELPERS | POINT_VALUE_HELPERS) & names

    def test_precancelled_route_builds_each_integer_view_once(self, monkeypatch):
        table = EisensteinTable().extend(60)
        for m in range(4, 59, 2):
            table.graded_form(m)  # so that only the precancelled route builds views
        built: Counter = Counter()
        real = eisenstein._integer_view

        def counting_view(vec):
            built[next(m for m, w in table._w.items() if w == vec)] += 1
            return real(vec)

        monkeypatch.setattr(eisenstein, "_integer_view", counting_view)
        assert selftest(k_dual=60, k_qseries=0, k_phi=0, table=table).status == "PASS"
        assert built == Counter(range(4, 59, 2))
        built.clear()
        assert popa_expand(60, table, "precancelled") == table.w_vector(60)
        assert not built

    def test_build_and_scan_leave_the_integer_view_memo_empty(self):
        table = EisensteinTable().extend(200)
        assert gekeler_scan(120, table=table).status == "PASS"
        assert table._views == {}

    def test_only_the_precancelled_route_reads_the_integer_view_memo(self):
        # outside the table's own constructor and memo, one reader in the package
        readers = set()
        for module in (cli, eisenstein, exact, gekeler, irreducibility, qmring, replicate):
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.FunctionDef) and {"integer_view", "_views"} & names_in_tree(node):
                    readers.add(node.name)
        assert readers == {"__init__", "integer_view", "_popa_precancelled"}

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
        assert min_valuation2(table.w_vector(12)) == 0

    def test_weight_four(self, shared_table):
        assert min_valuation2(shared_table.table.w_vector(4)) == 0

    def test_weight_twenty_matches_digit_sum(self, shared_table):
        table = shared_table.ensure(20)
        assert min_valuation2(table.w_vector(20)) == digit_sum_base2(20) - 2 == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            min_valuation2({})

    def test_zero_vector_value(self):
        assert min_valuation2({0: Fraction(0)}) is INFINITY


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
        table._w[24][min(table._w[24])] = Fraction(10**4300, 7)  # a 4301-digit numerator
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

    # 12,-3,4 satisfies 4a + 6b = k with a negative exponent; the w fields
    # after "12,x,2,1/1" are not -?digits[/digits], though Fraction(str)
    # takes most of them; the last index fields are not -?digits, though
    # int(str) takes them; the lone well-formed row leaves weight 12 without
    # its (a, b) = (3, 0) row; 0,0,0,1/1 satisfies 4a + 6b = k at weight 0
    @pytest.mark.parametrize(
        "row",
        ["12,-3,4,1/1", "12,0", "12,0,2,abc", "12,0,2,1/0", "12,x,2,1/1", "0,0,0,1/1"]
        + [f"12,0,2,{w}" for w in ("1e3", "1.5", "+25/143", " 25/143", "25/-143", "1_000", "\u0663/1", "25/", "/143")]
        + ["1_2,0,2,25/143", "12,+0,2,25/143", " 12,0,2,25/143", "12,0, 2,25/143", "12,0,2,25/143"],
    )
    def test_bad_row_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"k,a,b,w\n{row}\n")
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)

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
        table._w[24] = {a: v * r24 / (r4**a * r6 ** ((24 - 4 * a) // 6)) for a, v in u.items()}
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
        path = tmp_path / "bad.csv"
        path.write_text("k,a,b,w\n4,1,0,2/1\n")
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("12,0,2,25/143\n")
        with pytest.raises(ConsistencyError):
            EisensteinTable.load_csv(path)
