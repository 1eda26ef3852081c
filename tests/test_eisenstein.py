import ast
import inspect
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from eisen import eisenstein
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
from eisen.replicate import selftest

W12 = {0: Fraction(25, 143), 3: Fraction(18, 143)}


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
        return GradedForm.from_numerators(k, {(0, a, (k - 4 * a) // 6): n for a, n in nums.items()}, scale)

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
        assert rademacher_expand(8, table) == {2: Fraction(3, 7)}

    def test_weight_twelve(self, shared_table):
        table = shared_table.ensure(12)
        assert rademacher_expand(12, table) == W12

    def test_weight_six_out_of_domain(self, shared_table):
        with pytest.raises(DomainError):
            rademacher_expand(6, shared_table.table)

    def test_missing_prerequisites(self):
        with pytest.raises(MissingWeightError):
            rademacher_expand(12, EisensteinTable())

    def test_folded_matches_symmetric(self, shared_table):
        table = shared_table.ensure(96)
        for k in (8, 12, 16, 24, 48, 96):
            assert rademacher_expand_folded(k, table) == rademacher_expand_unfolded(k, table)

    def test_fold_covers_k_2_mod_4(self, shared_table):
        table = shared_table.ensure(10)
        assert rademacher_expand(10, table) == rademacher_expand_unfolded(10, table) == {1: Fraction(5, 11)}
        assert rademacher_expand_folded(10, table) == rademacher_expand(10, table)
        for expand in (rademacher_expand, rademacher_expand_unfolded, rademacher_expand_folded):
            for k in (6, 9, 11, 4, 2, 0, -2):
                with pytest.raises(DomainError):
                    expand(k, table)

    def test_folded_matches_unfolded_to_200(self, shared_table):
        table = shared_table.ensure(200)
        for k in range(8, 201, 2):
            assert rademacher_expand(k, table) == rademacher_expand_unfolded(k, table), k

    def test_extend_cross_checks_both_residues_mod_4(self, monkeypatch):
        checked = []
        real = eisenstein.rademacher_expand_unfolded
        monkeypatch.setattr(
            eisenstein, "rademacher_expand_unfolded", lambda k, table: checked.append(k) or real(k, table)
        )
        EisensteinTable().extend(100)
        assert checked == [24, 26, 48, 50, 96, 98]

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

    @pytest.mark.parametrize("route", [eisenstein._popa_graded, eisenstein._popa_precancelled])
    def test_routes_share_no_convolution_helper(self, route):
        tree = ast.parse(inspect.getsource(route))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not {"_scaled_convolution", "_scaled_vector"} & names

    def test_selftest_leaves_the_scaled_cache_empty(self, tmp_path):
        dump = tmp_path / "table.csv"
        EisensteinTable().extend(48).dump_csv(dump)
        table = EisensteinTable.load_csv(dump)
        assert selftest(k_dual=48, k_qseries=24, k_phi=48, table=table).status == "PASS"
        assert table._scaled == {}


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
