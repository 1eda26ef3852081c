import time
from fractions import Fraction

import pytest

from eisen import eisenstein
from eisen.errors import ConsistencyError, DomainError, MissingWeightError
from eisen.exact import INFINITY, digit_sum_base2, zeta_ratio
from eisen.eisenstein import (
    D2,
    EisensteinTable,
    RecurrenceConstants,
    constants,
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
from eisen.qmring import E4, substitute_q_expansion

W12 = {0: Fraction(25, 143), 3: Fraction(18, 143)}


class TestConstants:
    def test_d4(self):
        assert popa_d(4) == Fraction(3, 16)
        assert constants(4) == RecurrenceConstants(c=Fraction(5, 6), d=Fraction(3, 16))

    def test_d2_named_constant(self):
        assert D2 == Fraction(-1, 8)
        assert popa_d(2) == D2  # the closed formula extends down to weight 2

    def test_c8(self):
        # 8/(2*5*3) + 4! * 2! / (2 * 7!) = 4/15 + 1/210
        assert popa_c(8) == Fraction(4, 15) + Fraction(1, 210)
        assert constants(8).c == Fraction(19, 70)

    def test_domain(self):
        with pytest.raises(DomainError):
            constants(2)
        with pytest.raises(DomainError):
            constants(7)
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
        assert table.origin(4) == "closed-form"

    def test_missing_weight(self):
        table = EisensteinTable()
        with pytest.raises(MissingWeightError):
            table.w_vector(8)
        with pytest.raises(MissingWeightError):
            table.origin(8)

    def test_extend_and_known_values(self, shared_table):
        table = shared_table.ensure(20)
        assert table.w_vector(8) == {2: Fraction(3, 7)}
        assert table.w_vector(10) == {1: Fraction(5, 11)}
        assert table.w_vector(12) == W12

    def test_determinism_bit_identical(self, shared_table):
        shared_table.ensure(60)
        fresh = EisensteinTable().extend(60)
        for k in fresh.weights():
            assert fresh.canonical_entry(k) == shared_table.table.canonical_entry(k)

    def test_canonical_entry_format(self, shared_table):
        table = shared_table.ensure(12)
        assert table.canonical_entry(12) == "12; 0,2:25/143; 3,0:18/143"

    def test_index_structure(self, shared_table):
        table = shared_table.ensure(120)
        for k in table.weights():
            for a in table.w_vector(k):
                assert (k - 4 * a) % 6 == 0
                assert 0 <= a <= k // 4

    def test_e2_freeness_is_structural(self, shared_table):
        table = shared_table.ensure(60)
        for k in (12, 30, 60):
            assert table.graded_form(k).is_e2_free

    def test_e_polynomial_weight_eight(self, shared_table):
        table = shared_table.ensure(8)
        assert table.e_polynomial(8) == E4 * E4

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            EisensteinTable().extend(10, method="magic")

    def test_popa_built_table_matches(self, shared_table):
        reference = shared_table.ensure(40)
        via_popa = EisensteinTable().extend(40, method="popa")
        for k in via_popa.weights():
            assert via_popa.w_vector(k) == reference.w_vector(k)
        assert via_popa.origin(12) == "popa"
        assert reference.origin(12) == "rademacher"


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
        table = shared_table.ensure(40)
        path = tmp_path / "table.csv"
        table.dump_csv(path)
        loaded = EisensteinTable.load_csv(path)
        assert loaded.weights() == table.weights()
        for k in table.weights():
            assert loaded.w_vector(k) == table.w_vector(k)
        assert loaded.origin(12) == "ingested"

    def test_loaded_table_extends(self, tmp_path, shared_table):
        table = shared_table.ensure(40)
        path = tmp_path / "table.csv"
        table.dump_csv(path)
        loaded = EisensteinTable.load_csv(path).extend(44)
        assert loaded.w_vector(44) == shared_table.ensure(44).w_vector(44)

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
    # takes most of them
    @pytest.mark.parametrize(
        "row",
        ["12,-3,4,1/1", "12,0", "12,0,2,abc", "12,0,2,1/0", "12,x,2,1/1"]
        + [f"12,0,2,{w}" for w in ("1e3", "1.5", "+25/143", " 25/143", "25/-143", "1_000", "\u0663/1", "25/", "/143")],
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
        path = tmp_path / "table.csv"
        path.write_text("k,a,b,w\n12,0,2,-25/143\n12,3,0,2\n")
        assert EisensteinTable.load_csv(path).w_vector(12) == {0: Fraction(-25, 143), 3: Fraction(2)}

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
