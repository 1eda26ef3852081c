import math
from fractions import Fraction

import pytest

from eisen import eisenstein
from eisen.eisenstein import EisensteinTable, elliptic_exponents, exponents
from eisen.errors import ConsistencyError, DomainError
from eisen.exact import zeta_ratio
from eisen.gekeler import GekelerPolynomial, phi_by_division, phi_closed_form
from eisen.irreducibility import primitive_integer_polynomial, valuation_profile
from eisen.replicate import gekeler_scan
from helpers import GOLDEN_PHI


def phi_by_division_fraction(k: int, table: EisensteinTable) -> tuple[Fraction, ...]:
    """phi_k's coefficients by division, summed term by term in Fractions.

    The arithmetic ``phi_by_division`` used before it summed integer
    numerators; kept as the reference the integer route must reproduce.
    """
    m, delta, epsilon = elliptic_exponents(k)
    nums, den = table.graded_form(k).numerators()
    u = {a: Fraction(n, den) / zeta_ratio(k) for (_, a, _), n in nums.items()}
    p: dict[int, Fraction] = {}
    for a, coeff in u.items():
        alpha = (a - delta) // 3
        p[alpha] = p.get(alpha, Fraction(0)) + coeff
    coeffs = []
    for r in range(m + 1):
        sign = -1 if (m - r) % 2 else 1
        total = Fraction(0)
        for alpha in range(r + 1):
            pa = p.get(alpha)
            if pa:
                total += pa * math.comb(m - alpha, r - alpha)
        coeffs.append(total * sign * Fraction(1728) ** (m - r))
    return tuple(coeffs)


def phi_closed_form_fraction(k: int, table: EisensteinTable) -> tuple[Fraction, ...]:
    """phi_k's coefficients by the closed formula, every term a Fraction.

    The arithmetic ``phi_closed_form`` used before it summed integers; kept as
    the reference the integer route must reproduce.
    """
    m = k // 12
    vec = table.w_vector(k)
    two_over_rk = Fraction(2) / zeta_ratio(k)
    coeffs = []
    for r in range(m + 1):
        sign = -1 if (m - r) % 2 else 1
        total = Fraction(0)
        for a in range(r + 1):
            w = vec.get(3 * a)
            if not w:
                continue
            term = (
                w
                * Fraction(2) ** (2 * k // 3 - 6 * r - 2 * a - 1)
                / (Fraction(3) ** (k // 4 + 3 * r) * Fraction(5) ** (a + k // 6) * Fraction(7) ** (k // 6 - 2 * a))
            )
            total += term * math.comb(m - a, m - r)
        coeffs.append(two_over_rk * sign * total)
    return tuple(coeffs)


class TestEllipticExponents:
    def test_residue_table(self):
        assert elliptic_exponents(12) == (1, 0, 0)
        assert elliptic_exponents(14) == (0, 2, 1)
        assert elliptic_exponents(16) == (1, 1, 0)
        assert elliptic_exponents(18) == (1, 0, 1)
        assert elliptic_exponents(20) == (1, 2, 0)
        assert elliptic_exponents(22) == (1, 1, 1)
        assert elliptic_exponents(4) == (0, 1, 0)
        assert elliptic_exponents(6) == (0, 0, 1)
        assert elliptic_exponents(8) == (0, 2, 0)
        assert elliptic_exponents(10) == (0, 1, 1)

    def test_reconstruction(self):
        for k in range(4, 500, 2):
            m, delta, epsilon = elliptic_exponents(k)
            assert k == 12 * m + 4 * delta + 6 * epsilon
            assert delta in (0, 1, 2) and epsilon in (0, 1) and m >= 0

    def test_multiples_of_twelve(self):
        for k in (12, 24, 120, 480):
            m, delta, epsilon = elliptic_exponents(k)
            assert (delta, epsilon) == (0, 0) and m == k // 12

    def test_domain(self):
        for k in (2, 3, 9):
            with pytest.raises(DomainError):
                elliptic_exponents(k)
            with pytest.raises(DomainError):
                exponents(k)

    def test_one_decomposition_gives_every_exponent_pair(self):
        # the brute-force filter and the k mod 12 lookup table that the
        # closed form delta = k mod 3, epsilon = k/2 mod 2 replaced
        old_table = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}
        for k in range(4, 2001, 2):
            assert exponents(k) == [(a, (k - 4 * a) // 6) for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0], k
            delta, epsilon = old_table[k % 12]
            assert elliptic_exponents(k) == ((k - 4 * delta - 6 * epsilon) // 12, delta, epsilon), k


class TestKnownPolynomials:
    def test_weight_twelve(self, shared_table):
        table = shared_table.ensure(24)
        assert phi_closed_form(12, table).coeffs == GOLDEN_PHI[12]
        assert phi_by_division(12, table).coeffs == GOLDEN_PHI[12]

    def test_weight_sixteen_golden(self, shared_table):
        table = shared_table.ensure(16)
        assert phi_by_division(16, table).coeffs == GOLDEN_PHI[16]

    def test_weight_twentyfour_golden(self, shared_table):
        table = shared_table.ensure(24)
        assert phi_closed_form(24, table).coeffs == GOLDEN_PHI[24]
        assert phi_by_division(24, table).coeffs == GOLDEN_PHI[24]

    def test_weight_four_constant(self, shared_table):
        phi = phi_by_division(4, shared_table.table)
        assert phi.coeffs == (Fraction(1),)
        assert phi.degree == 0
        assert elliptic_exponents(phi.k) == (0, 1, 0)

    def test_weight_fourteen_constant(self, shared_table):
        phi = phi_by_division(14, shared_table.ensure(14))
        assert phi.degree == 0
        assert elliptic_exponents(phi.k) == (0, 2, 1)

    def test_monic_for_small_multiples_of_twelve(self, shared_table):
        table = shared_table.ensure(36)
        for k in (12, 24, 36):
            assert phi_closed_form(k, table).coeffs[-1] == 1

    def test_str_rendering(self, shared_table):
        table = shared_table.ensure(16)
        assert str(phi_by_division(16, table)) == "X - 3456000/3617"
        assert str(phi_by_division(4, table)) == "1"


class TestRouteEquivalence:
    def test_up_to_120(self, shared_table):
        table = shared_table.ensure(120)
        for k in range(12, 121, 12):
            assert phi_closed_form(k, table).coeffs == phi_by_division(k, table).coeffs, k

    def test_division_matches_fraction_reference_to_480(self, shared_table):
        table = shared_table.ensure(480)
        for k in range(4, 481, 2):
            assert phi_by_division(k, table).coeffs == phi_by_division_fraction(k, table), k

    def test_closed_form_matches_fraction_reference_to_480(self, shared_table):
        table = shared_table.ensure(480)
        for k in range(12, 481, 12):
            assert phi_closed_form(k, table).coeffs == phi_closed_form_fraction(k, table), k

    def test_ints_are_the_primitive_polynomial_of_the_fraction_references_to_200(self, shared_table):
        def primitive(coeffs):  # the constant phi_k = 1 has no primitive polynomial of degree >= 1
            return tuple(primitive_integer_polynomial(coeffs)) if len(coeffs) > 1 else (1,)

        table = shared_table.ensure(200)
        for k in range(4, 201, 2):
            assert phi_by_division(k, table).ints == primitive(phi_by_division_fraction(k, table)), k
        for k in range(12, 201, 12):
            assert phi_closed_form(k, table).ints == primitive(phi_closed_form_fraction(k, table)), k

    @pytest.mark.parametrize("route", [phi_by_division, phi_closed_form])
    def test_perturbed_weight_is_non_monic(self, route):
        table = EisensteinTable().extend(24)
        nums, _ = table.integer_view(24)
        nums[3] *= 2  # w_{3,24} doubled in the stored view
        with pytest.raises(ConsistencyError, match="non-monic"):
            route(24, table)

    def test_routes_leave_the_point_value_cache_empty(self, tmp_path, monkeypatch):
        # the phi routes read w(k) only and evaluate no point value of the convolution
        dump = tmp_path / "table.csv"
        EisensteinTable().extend(48).dump_csv(dump)
        table = EisensteinTable.load_csv(dump)
        evaluated = []
        real = eisenstein._evaluate
        monkeypatch.setattr(eisenstein, "_evaluate", lambda k, vec, count: evaluated.append(k) or real(k, vec, count))
        for k in range(4, 49, 2):
            phi_by_division(k, table)
        for k in range(12, 49, 12):
            phi_closed_form(k, table)
        assert evaluated == []

    def test_routes_and_scan_leave_the_graded_memo_empty(self, tmp_path):
        # the memo serves the Popa and q-series cross-checks only; the phi
        # routes and the scan read e_basis_numerators and keep no form
        dump = tmp_path / "table.csv"
        EisensteinTable().extend(120).dump_csv(dump)
        table = EisensteinTable.load_csv(dump)
        for k in range(4, 121, 2):
            phi_by_division(k, table)
        for k in range(12, 121, 12):
            phi_closed_form(k, table)
        assert gekeler_scan(120, table=table).status == "PASS"
        assert table._graded == {}

    def test_closed_form_domain(self, shared_table):
        with pytest.raises(DomainError):
            phi_closed_form(16, shared_table.table)
        with pytest.raises(DomainError):
            phi_closed_form(8, shared_table.table)


class TestValuationProfile:
    def test_weight_twelve(self, shared_table):
        table = shared_table.ensure(12)
        profile = valuation_profile(phi_by_division(12, table).ints, 2)
        assert profile == (7,)
        assert (2 * 12 - 3) // 3 == 7

    def test_weight_twentyfour(self, shared_table):
        table = shared_table.ensure(24)
        profile = valuation_profile(phi_by_division(24, table).ints, 2)
        assert profile[0] == (2 * 24 - 3) // 3 == 15
        assert profile == (15, 10)

    def test_constant_polynomial_empty(self, shared_table):
        assert valuation_profile(phi_by_division(4, shared_table.table).ints, 2) == ()

    def test_other_prime(self, shared_table):
        table = shared_table.ensure(12)
        # 432000 = 2^7 3^3 5^3, 691 is prime
        assert valuation_profile(phi_by_division(12, table).ints, 3) == (3,)
        assert valuation_profile(phi_by_division(12, table).ints, 5) == (3,)
        assert valuation_profile(phi_by_division(12, table).ints, 691) == (-1,)


class TestValidation:
    def test_non_monic_rejected(self):
        # 1 + 2X over 1: the routes' one constructor refuses a leading coefficient other than 1
        with pytest.raises(ConsistencyError, match="non-monic: leading 2"):
            GekelerPolynomial.from_ratio(12, [1, 2], 1)

    def test_weight_bookkeeping_rejected(self):
        with pytest.raises(ConsistencyError, match="weight bookkeeping broken"):
            GekelerPolynomial(k=14, ints=(3, 1))

    @pytest.mark.parametrize("ints", [(2, 4), (-3, -2), (3, 0)], ids=["content-2", "negative-leading", "zero-leading"])
    def test_non_primitive_ints_rejected(self, ints):
        with pytest.raises(ConsistencyError, match="not held as a primitive integer polynomial"):
            GekelerPolynomial(k=12, ints=ints)

    def test_from_ratio_divides_out_the_content_with_the_sign(self):
        # (-6 - 4X) / -4 = 3/2 + X, held as 3 + 2X whatever the sign of the denominator
        for nums, den in (([-6, -4], -4), ([6, 4], 4), ([3, 2], 2)):
            phi = GekelerPolynomial.from_ratio(12, nums, den)
            assert phi.ints == (3, 2)
            assert phi.coeffs == (Fraction(3, 2), Fraction(1))
