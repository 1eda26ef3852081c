import csv
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from eisen import exact
from eisen.errors import DomainError, InvalidPrimeError
from eisen.exact import (
    INFINITY,
    bernoulli,
    digit_sum_base2,
    divisor_power_sum,
    format_rational,
    is_prime,
    json_valuation,
    parse_integer,
    parse_rational,
    valuation,
    zeta_ratio,
)
from eisen.gekeler import phi_by_division


def trial_division_valuation(n: int, p: int) -> int:
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestValuation:
    def test_zero_is_infinity(self):
        assert valuation(Fraction(0), 2) is INFINITY
        assert valuation(0, 5) is INFINITY

    def test_nine_halves_at_three(self):
        assert valuation(Fraction(9, 2), 3) == 2

    def test_constant_of_weight_twelve(self):
        # independent oracle: strip factors of 2 from 432000 by trial division
        assert trial_division_valuation(432000, 2) == 7
        assert valuation(Fraction(-432000, 691), 2) == 7

    def test_negative_valuation(self):
        assert valuation(Fraction(3, 8), 2) == -3

    def test_integer_argument(self):
        assert valuation(48, 2) == 4

    def test_bad_primes(self):
        with pytest.raises(InvalidPrimeError):
            valuation(Fraction(1), 1)
        with pytest.raises(InvalidPrimeError):
            valuation(Fraction(1), -7)
        with pytest.raises(InvalidPrimeError):
            valuation(Fraction(6), 119)  # 7 * 17

    def test_small_composite_moduli_rejected(self):
        # nu_4(-4) = 1 would make x^2 - 4 pass the valuation criterion
        for p in (4, 6, 9, 15, 49, 91):
            with pytest.raises(InvalidPrimeError):
                valuation(Fraction(-4), p)

    def test_large_prime_accepted(self):
        assert valuation(Fraction(101**3, 7), 101) == 3

    def test_additive_under_multiplication(self):
        rng = random.Random(7)
        for _ in range(200):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            for p in (2, 3, 5):
                if x and y:
                    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
                else:
                    assert valuation(x * y, p) is INFINITY


class TestInfinity:
    def test_ordering(self):
        assert INFINITY > 10**100
        assert not INFINITY < 5
        assert INFINITY >= INFINITY
        assert 3 < INFINITY
        assert min([3, INFINITY]) == 3
        assert min([INFINITY, INFINITY]) is INFINITY

    def test_identity_and_hash(self):
        assert INFINITY == INFINITY
        assert INFINITY != 10
        assert hash(INFINITY) == hash(INFINITY)

    def test_repr(self):
        assert repr(INFINITY) == "Infinity"

    def test_json_valuation(self):
        assert json_valuation(INFINITY) == "inf"
        assert [json_valuation(v) for v in (0, 7, -3)] == [0, 7, -3]


class TestDigitSums:
    def test_twelve(self):
        assert digit_sum_base2(12) == 2  # 1100

    def test_powers_of_two(self):
        for ell in range(0, 40):
            assert digit_sum_base2(2**ell) == 1

    def test_zero(self):
        assert digit_sum_base2(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            digit_sum_base2(-1)


def bernoulli_by_convolution(n_max: int) -> list[Fraction]:
    """B_0, B_2, ..., B_{n_max} from the defining sum C(m+1, j) B_j = 0 on even indices.

    The O(n^2) Fraction recurrence that filled the Bernoulli memo before the
    tangent numbers; kept as the reference they must reproduce.
    """
    even = [Fraction(1)]  # index t holds B_{2t}
    for t in range(1, n_max // 2 + 1):
        m = 2 * t
        acc = sum((math.comb(m + 1, 2 * j) * even[j] for j in range(t)), Fraction(0))
        # the lone odd contribution C(m+1, 1) * B_1 folds into the 1/2
        even.append(Fraction(1, 2) - acc / (m + 1))
    return even


class TestBernoulli:
    def akiyama_tanigawa(self, n: int) -> Fraction:
        # independent oracle for B_n ("second" convention; even indices agree)
        row = [Fraction(1, m + 1) for m in range(n + 1)]
        for i in range(1, n + 1):
            row = [(j + 1) * (row[j] - row[j + 1]) for j in range(n + 1 - i)]
        return row[0]

    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_indices(self):
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(3) == 0
        assert bernoulli(17) == 0

    def test_against_independent_recurrence(self):
        for n in range(0, 40, 2):
            assert bernoulli(n) == self.akiyama_tanigawa(n), n

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli(-2)

    def test_denominator_exactly_even(self):
        # 2 divides every denominator exactly once (von Staudt-Clausen)
        for n in range(2, 202, 2):
            assert valuation(bernoulli(n), 2) == -1

    def test_matches_convolution_sum_to_480(self):
        even = bernoulli_by_convolution(480)
        for n in range(0, 481):
            expected = even[n // 2] if n % 2 == 0 else (Fraction(-1, 2) if n == 1 else 0)
            assert bernoulli(n) == expected, n

    def test_concurrent_reads(self, monkeypatch):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(bernoulli, [300] * 16))
        assert len(set(results)) == 1
        assert results[0] == bernoulli(300)
        # from an empty memo, threads of mixed sizes each swap in their own
        sizes = [480, 2, 300, 40] * 4
        reference = bernoulli_by_convolution(480)
        monkeypatch.setattr(exact, "_tangent_numbers", ())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(bernoulli, sizes, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [reference[n // 2] for n in sizes]


class TestZetaRatio:
    def test_known_values(self):
        assert zeta_ratio(2) == Fraction(1, 3)
        assert zeta_ratio(4) == Fraction(1, 45)
        assert zeta_ratio(6) == Fraction(2, 945)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_ratio(5)
        with pytest.raises(DomainError):
            zeta_ratio(0)

    def test_two_adic_value_of_halved_ratio(self):
        # nu_2(zeta(k)/pi^k) = (k-1) + nu_2(B_k) - nu_2(k!) = s_2(k) - 2;
        # in particular it vanishes for k = 12 * 2^l, the case the
        # irreducibility argument leans on
        for k in range(2, 202, 2):
            assert valuation(zeta_ratio(k) / 2, 2) == digit_sum_base2(k) - 2
            assert valuation(zeta_ratio(k), 2) == valuation(Fraction(2**k) * bernoulli(k) / math.factorial(k), 2)
        for ell in range(0, 5):
            assert valuation(zeta_ratio(12 * 2**ell) / 2, 2) == 0

    def test_matches_bernoulli_form_to_480(self):
        for k in range(2, 481, 2):
            sign = 1 if (k // 2) % 2 else -1
            assert zeta_ratio(k) == Fraction(sign * 2**k, math.factorial(k)) * bernoulli(k), k


class TestRationalArithmetic:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            num = rng.randint(-10**6, 10**6) or 1
            den = rng.randint(1, 10**6)
            x = Fraction(num, den)
            assert x * (1 / x) == 1

    def test_canonical_form_unique(self):
        a = Fraction(2, 4)
        b = Fraction(-3, -6)
        assert a == b
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator) == (1, 2)
        assert Fraction(5, -10).denominator > 0


class TestSmallHelpers:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)
        assert not is_prime(119)

    def test_is_prime_bound(self):
        assert is_prime(2**32 - 5)  # the largest prime below the bound
        for n in (2**32 + 15, (10**7 + 19) ** 2, 10**29 + 319):
            with pytest.raises(DomainError):
                is_prime(n)

    def test_divisor_power_sum(self):
        assert divisor_power_sum(4, 3) == 1 + 8 + 64
        assert divisor_power_sum(1, 5) == 1
        assert divisor_power_sum(6, 1) == 12
        with pytest.raises(DomainError):
            divisor_power_sum(0, 1)


class TestParseRational:
    def test_round_trips_what_the_package_writes(self, tmp_path, shared_table):
        table = shared_table.ensure(60)
        path = tmp_path / "table.csv"
        table.dump_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for k, a, _, w in rows:
            assert parse_rational(w) == table.w_vector(int(k))[int(a)]
            assert format_rational(parse_rational(w)) == w
        for k in range(12, 61, 2):
            for c in phi_by_division(k, table).coeffs:
                assert parse_rational(format_rational(c)) == c

    def test_format_rational_writes_num_den(self):
        assert format_rational(Fraction(-25, 143)) == "-25/143"
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(-7)) == "-7/1"
        assert format_rational(Fraction(0)) == "0/1"

    def test_format_rational_stops_at_the_digit_limit(self):
        # past CPython's int-to-str limit the writer raises DomainError, not a
        # bare ValueError that the CLI would report as a failed check
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            widest = Fraction(10**4300 - 1, 7)
            assert parse_rational(format_rational(widest)) == widest
            with pytest.raises(DomainError, match="4300"):
                format_rational(Fraction(10**4300, 7))
            with pytest.raises(DomainError, match="4300"):
                format_rational(Fraction(7, 10**4300 + 1))
        finally:
            sys.set_int_max_str_digits(old)

    def test_integers_and_signs(self):
        assert parse_rational("-25/143") == Fraction(-25, 143)
        assert parse_rational("6/4") == Fraction(3, 2)
        assert parse_rational("-7") == -7
        assert parse_integer("-12") == -12 and parse_integer("0") == 0

    @pytest.mark.parametrize(
        "text", ["1e3", "1.5", "+1", " 1", "1_0", "1/0", "1/00", "1/-2", "\u0663/1", "1/", "/2", ""]
    )
    def test_rejects_non_digit_text(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1/2", "+1", " 1", "1 ", "1_0", "1e3", "\u0663", ""])
    def test_integer_rejects_non_digit_text(self, text):
        with pytest.raises(DomainError):
            parse_integer(text)

    def test_long_numbers_parse_or_raise_domain_error(self):
        # int(str) refuses more than sys.get_int_max_str_digits() digits
        # (4300 by default); that refusal must surface as DomainError
        big = 10**5000 - 1
        for parse, text, value in (
            (parse_rational, "9" * 5000, big),
            (parse_rational, "1/" + "9" * 5000, Fraction(1, big)),
            (parse_integer, "9" * 5000, big),
        ):
            try:
                assert parse(text) == value
            except DomainError:
                pass
