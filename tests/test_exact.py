import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from eisen.errors import DomainError, InvalidPrimeError
from eisen.exact import (
    INFINITY,
    bernoulli,
    binomial,
    binomial_mod2,
    digit_sum_base2,
    divisor_power_sum,
    factorial_valuation2,
    is_prime,
    valuation,
    zeta_ratio,
)


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
                assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


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

    def test_addition_absorbs(self):
        assert INFINITY + 5 is INFINITY
        assert 5 + INFINITY is INFINITY

    def test_repr(self):
        assert repr(INFINITY) == "Infinity"


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


class TestFactorialValuation:
    def test_small_cases(self):
        assert factorial_valuation2(4) == 3  # 24 = 2^3 * 3
        assert factorial_valuation2(1) == 0
        assert factorial_valuation2(0) == 0

    def test_ten_against_legendre(self):
        legendre = 10 // 2 + 10 // 4 + 10 // 8
        assert legendre == 8
        assert factorial_valuation2(10) == legendre

    def test_against_direct_factorial(self):
        for m in range(0, 300):
            assert factorial_valuation2(m) == trial_division_valuation(math.factorial(m), 2)

    def test_against_legendre_to_ten_thousand(self):
        for m in range(0, 10001):
            legendre = 0
            q = m
            while q:
                q //= 2
                legendre += q
            assert factorial_valuation2(m) == legendre


class TestBinomial:
    def test_basic(self):
        assert binomial(6, 2) == 15
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0
        assert binomial(0, 0) == 1

    def test_pascal_value(self):
        # independent oracle: Pascal's recurrence
        row = [1]
        for n in range(1, 25):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        assert row[11] == 2496144
        assert binomial(24, 11) == 2496144

    def test_mod2_examples(self):
        assert binomial_mod2(6, 2) == 1  # C(6,2)=15
        assert binomial_mod2(6, 1) == 0  # C(6,1)=6
        for n in range(0, 40):
            assert binomial_mod2(n, 0) == 1

    def test_mod2_matches_binomial_exhaustively(self):
        for n in range(0, 257):
            for r in range(0, n + 1):
                assert binomial_mod2(n, r) == binomial(n, r) % 2, (n, r)

    def test_mod2_out_of_range(self):
        assert binomial_mod2(5, 9) == 0


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

    def test_concurrent_reads(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(bernoulli, [300] * 16))
        assert len(set(results)) == 1
        assert results[0] == bernoulli(300)


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
