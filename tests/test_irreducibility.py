import copy
import functools
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisen import exact, irreducibility, recheck
from eisen.errors import DomainError, InvalidPrimeError
from eisen.exact import INFINITY, is_prime
from eisen.irreducibility import (
    NewtonPolygon,
    assemble_pattern_certificate,
    distinct_degree_pattern,
    dumas_check,
    finite_field_degree_patterns,
    newton_polygon,
    primes_above,
    primitive_integer_polynomial,
    select_witness_primes,
    valuation_profile,
)
from eisen.gekeler import phi_by_division
from eisen.recheck import _ddf_by_repeated_squaring, recheck_dumas_certificate, recheck_pattern_certificate
from eisen.replicate import check_theorem_main, dumas_applies
from helpers import covers


# --- independent test-side helpers -----------------------------------------


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def exact_monic_divides(g, f):
    """True if the monic integer polynomial g divides f over Z."""
    rem = list(f)
    dg = len(g) - 1
    while len(rem) - 1 >= dg and any(rem):
        lead = rem[-1]
        shift = len(rem) - 1 - dg
        for i, c in enumerate(g):
            rem[shift + i] -= lead * c
        while rem and rem[-1] == 0:
            rem.pop()
    return not any(rem)


def signed_divisors(n):
    n = abs(n)
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out.extend((d, -d))
    return out


def no_small_integer_factor(f, max_deg=4):
    """Bounded search for a monic integer factor of degree <= max_deg.

    Candidate constant terms divide f(0); candidates are pruned by the
    classical conditions g(1) | f(1) and g(-1) | f(-1) before any division.
    Only ever used on polynomials the criteria called irreducible, so a found
    factor is a soundness bug.
    """
    n = len(f) - 1
    if f[0] == 0:
        return False
    f1 = sum(f)
    fm1 = sum(c * (-1) ** i for i, c in enumerate(f))
    if f1 == 0 or fm1 == 0:
        return False
    bound = 1 + max(abs(c) for c in f)
    for d in range(1, min(max_deg, n - 1) + 1):
        for g0 in signed_divisors(f[0]):
            for mid in itertools.product(range(-bound, bound + 1), repeat=d - 1):
                g = [g0, *mid, 1]
                g1 = sum(g)
                gm1 = sum(c * (-1) ** i for i, c in enumerate(g))
                if g1 == 0 or f1 % g1 or gm1 == 0 or fm1 % gm1:
                    continue
                if exact_monic_divides(g, f):
                    return False
    return True


class TestTestHelpers:
    def test_search_finds_planted_factors(self):
        rng = random.Random(17)
        for _ in range(25):
            g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
            h = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
            if g[0] == 0 or h[0] == 0:
                continue
            f = poly_mul(g, h)
            assert not no_small_integer_factor(f)

    def test_search_passes_known_irreducible(self):
        assert no_small_integer_factor([2, 2, 1])  # x^2 + 2x + 2
        assert no_small_integer_factor([1, 0, 0, 0, 1])  # x^4 + 1


@st.composite
def monic_rational_polys(draw):
    """Monic rational polynomials of degree 1..8, with zeros and prime powers among the coefficients."""
    n = draw(st.integers(1, 8))
    nums = st.integers(-2000, 2000) | st.sampled_from([0, 2**9, -(3**7), 5**4 * 7, 691 * 8])
    dens = st.sampled_from([1, 2, 4, 3, 9, 5, 7, 12, 691, 3617, 2**11 * 3**5])
    return [Fraction(draw(nums), draw(dens)) for _ in range(n)] + [Fraction(1)]


#: nonzero rationals with prime powers in numerator and denominator, to scale a polynomial by
SCALES = st.builds(Fraction, st.integers(-64, 64).filter(bool), st.sampled_from([1, 2, 3, 8, 27, 49, 691]))


class TestDumas:
    def test_eisenstein_special_case(self):
        cert = dumas_check([2, 2, 1], 2)
        assert cert.verdict == "irreducible"
        assert cert.criterion == "dumas"
        assert cert.primes == (2,)

    def test_gcd_failure_is_inconclusive(self):
        cert = dumas_check([-1, 0, 1], 2)  # x^2 - 1: nu(a_0) = 0, gcd(0, 2) = 2
        assert cert.verdict == "inconclusive"
        assert cert.fields["gcd"] == 2
        assert "gcd" in cert.reason

    def test_phi_24_is_irreducible_at_two(self, shared_table):
        phi = phi_by_division(24, shared_table.ensure(24))
        cert = dumas_check(phi.ints, 2, poly_id="phi_24")
        assert cert.verdict == "irreducible"
        assert cert.fields["valuations"] == [15, 10]

    @given(monic_rational_polys(), SCALES)
    @example([Fraction(1, 2), Fraction(1, 2), Fraction(1)], Fraction(2))  # 1 + x + 2x^2
    @example([Fraction(2), Fraction(2), Fraction(1)], Fraction(-3, 8))  # Eisenstein at 2, certified
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_multiple_gives_the_monic_document(self, monic, scale):
        # s f and its integer polynomial are read as the monic f / f_n, byte for byte
        multiples = ([scale * c for c in monic], primitive_integer_polynomial(monic))
        for p in exact.SMALL_PRIMES[:6]:
            doc = dumas_check(monic, p).to_json_dict()
            for f in multiples:
                assert json.dumps(dumas_check(f, p).to_json_dict()) == json.dumps(doc), (f, p)
            assert recheck_dumas_certificate(doc) == (doc["verdict"] == "irreducible"), p

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DomainError, match="leading coefficient is zero"):
            dumas_check([2, 2, 0], 2)
        with pytest.raises(DomainError, match="leading coefficient is zero"):
            valuation_profile([2, 0], 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            dumas_check([1], 2)

    def test_zero_constant_term(self):
        cert = dumas_check([0, 2, 1], 2)
        assert cert.verdict == "inconclusive"
        assert cert.reason == "zero constant term"
        assert cert.fields["valuations"][0] == "inf"

    def test_slope_failure(self):
        # nu(a_0) = 2 but nu(a_1) = 0: point below the chord
        cert = dumas_check([4, 1, 1], 2)
        assert cert.verdict == "inconclusive"
        assert not cert.slope_condition

    def test_sparse_polynomial_vacuous_slots(self):
        # x^5 + 2: interior zero coefficients satisfy the slope bound vacuously
        cert = dumas_check([2, 0, 0, 0, 0, 1], 2)
        assert cert.verdict == "irreducible"

    def test_rational_coefficients(self):
        # x^2 + x + 1/2 at 2: nu(a_0) = -1 and gcd(1, 2) = 1
        cert = dumas_check([Fraction(1, 2), 1, 1], 2)
        assert cert.verdict == "irreducible"

    def test_degree_one_always_certified(self):
        assert dumas_check([Fraction(-432000, 691), 1], 2).verdict == "irreducible"


class TestDumasScreen:
    @given(monic_rational_polys(), st.integers(-50, 50).filter(bool))
    @example([Fraction(0), Fraction(2), Fraction(1)], 1)  # zero constant term
    @example([Fraction(2), Fraction(1), Fraction(1)], 1)  # gcd 1 at p = 2, the slope bound fails at r = 1
    @example([Fraction(2), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1)], -3)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_screen_is_true_iff_dumas_check_certifies(self, coeffs, scale):
        # any nonzero multiple of the integer polynomial has the same valuation differences
        ints = [scale * c for c in primitive_integer_polynomial(coeffs)]
        for p in exact.SMALL_PRIMES:
            assert dumas_applies(ints, p) == (dumas_check(ints, p).verdict == "irreducible"), p


class TestDumasCertificateJson:
    def test_field_order_is_stable(self):
        doc = dumas_check([2, 2, 1], 2, poly_id="demo").to_json_dict()
        assert list(doc) == [
            "poly",
            "prime",
            "valuations",
            "slope_num",
            "slope_den",
            "gcd",
            "verdict",
            "criterion",
        ]
        assert doc["poly"]["coeffs"] == ["2/1", "2/1", "1/1"]
        assert doc["slope_num"] == -1 and doc["slope_den"] == 2

    def test_json_serializable_and_recheckable(self):
        doc = dumas_check([2, 2, 1], 2).to_json_dict()
        round_tripped = json.loads(json.dumps(doc))
        assert recheck_dumas_certificate(round_tripped)

    def test_tampered_certificate_fails(self):
        doc = dumas_check([2, 2, 1], 2).to_json_dict()
        bad = json.loads(json.dumps(doc))
        bad["valuations"][0] = 3
        assert not recheck_dumas_certificate(bad)

    def test_wrong_verdict_fails(self):
        doc = dumas_check([-1, 0, 1], 2).to_json_dict()
        bad = json.loads(json.dumps(doc))
        bad["verdict"] = "irreducible"
        assert not recheck_dumas_certificate(bad)

    def test_editing_a_dumas_document_leaves_the_certificate_sound(self):
        cert = dumas_check([2, 2, 1], 2)
        cert.to_json_dict()["valuations"][0] = 3
        assert recheck_dumas_certificate(cert.to_json_dict())


# sha256 of json.dumps of every document in the corpus below, one per line,
# recorded before certificates were kept as their documents
CERTIFICATE_CORPUS_SHA256 = "a0811a099fde0a438f755630e481a2b9cedeb4a22126e184caef2482d6e22882"


def test_certificate_documents_are_pinned(shared_table):
    table = shared_table.ensure(200)
    docs = [record["certificate"] for record in check_theorem_main(4, table).records]
    for k in range(4, 201, 2):
        phi = phi_by_division(k, table)
        if phi.degree < 1:
            continue
        dumas = [dumas_check(phi.ints, p, poly_id=f"phi_{k}").to_json_dict() for p in exact.SMALL_PRIMES[:8]]
        # the monic Fractions give the bytes of the integers
        assert json.dumps(dumas_check(phi.coeffs, 2, poly_id=f"phi_{k}").to_json_dict()) == json.dumps(dumas[0])
        kept, _examined = select_witness_primes(phi.ints, floor=k)
        docs += [*dumas, assemble_pattern_certificate(phi.ints, kept, poly_id=f"phi_{k}").to_json_dict()]
    assert len(docs) == 851
    digest = hashlib.sha256("\n".join(json.dumps(doc) for doc in docs).encode()).hexdigest()
    assert digest == CERTIFICATE_CORPUS_SHA256


class TestNewtonPolygon:
    def test_single_segment(self):
        polygon = newton_polygon([2, 2, 1], 2)
        assert polygon.vertices == ((0, 1), (2, 0))
        assert polygon.slopes == ((Fraction(-1, 2), 2),)
        assert polygon.is_single_segment()

    def test_phi_12(self, shared_table):
        phi = phi_by_division(12, shared_table.ensure(12))
        polygon = newton_polygon(phi.ints, 2)
        assert polygon.vertices == ((0, 7), (1, 0))

    def test_two_segments(self):
        polygon = newton_polygon([4, 1, 1], 2)
        assert polygon.vertices == ((0, 2), (1, 0), (2, 0))
        assert polygon.slopes == ((Fraction(-2), 1), (Fraction(0), 1))

    def test_slopes_strictly_increase(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 9)
            vals = [rng.randint(-8, 8)] + [
                INFINITY if rng.random() < 0.25 else rng.randint(-8, 8) for _ in range(n - 1)
            ] + [0]
            polygon = NewtonPolygon.from_valuations(2, vals)
            slopes = [s for s, _ in polygon.slopes]
            assert slopes == sorted(slopes)
            assert len(set(slopes)) == len(slopes)

    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            newton_polygon([0, 1, 1], 2)

    @given(monic_rational_polys().filter(lambda f: f[0]), SCALES)
    @example([Fraction(1, 3), Fraction(1, 3), Fraction(1)], Fraction(3))  # 1 + x + 3x^2
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_multiple_gives_the_monic_polygon(self, monic, scale):
        multiples = ([scale * c for c in monic], primitive_integer_polynomial(monic))
        for p in exact.SMALL_PRIMES[:6]:
            assert all(newton_polygon(f, p) == newton_polygon(monic, p) for f in multiples), p

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DomainError, match="leading coefficient is zero"):
            newton_polygon([1, 1, 0], 2)

    def test_endpoints_for_monic_input(self):
        polygon = newton_polygon([8, 6, 4, 1], 2)
        assert polygon.vertices[0] == (0, 3)
        assert polygon.vertices[-1] == (3, 0)


class TestPolygonDumasEquivalence:
    def chord_condition(self, vals):
        n = len(vals) - 1
        v0 = vals[0]
        return all(v is INFINITY or v * n >= v0 * (n - r) for r, v in enumerate(vals[:-1]))

    def test_equivalence_on_random_vectors(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(2, 10)
            vals = [rng.randint(-10, 10)]
            vals += [INFINITY if rng.random() < 0.2 else rng.randint(-10, 10) for _ in range(n - 1)]
            vals.append(0)
            polygon = NewtonPolygon.from_valuations(2, vals)
            v0 = vals[0]
            vertices_on_or_above = all(y * n >= v0 * (n - x) for x, y in polygon.vertices)
            assert self.chord_condition(vals) == vertices_on_or_above, vals


class TestDistinctDegreePatterns:
    def test_quadratic_with_no_root(self):
        assert distinct_degree_pattern([1, 0, 1], 3) == [2]

    def test_full_split(self):
        assert distinct_degree_pattern([-1, 0, 1], 5) == [1, 1]
        assert distinct_degree_pattern([0, -1, 0, 1], 5) == [1, 1, 1]  # x(x-1)(x+1)
        assert distinct_degree_pattern([6, 11, 6, 1], 7) == [1, 1, 1]  # (x+1)(x+2)(x+3)

    def test_non_squarefree_skipped(self):
        assert distinct_degree_pattern([1, 2, 1], 3) is None  # (x+1)^2

    def test_leading_coefficient_divisible(self):
        assert distinct_degree_pattern([1, 1, 3], 3) is None

    def test_multiset_sums_to_degree(self):
        rng = random.Random(37)
        primes = [3, 5, 7, 11, 13, 17]
        for _ in range(100):
            n = rng.randint(2, 9)
            f = [rng.randint(-9, 9) for _ in range(n)] + [1]
            p = rng.choice(primes)
            pattern = distinct_degree_pattern(f, p)
            if pattern is not None:
                assert sum(pattern) == n, (f, p)

    def test_deterministic(self):
        f = [3, 1, 4, 1, 5, 1]
        assert distinct_degree_pattern(f, 13) == distinct_degree_pattern(f, 13)


class TestFiniteFieldOracle:
    def test_x_squared_plus_one_at_three(self):
        cert = finite_field_degree_patterns([1, 0, 1], [3])
        assert cert.verdict == "irreducible"
        assert cert.fields["patterns"] == {"3": [2]}

    def test_x_fourth_plus_one_inconclusive(self):
        # splits into quadratics modulo every prime in the list
        cert = finite_field_degree_patterns([1, 0, 0, 0, 1], [3, 5, 7, 11, 13])
        assert cert.verdict == "inconclusive"
        assert 2 in cert.fields["unexcluded_degrees"]
        for pattern in cert.fields["patterns"].values():
            assert pattern == [2, 2]

    def test_subset_sum_sieve(self):
        # x^4 + x + 1: [1,3] mod 2-ish primes and [4] elsewhere; sieve or full block
        cert = finite_field_degree_patterns([1, 1, 0, 0, 1], [2, 3, 5, 7])
        assert cert.verdict == "irreducible"

    def test_skipped_primes_recorded(self):
        cert = finite_field_degree_patterns([1, 2, 1], [3, 5])  # (x+1)^2 everywhere
        assert cert.verdict == "inconclusive"
        assert cert.fields["skipped"] == [3, 5]
        assert cert.reason == "no usable primes"

    def test_never_reports_reducible(self):
        cert = finite_field_degree_patterns([-1, 0, 1], [5, 7, 11])  # visibly reducible
        assert cert.verdict == "inconclusive"

    def test_pattern_certificate_recheck(self):
        doc = finite_field_degree_patterns([1, 0, 1], [3]).to_json_dict()
        doc = json.loads(json.dumps(doc))
        assert recheck_pattern_certificate(doc)
        doc["patterns"]["3"] = [1, 1]
        assert not recheck_pattern_certificate(doc)

    def test_editing_a_pattern_document_leaves_the_certificate_sound(self):
        kept = {3: [2]}
        cert = assemble_pattern_certificate([1, 0, 1], kept, skipped=[2])
        doc = cert.to_json_dict()
        doc["patterns"]["3"].append(1)
        doc["skipped"].append(5)
        doc["primes"].append(7)
        kept[3].append(1)
        assert cert.to_json_dict()["skipped"] == [2] and cert.primes == (3,)
        assert recheck_pattern_certificate(cert.to_json_dict())

    def test_consistency_with_dumas_on_random_inputs(self):
        rng = random.Random(41)
        primes = [3, 5, 7, 11, 13, 17, 19, 23]
        for _ in range(200):
            n = rng.randint(2, 6)
            f = [rng.randint(-9, 9) for _ in range(n)] + [1]
            if f[0] == 0:
                continue
            for p in (2, 3, 5):
                if dumas_check(f, p).verdict == "irreducible":
                    oracle = finite_field_degree_patterns(f, primes)
                    assert oracle.verdict in ("irreducible", "inconclusive")
                    break


class TestSoundnessCrossCheck:
    def test_dumas_irreducible_has_no_small_factor(self):
        rng = random.Random(43)
        oracle_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        checked = 0
        for _ in range(1000):
            n = rng.randint(2, 8)
            f = [rng.randint(-9, 9) for _ in range(n)] + [1]
            if f[0] == 0:
                continue
            for p in (2, 3, 5):
                cert = dumas_check(f, p)
                if cert.verdict == "irreducible":
                    checked += 1
                    assert finite_field_degree_patterns(f, oracle_primes).verdict != "reducible"
                    assert no_small_integer_factor(f), (f, p)
                    break
        assert checked > 20  # the sample actually exercised the criterion


class TestHelpers:
    def test_primitive_integer_polynomial(self):
        assert primitive_integer_polynomial([Fraction(3, 2), 1]) == [3, 2]
        assert primitive_integer_polynomial([2, 4, 2]) == [1, 2, 1]
        assert primitive_integer_polynomial([Fraction(-3456000, 3617), 1]) == [-3456000, 3617]
        with pytest.raises(ZeroDivisionError):
            primitive_integer_polynomial([0, 0])

    def test_primitive_integer_polynomial_matches_fraction_reference(self, shared_table):
        def reference(cs):
            lcm = 1
            for c in cs:
                lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
            ints = [int(c * lcm) for c in cs]
            content = 0
            for c in ints:
                content = math.gcd(content, c)
            return [c // content for c in ints]

        table = shared_table.ensure(120)
        for k in range(4, 121, 2):
            cs = phi_by_division(k, table).coeffs
            if len(cs) > 1:
                assert primitive_integer_polynomial(cs) == reference(cs), k
        cs = [Fraction(-6, 35), Fraction(10, 21), Fraction(0), Fraction(-14, 15)]
        assert primitive_integer_polynomial(cs) == reference(cs) == [-9, 25, 0, -49]

    def test_select_witness_primes_proves_quickly(self):
        kept, examined = select_witness_primes([1, 0, 1], floor=2)
        assert kept is not None and len(kept) <= 10
        assert examined >= len(kept)
        cert = finite_field_degree_patterns([1, 0, 1], kept)
        assert cert.verdict == "irreducible"

    def test_select_witness_primes_gives_up_on_reducible(self):
        kept, examined = select_witness_primes([-1, 0, 0, 0, 1], floor=2)  # x^4 - 1
        assert kept is None
        assert examined == 120  # the fixed cap on primes examined

    def test_the_keep_cap_ends_the_walk(self, monkeypatch):
        # x^4 + 1 is reducible mod every prime; its [2, 2] at p = 3 shrinks the
        # unexcluded degrees to {2}, so a one-prime cap ends the walk there
        assert select_witness_primes([1, 0, 0, 0, 1], floor=2) == (None, 120)
        monkeypatch.setattr(irreducibility, "ORACLE_PRIME_COUNT", 1)
        assert select_witness_primes([1, 0, 0, 0, 1], floor=2) == (None, 1)

    def test_primes_above_the_floor(self):
        assert list(itertools.islice(primes_above(0), 5)) == [2, 3, 5, 7, 11]
        assert list(itertools.islice(primes_above(-9), 1)) == [2]
        assert list(itertools.islice(primes_above(7), 3)) == [11, 13, 17]

    def test_select_respects_keep_cap(self):
        kept, examined = select_witness_primes([1, 1, 0, 0, 1], floor=2)
        assert kept is not None and len(kept) <= irreducibility.ORACLE_PRIME_COUNT == 10
        assert examined <= 120


# --- the production DDF against the re-checker's ---------------------------

SMALL_PRIMES = [p for p in range(2, 110) if is_prime(p)]


@st.composite
def polys_mod_primes(draw):
    """(integer coefficients, prime): degree 1..9, leading coefficient possibly divisible by p."""
    n = draw(st.integers(1, 9))
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    return coeffs + [draw(st.integers(1, 60))], draw(st.sampled_from(SMALL_PRIMES))


@st.composite
def non_squarefree_polys(draw):
    """(a^2 * b, prime) with a monic of degree >= 1, so a^2 divides it mod every prime."""
    a = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)) + [1]
    b = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=4)) + [1]
    return poly_mul(poly_mul(a, a), b), draw(st.sampled_from(SMALL_PRIMES))


class TestDDFAgainstRechecker:
    @given(polys_mod_primes())
    @example(([5, 3], 2))  # degree 1 at p = 2
    @example(([1, 1, 0, 1], 2))  # x^3 + x + 1, irreducible mod 2
    @example(([1, 0, 0, 0, 0, 1, 0, 1], 107))  # p above the degree
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_patterns_agree(self, case):
        f, p = case
        pattern = distinct_degree_pattern(f, p)
        assert pattern == _ddf_by_repeated_squaring(f, p)
        if pattern is not None:
            assert sum(pattern) == len(f) - 1

    @given(non_squarefree_polys())
    @example(([1, 2, 1], 2))  # (x + 1)^2 at p = 2
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_non_squarefree_is_unusable(self, case):
        f, p = case
        assert distinct_degree_pattern(f, p) is None
        assert _ddf_by_repeated_squaring(f, p) is None

    def test_composite_modulus_rejected(self):
        with pytest.raises(InvalidPrimeError):
            distinct_degree_pattern([1, 0, 1], 9)


# --- the witness walk's pruned DDF ------------------------------------------


@st.composite
def masked_polys_mod_primes(draw):
    """(f, prime, mask): deg f >= 2, every third f = u^2 v so a factor repeats mod
    every prime, a leading coefficient possibly divisible by p, and mask a
    nonzero set of proper degrees (bits 1 .. deg f - 1)."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    lead = draw(st.integers(1, 60))
    if draw(st.integers(0, 2)) == 0:
        u = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)) + [1]
        v = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=6)) + [lead]
        f = poly_mul(poly_mul(u, u), v)
    else:
        n = draw(st.integers(2, 12))
        f = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)) + [lead]
    n = len(f) - 1
    return f, p, draw(st.integers(1, (1 << (n - 1)) - 1)) << 1


def reference_walk(ints, floor):
    """``select_witness_primes`` written over unmasked patterns and sets of degrees."""
    n = len(ints) - 1
    remaining = set(range(1, n))
    kept, examined, p = {}, 0, max(floor, 1)
    while examined < irreducibility._WITNESS_PRIMES_EXAMINED and len(kept) < irreducibility.ORACLE_PRIME_COUNT:
        p += 1
        if not is_prime(p):
            continue
        examined += 1
        pattern = distinct_degree_pattern(ints, p)
        if pattern is None:
            continue
        if pattern == [n]:
            return {p: pattern}, examined
        shrunk = {d for d in remaining if covers(pattern, 1 << d)}
        if shrunk != remaining:
            kept[p], remaining = pattern, shrunk
            if not remaining:
                return kept, examined
    return None, examined


class TestPrunedDDF:
    @given(masked_polys_mod_primes())
    @example(([-1, 0, 0, 0, 1], 3, 0b1110))  # (x - 1)(x + 1)(x^2 + 1): covered after step 1
    @example(([1, 0, 0, 0, 1], 3, 0b1110))  # x^4 + 1 = [2, 2] mod 3 leaves 1 and 3
    @example(([1, 2, 2, 2, 1], 3, 0b0100))  # (x + 1)^2 (x^2 + 1)
    @example(([1, 0, 3], 3, 0b10))  # p divides the leading coefficient
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_masked_call_returns_only_a_shrinking_pattern(self, case):
        f, p, mask = case
        full = distinct_degree_pattern(f, p)
        assert full == _ddf_by_repeated_squaring(f, p)  # no mask: the pattern, as ever
        expected = None if full is None or covers(full, mask) else full
        with irreducibility._walk_remaining(mask):
            assert distinct_degree_pattern(f, p) == expected
        assert distinct_degree_pattern(f, p) == full  # the walk's mask is gone after it


# --- the packed GF(p) kernel: slot bound, differential and independence ----

LARGEST_DECIDED_PRIME = 4294967291  # the largest prime below 2**32, where is_prime stops deciding
DIFFERENTIAL_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 65537, LARGEST_DECIDED_PRIME)


def differential_corpus():
    """(f, p) pairs: random f of degree <= 45, and every third one u^2 v.

    Above 2**16 the degree stays <= 12: the re-checker's repeated squaring
    costs about a second per polynomial there at degree 45.
    """
    rng = random.Random(2024)
    for i in range(150):
        p = rng.choice(DIFFERENTIAL_PRIMES)
        n_max = 45 if p < 2**16 else 12
        if i % 3 == 0:
            u = [rng.randint(-99, 99) for _ in range(rng.randint(1, 4))] + [1]
            v = [rng.randint(-99, 99) for _ in range(rng.randint(0, n_max + 2 - 2 * len(u)))] + [rng.randint(1, 9)]
            yield poly_mul(poly_mul(u, u), v), p
        else:
            n = rng.randint(1, n_max)
            yield [rng.randint(-(10**9), 10**9) for _ in range(n)] + [rng.randint(1, 1000)], p


class TestPackedKernel:
    @pytest.mark.parametrize("n", [2, 3, 40])
    @pytest.mark.parametrize("p", [2, 3, 37, 251, LARGEST_DECIDED_PRIME])
    def test_red_at_the_slot_bound(self, p, n):
        gf = irreducibility._PackedGF([1] * (n + 1), p)
        bound = max(n, 3) * p * (p + 1)  # no slot the kernel forms reaches it
        assert (bound - 1).bit_length() <= gf.s  # Barrett's estimate is off by at most one
        assert (bound - 1) * gf.m < 1 << gf.W  # v M stays inside its slot
        two_slot = (p - 1) * (3 * p - 1)  # the largest slot of gcd's two-slot step, above 2 p (p + 1) for p >= 7
        slots = ([two_slot, bound - 1, 0, p - 1, p, 2 * p - 1, p * p, bound - 2] * n)[: 2 * n - 1]
        assert gf.red(gf.pack(slots)) == gf.pack([v % p for v in slots])

    @pytest.mark.parametrize("n", range(2, 41))
    def test_x_pow_p_from_the_monomial_start(self, n):
        near = [q for q in range(2, n + 1) if is_prime(q)][-2:]  # p < n, and p = n when n is prime
        near.append(next(q for q in itertools.count(n + 1) if is_prime(q)))
        rng = random.Random(n)
        for p in sorted({2, 3, 5, 251, 257, 65537, LARGEST_DECIDED_PRIME, *near}):
            f = [rng.randrange(p) for _ in range(n)] + [1]
            expected = recheck._gf_powmod([0, 1], p, f, p)
            gf = irreducibility._PackedGF(f, p)
            assert gf.unpack(gf.x_pow_p()) == expected + [0] * (n - len(expected)), (n, p)

    @pytest.mark.parametrize("n", [2, 3, 12])
    @pytest.mark.parametrize("p", [2, 3, 37, 65537, LARGEST_DECIDED_PRIME])
    def test_gcd_matches_the_rechecker_up_to_a_unit(self, p, n):
        rng = random.Random(p * n)
        gf = irreducibility._PackedGF([rng.randrange(p) for _ in range(n)] + [1], p)

        def monic_gcd(a, b):  # of coefficient lists, through the packed gcd
            slots = [gf.gcd(gf.pack(a), gf.pack(b)) >> (i * gf.W) & gf.slot for i in range(n + 1)]
            slots = recheck._gf_trim(slots)
            inv = pow(slots[-1], -1, p)
            return [c * inv % p for c in slots]

        def poly(d):  # a random reduced polynomial of degree d
            return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]

        top = [p - 1] * (n + 1)  # every slot at p - 1
        cases = [(top, [p - 1] * min(n, 5)), (top, []), ([p - 1] * min(n, 4), top), (poly(n), [])]
        for _ in range(8):
            u = poly(rng.randint(0, min(n - 1, 4)))  # a common factor, so that most gcds are not 1
            a, b = poly_mul(u, poly(n - len(u) + 1)), poly_mul(u, poly(rng.randint(0, n - len(u) + 1)))
            cases += [([c % p for c in a], [c % p for c in b]), ([c % p for c in b], [c % p for c in a])]
        for d in range(1, n):
            # a = q r1 + r2: after the two-slot pass a mod r1, r2 is two degrees below r1 (d >= 3, so a
            # one-slot pass follows) or a nonzero constant (d <= 2, the early return)
            q, r1, r2 = poly(1), poly(d), poly(max(d - 2, 0))
            a = [(c + r) % p for c, r in itertools.zip_longest(poly_mul(q, r1), r2, fillvalue=0)]
            cases.append((a, r1))
        # the caller's unreduced second arguments: h - x has a slot up to 2p - 2, and f' has slots
        # i f_i up to n (p - 1), here one degree above the first argument as well
        a, b = poly(n), poly(n - 1)
        f_prime = [i * (p - 1) for i in range(1, n + 1)]  # of f = top
        cases += [(a, [b[0], b[1] + p - 1, *b[2:]]), (top, f_prime), (poly(n - 2), f_prime)]
        for a, b in cases:
            assert monic_gcd(a, b) == recheck._gf_gcd(a, [c % p for c in b], p), (a, b)

    def test_gcd_takes_no_two_slot_step_on_the_unreduced_first_dividend(self):
        # a is the zero polynomial in slots below n p, one degree above b.  A two-slot step on it
        # (b1^2 = -1 mod p, q1 = q0 = 0) would form 4 p (p - 1) in slot 1, past 2^S, where
        # Barrett's estimate is two short, and leave that slot at p instead of 0.
        p, n = 281, 3
        gf = irreducibility._PackedGF([1] * (n + 1), p)
        b = [p - 1, p - 1, next(c for c in range(p) if c * c % p == p - 1)]
        a = [p, 2 * p, 2 * p, p]
        assert 4 * p * (p - 1) >= 1 << gf.s
        assert gf.gcd(gf.pack(b), gf.pack(a)) == gf.pack(b)

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_unpack_reads_the_slot_bytes(self, n):
        p, rng = LARGEST_DECIDED_PRIME, random.Random(n)
        gf = irreducibility._PackedGF([rng.randrange(p) for _ in range(n)] + [1], p)
        assert gf.W == 104
        slots = ([0, p - 1, (1 << gf.W) - 1] + [rng.randrange(1 << gf.W) for _ in range(n)])[:n]
        raw, w = gf.pack(slots).to_bytes(n * gf.w, "little"), gf.w
        bytewise = [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]
        assert gf.unpack(gf.pack(slots)) == bytewise == slots

    @pytest.mark.parametrize("p", [2, 3, 37])
    def test_ddf_at_primes_up_to_the_degree(self, p):
        rng = random.Random(p)
        for _ in range(6):
            f = [rng.randint(-(10**6), 10**6) for _ in range(40)] + [rng.choice([1, rng.randint(1, 10**3)])]
            assert distinct_degree_pattern(f, p) == _ddf_by_repeated_squaring(f, p)

    def test_ddf_at_the_largest_prime(self):
        # f is a product of distinct irreducible factors mod p of degrees 1..6,
        # each certified by the re-checker, so its pattern is known in advance
        p, rng = LARGEST_DECIDED_PRIME, random.Random(7)
        factors = []
        while sum(len(g) - 1 for g in factors) < 40:
            d = min(rng.randint(1, 6), 40 - sum(len(g) - 1 for g in factors))
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if _ddf_by_repeated_squaring(g, p) == [d] and g not in factors:
                factors.append(g)
        f = functools.reduce(poly_mul, factors, [rng.randrange(1, p)])
        f = [c + p * rng.randint(-(10**9), 10**9) for c in f]  # same residues, wide integers
        assert distinct_degree_pattern(f, p) == sorted(len(g) - 1 for g in factors)
        assert distinct_degree_pattern(poly_mul(f, factors[0]), p) is None  # a squared factor

    def test_random_corpus_matches_the_rechecker(self):
        cases = list(differential_corpus())
        unusable = 0
        for f, p in cases:
            pattern = distinct_degree_pattern(f, p)
            assert pattern == _ddf_by_repeated_squaring(f, p), (f, p)
            unusable += pattern is None
        assert unusable >= len(cases) // 3  # the u^2 v third at least

    def test_witness_primes_of_the_scan_match_the_rechecker(self, shared_table, monkeypatch):
        # every weight of `scan --k-max 446`, the Dumas ones too
        table = shared_table.ensure(446)
        real = irreducibility.distinct_degree_pattern
        seen = []

        def recording(f, p):
            returned = real(f, p)
            seen.append((f, p, irreducibility._WALK_REMAINING.get(), returned))
            return returned

        monkeypatch.setattr(irreducibility, "distinct_degree_pattern", recording)
        walks = 0
        for k in range(4, 447, 2):
            phi = phi_by_division(k, table)
            if phi.degree >= 1:
                ints = primitive_integer_polynomial(phi.coeffs)
                kept, examined = select_witness_primes(ints, floor=k)
                ref_kept, ref_examined = reference_walk(ints, k)
                assert examined == ref_examined, k
                assert kept is not None and list(kept.items()) == list(ref_kept.items()), k
                walks += 1
        assert walks > 210 and len(seen) > 900
        pruned = 0
        for f, p, remaining, returned in seen:
            full = real(f, p)
            assert full == _ddf_by_repeated_squaring(f, p), (len(f) - 1, p)
            if returned is None and remaining:
                pruned += 1
                assert full is None or covers(full, remaining), (len(f) - 1, p)
            else:
                assert returned == full, (len(f) - 1, p)
        assert pruned > 350


# --- composite moduli --------------------------------------------------------

# x^2 - 4 = (x - 2)(x + 2) "certified" at the composite modulus 4: nu_4(-4) = 1
FORGED_DUMAS_AT_4 = {
    "poly": {"id": "x^2-4", "degree": 2, "coeffs": ["-4/1", "0/1", "1/1"]},
    "prime": 4,
    "valuations": [1, "inf"],
    "slope_num": -1,
    "slope_den": 2,
    "gcd": 1,
    "verdict": "irreducible",
    "criterion": "dumas",
}


class TestCompositeModulus:
    def test_dumas_check_rejects(self):
        with pytest.raises(InvalidPrimeError):
            dumas_check([-4, 0, 1], 4)

    def test_newton_polygon_rejects(self):
        with pytest.raises(InvalidPrimeError):
            newton_polygon([-4, 0, 1], 4)

    def test_rechecker_rejects_forged_certificate(self):
        assert recheck_dumas_certificate(FORGED_DUMAS_AT_4) is False

    def test_rechecker_primality_test(self):
        sieve = [n for n in range(200) if n > 1 and all(n % d for d in range(2, n))]
        assert [n for n in range(-5, 200) if recheck._is_prime_by_trial(n)] == sieve
        assert recheck._is_prime_by_trial(LARGEST_DECIDED_PRIME)
        assert not recheck._is_prime_by_trial(65537 * 65521)
        # at or above 2**32 the answer is False, never an error, even for a prime
        for n in (2**32, 2**32 + 15, 10**29 + 319):
            assert recheck._is_prime_by_trial(n) is False

    def test_forged_pattern_prime_rejected(self):
        doc = finite_field_degree_patterns([1, 0, 1], [3]).to_json_dict()
        doc["patterns"] = {"9": [2]}
        assert recheck_pattern_certificate(doc) is False


class TestRecheckersReadEveryField:
    def test_dumas_gcd_must_be_one(self):
        doc = dumas_check([2, 2, 1], 2).to_json_dict()
        assert recheck_dumas_certificate(doc)
        for gcd in (7, True, 1.0):
            doc["gcd"] = gcd
            assert recheck_dumas_certificate(doc) is False

    @pytest.mark.parametrize(
        "field, value",
        [
            ("valuations", [1.0, True]),
            ("valuations", [1, 1.0]),
            ("valuations", [True, 1]),
            ("slope_num", -1.0),
            ("slope_den", 2.0),
        ],
    )
    def test_dumas_numbers_must_be_ints(self, field, value):
        # each value compares equal to the recorded one; only its type is wrong
        doc = dumas_check([2, 2, 1], 2).to_json_dict()
        assert doc[field] == value and recheck_dumas_certificate(doc)
        doc[field] = value
        assert recheck_dumas_certificate(doc) is False

    def test_criterion_must_match(self):
        dumas = dumas_check([2, 2, 1], 2).to_json_dict()
        dumas["criterion"] = "finite-field-pattern"
        pattern = finite_field_degree_patterns([1, 0, 1], [3]).to_json_dict()
        pattern["criterion"] = "dumas"
        assert recheck_dumas_certificate(dumas) is False
        assert recheck_pattern_certificate(pattern) is False

    @pytest.mark.parametrize(
        "field, value",
        [
            ("primes", [2, 97]),
            ("primes", []),
            ("primes", [True]),
            ("skipped", ["x"]),
            ("skipped", [3]),  # a skipped prime that has a pattern
            ("skipped", None),
            ("unexcluded_degrees", [1]),
            ("patterns", {"3": [2.0]}),
            ("patterns", {"03": [2]}),  # the prime 3, not keyed by its plain digits
            ("primes", [3, 3]),
            ("patterns", {"3": [2], "03": [2]}),  # the prime 3 twice
            ("skipped", [4]),  # each skipped entry must be a prime, listed once
            ("skipped", [2, 2]),
            ("skipped", [1]),
            ("skipped", [-7]),
            ("skipped", [10**40]),
        ],
    )
    def test_pattern_fields_must_agree(self, field, value):
        doc = finite_field_degree_patterns([1, 0, 1], [2, 3]).to_json_dict()
        assert doc["primes"] == [3] and doc["skipped"] == [2] and recheck_pattern_certificate(doc)
        doc[field] = value
        assert recheck_pattern_certificate(doc) is False


# --- the re-checkers are total and independent ---------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

VALID_DOCS = (
    dumas_check([2, 2, 1], 2).to_json_dict(),
    finite_field_degree_patterns([1, 0, 1], [3]).to_json_dict(),
    finite_field_degree_patterns([1, 1, 0, 0, 1], [2, 3, 5, 7]).to_json_dict(),
)


@st.composite
def mutated_certificates(draw):
    """A valid certificate with one entry deleted or replaced by arbitrary JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    listed = doc["patterns"] if "patterns" in doc else doc["valuations"]
    box = draw(st.sampled_from([doc, doc["poly"], doc["poly"]["coeffs"], listed]))
    keys = list(box) if isinstance(box, dict) else list(range(len(box)))
    if not keys:
        return doc
    key = draw(st.sampled_from(keys))
    if draw(st.booleans()):
        del box[key]
    else:
        box[key] = draw(JSON_VALUES)
    return doc


class TestRecheckersTotal:
    def test_valid_documents_accepted(self):
        assert recheck_dumas_certificate(VALID_DOCS[0])
        assert all(recheck_pattern_certificate(doc) for doc in VALID_DOCS[1:])

    def test_empty_document(self):
        assert recheck_pattern_certificate({}) is False
        assert recheck_dumas_certificate({}) is False

    def test_unparseable_coefficient(self):
        # "1e999999999" is a valid Fraction() string that would take a billion-digit power
        for coeff in ("x", "1e999999999", "2.0", " 2/1", "2/-1", 2):
            for doc in VALID_DOCS:
                bad = copy.deepcopy(doc)
                bad["poly"]["coeffs"][0] = coeff
                assert recheck_pattern_certificate(bad) is False
                assert recheck_dumas_certificate(bad) is False

    def test_zero_denominator(self):
        bad = copy.deepcopy(VALID_DOCS[0])
        bad["poly"]["coeffs"][0] = "2/0"
        assert recheck_dumas_certificate(bad) is False

    @given(st.one_of(JSON_VALUES, mutated_certificates()))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_fuzzed_documents_give_a_bool(self, doc):
        assert isinstance(recheck_dumas_certificate(doc), bool)
        assert isinstance(recheck_pattern_certificate(doc), bool)

    # a square of a prime, and 10**29 + 319, a 30-digit prime: both far
    # beyond what trial division can decide quickly
    @pytest.mark.parametrize("modulus", [(10**7 + 19) ** 2, 10**29 + 319])
    def test_huge_modulus_rejected_fast(self, modulus):
        dumas = copy.deepcopy(VALID_DOCS[0])
        dumas["prime"] = modulus
        pattern = copy.deepcopy(VALID_DOCS[1])
        pattern["patterns"] = {str(modulus): [2]}
        started = time.perf_counter()
        assert recheck_dumas_certificate(dumas) is False
        assert recheck_pattern_certificate(pattern) is False
        assert time.perf_counter() - started < 0.1


# --- the re-checkers' module imports only the standard library -----------------

# imports a copy of recheck.py from the directory argv[1] and re-checks each
# document of the JSON file argv[2]; prints the verdicts and every module of
# the package that got loaded
RUN_ALONE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import recheck
with open(sys.argv[2]) as f:
    docs = json.load(f)
verdicts = [
    (recheck.recheck_dumas_certificate if doc["criterion"] == "dumas" else recheck.recheck_pattern_certificate)(doc)
    for doc in docs
]
print(json.dumps({"verdicts": verdicts, "loaded": sorted(m for m in sys.modules if m.startswith("eisen"))}))
"""


def recheck_alone(tmp_path, docs):
    """Re-check ``docs`` with a copy of recheck.py alone in ``tmp_path``, isolated from site-packages."""
    (tmp_path / "recheck.py").write_bytes(Path(recheck.__file__).read_bytes())
    (tmp_path / "docs.json").write_text(json.dumps(docs))
    # -I alone still runs site's .pth files, which may import third-party modules
    argv = [sys.executable, "-I", "-S", "-c", RUN_ALONE, str(tmp_path), str(tmp_path / "docs.json")]
    out = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    assert out["loaded"] == []
    return out["verdicts"]


def with_root_at_one(doc):
    """The document with its constant term changed so that x = 1 is a root: from degree 2 on, f is reducible."""
    doc = copy.deepcopy(doc)
    coeffs = [exact.parse_rational(c) for c in doc["poly"]["coeffs"]]
    doc["poly"]["coeffs"][0] = exact.format_rational(coeffs[0] - sum(coeffs))
    return doc


class TestRecheckModule:
    def test_a_copy_alone_rechecks_documents(self, tmp_path):
        assert recheck_alone(tmp_path, [*VALID_DOCS, FORGED_DUMAS_AT_4]) == [True] * len(VALID_DOCS) + [False]

    def test_a_copy_alone_rechecks_real_certificates(self, shared_table, tmp_path):
        table = shared_table.ensure(12 * 2**5)
        docs = [record["certificate"] for record in check_theorem_main(5, table).records]
        for k in (50, 100, 200):
            ints = phi_by_division(k, table).ints
            kept, _ = select_witness_primes(ints, floor=k)
            docs.append(assemble_pattern_certificate(ints, kept, poly_id=f"phi_{k}").to_json_dict())
        assert len(docs) == 9 and {doc["verdict"] for doc in docs} == {"irreducible"}
        changed = [with_root_at_one(doc) for doc in docs]
        assert recheck_alone(tmp_path, docs + changed) == [True] * 9 + [False] * 9
