import copy
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisen import irreducibility
from eisen.errors import DomainError, InvalidPrimeError
from eisen.exact import INFINITY, is_prime
from eisen.irreducibility import (
    NewtonPolygon,
    _ddf_by_repeated_squaring,
    distinct_degree_pattern,
    dumas_check,
    finite_field_degree_patterns,
    newton_polygon,
    primitive_integer_polynomial,
    recheck_dumas_certificate,
    recheck_pattern_certificate,
    select_witness_primes,
)
from eisen.gekeler import phi_by_division


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


class TestDumas:
    def test_eisenstein_special_case(self):
        cert = dumas_check([2, 2, 1], 2)
        assert cert.verdict == "irreducible"
        assert cert.criterion == "dumas"
        assert cert.primes == (2,)

    def test_gcd_failure_is_inconclusive(self):
        cert = dumas_check([-1, 0, 1], 2)  # x^2 - 1: nu(a_0) = 0, gcd(0, 2) = 2
        assert cert.verdict == "inconclusive"
        assert cert.witness["gcd"] == 2
        assert "gcd" in cert.reason

    def test_phi_24_is_irreducible_at_two(self, shared_table):
        phi = phi_by_division(24, shared_table.ensure(24))
        cert = dumas_check(phi.coeffs, 2, poly_id="phi_24")
        assert cert.verdict == "irreducible"
        assert cert.witness["valuations"] == [15, 10]

    def test_non_monic_rejected(self):
        with pytest.raises(DomainError):
            dumas_check([1, 1, 2], 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            dumas_check([1], 2)

    def test_zero_constant_term(self):
        cert = dumas_check([0, 2, 1], 2)
        assert cert.verdict == "inconclusive"
        assert cert.reason == "zero constant term"
        assert cert.witness["valuations"][0] == "inf"

    def test_slope_failure(self):
        # nu(a_0) = 2 but nu(a_1) = 0: point below the chord
        cert = dumas_check([4, 1, 1], 2)
        assert cert.verdict == "inconclusive"
        assert not cert.witness["slope_condition"]

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


class TestNewtonPolygon:
    def test_single_segment(self):
        polygon = newton_polygon([2, 2, 1], 2)
        assert polygon.vertices == ((0, 1), (2, 0))
        assert polygon.slopes == ((Fraction(-1, 2), 2),)
        assert polygon.is_single_segment()

    def test_phi_12(self, shared_table):
        phi = phi_by_division(12, shared_table.ensure(12))
        polygon = newton_polygon(phi.coeffs, 2)
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

    def test_non_monic_rejected(self):
        with pytest.raises(DomainError):
            newton_polygon([1, 1, 3], 2)

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
        assert cert.witness["patterns"] == {"3": [2]}

    def test_x_fourth_plus_one_inconclusive(self):
        # splits into quadratics modulo every prime in the list
        cert = finite_field_degree_patterns([1, 0, 0, 0, 1], [3, 5, 7, 11, 13])
        assert cert.verdict == "inconclusive"
        assert 2 in cert.witness["unexcluded_degrees"]
        for pattern in cert.witness["patterns"].values():
            assert pattern == [2, 2]

    def test_subset_sum_sieve(self):
        # x^4 + x + 1: [1,3] mod 2-ish primes and [4] elsewhere; sieve or full block
        cert = finite_field_degree_patterns([1, 1, 0, 0, 1], [2, 3, 5, 7])
        assert cert.verdict == "irreducible"

    def test_skipped_primes_recorded(self):
        cert = finite_field_degree_patterns([1, 2, 1], [3, 5])  # (x+1)^2 everywhere
        assert cert.verdict == "inconclusive"
        assert cert.witness["skipped"] == [3, 5]
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

    def test_select_witness_primes_proves_quickly(self):
        kept, examined = select_witness_primes([1, 0, 1], floor=2)
        assert kept is not None and len(kept) <= 10
        assert examined >= len(kept)
        cert = finite_field_degree_patterns([1, 0, 1], kept)
        assert cert.verdict == "irreducible"

    def test_select_witness_primes_gives_up_on_reducible(self):
        kept, _ = select_witness_primes([-1, 0, 0, 0, 1], floor=2, max_examined=40)  # x^4 - 1
        assert kept is None

    def test_select_respects_keep_cap(self):
        kept, _ = select_witness_primes([1, 1, 0, 0, 1], floor=2, max_keep=1, max_examined=60)
        if kept is not None:
            assert len(kept) <= 1


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

    def test_forged_pattern_prime_rejected(self):
        doc = finite_field_degree_patterns([1, 0, 1], [3]).to_json_dict()
        doc["patterns"] = {"9": [2]}
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

    def test_pattern_rechecker_never_calls_production_ddf(self, monkeypatch):
        calls = []
        real = irreducibility.distinct_degree_pattern
        monkeypatch.setattr(irreducibility, "distinct_degree_pattern", lambda f, p: calls.append(p) or real(f, p))
        assert all(recheck_pattern_certificate(doc) for doc in VALID_DOCS[1:])
        assert calls == []
