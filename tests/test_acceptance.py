"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is exact (rational equality or integer comparison); the only
tolerances are the per-criterion wall-clock budgets, which are asserted too.
Shared-table build time is charged to every criterion that uses the shared
table, so no budget is met by hiding setup in a fixture.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time
from fractions import Fraction

from eisen.eisenstein import (
    EisensteinTable,
    popa_expand,
    q_expansion_direct,
)
from eisen.exact import INFINITY, valuation, zeta_ratio
from eisen.gekeler import phi_by_division, phi_closed_form
from eisen.irreducibility import NewtonPolygon, distinct_degree_pattern, valuation_profile
from eisen.qmring import GradedForm, serre_derivative, substitute_q_expansion
from eisen.recheck import recheck_dumas_certificate
from eisen.replicate import (
    check_conjecture,
    check_lemma_ineq,
    check_lemma_valsum,
    check_min_valuation,
    check_theorem_main,
    gekeler_scan,
)
from helpers import GOLDEN_PHI, q_derivative

W12 = {0: Fraction(25, 143), 3: Fraction(18, 143)}
#: w(12) as the table stores it: integers nums, den with w_{a,12} = nums[a] / den
W12_VIEW = ({0: 25, 3: 18}, 143)


def report(name: str, budget_s: float, started: float, ok: bool, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    line = f"{'PASS' if ok and elapsed <= budget_s else 'FAIL'}  {name}  [{elapsed:.2f}s / {budget_s:.0f}s]"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line
    assert elapsed <= budget_s, line


def test_criterion_01_golden_fixtures():
    started = time.perf_counter()
    table = EisensteinTable().extend(24)
    ok = (
        phi_by_division(16, table).coeffs == GOLDEN_PHI[16]
        and phi_by_division(24, table).coeffs == GOLDEN_PHI[24]
        and phi_closed_form(24, table).coeffs == GOLDEN_PHI[24]
    )
    report("criterion-01 golden phi_16 and phi_24", 1.0, started, ok)


def test_criterion_02_weight_twelve_by_both_recurrences():
    started = time.perf_counter()
    # extend fills w(12) by the convolution recurrence
    table = EisensteinTable().extend(12)
    ok = (
        table.w_vector(12) == W12
        and table.integer_view(12) == W12_VIEW
        and popa_expand(12, table, route="graded") == W12_VIEW
        and popa_expand(12, table, route="precancelled") == W12_VIEW
    )
    report("criterion-02 w(12) = {25/143, 18/143} by both recurrences", 1.0, started, ok)


def test_criterion_03_dual_recurrence_to_200():
    started = time.perf_counter()
    table = EisensteinTable().extend(200)
    ok = True
    for k in range(8, 201, 2):
        # both routes return the reduced view, den > 0 where c_k d_k < 0 too (k = 2 mod 4)
        expected = table.integer_view(k)
        for route in ("graded", "precancelled"):
            nums, den = popa_expand(k, table, route=route)
            if (nums, den) != expected or den <= 0 or math.gcd(den, *nums.values()) != 1:
                ok = False
        if not ok:
            break
    report("criterion-03 dual-recurrence equivalence, even 8..200", 30.0, started, ok)


def test_criterion_04_q_series_oracle_to_60():
    started = time.perf_counter()
    table = EisensteinTable().extend(60)
    n_terms = 30
    ok = True
    for k in range(4, 61, 2):
        rk = zeta_ratio(k)
        lhs = substitute_q_expansion(table.graded_form(k), n_terms)
        rhs = [rk * c for c in q_expansion_direct(k, n_terms)]
        if lhs != rhs:
            ok = False
            break
    report("criterion-04 q-series oracle, even 4..60, 30 terms", 30.0, started, ok)


def test_criterion_05_lemma_valsum_to_1024():
    started = time.perf_counter()
    rep = check_lemma_valsum(1024)
    pow2_records = [rec for rec in rep.records if rec["k_plus_2_power_of_two"]]
    ok = (
        rep.status == "PASS"
        and [rec["k"] for rec in pow2_records] == [6, 14, 30, 62, 126, 254, 510, 1022]
        and all(rec["binom_mod4"] == 3 for rec in pow2_records)
    )
    report("criterion-05 binomial valuation lemma, even 4..1024", 10.0, started, ok)


def test_criterion_06_lemma_ineq_to_512():
    started = time.perf_counter()
    rep = check_lemma_ineq(512)
    sharp = [rec for rec in rep.records if rec["sharp_pair_checked"]]
    ok = (
        rep.status == "PASS"
        and all(rec["identities_ok"] for rec in rep.records)
        and [rec["k"] for rec in sharp] == [14, 30, 62, 126, 254, 510]
    )
    report("criterion-06 three valuation inequalities, even 4..512, all odd j", 120.0, started, ok)


def test_criterion_07_theorem_and_conjecture_to_500(shared_table):
    started = time.perf_counter()
    table = shared_table.ensure(500)
    rep_min = check_min_valuation(500, table=table)
    rep_conj = check_conjecture(500, table=table)
    ok = rep_min.status == "PASS" and rep_conj.status == "PASS"
    # ensure(500) ran inside this test, so the build is already on the clock
    report(
        "criterion-07 min nu_2(w) >= 0 and conjectured value, even 4..500",
        600.0,
        started,
        ok,
        detail=f"(table build {shared_table.build_seconds:.2f}s included)",
    )


def test_criterion_08_power_weight_valuations(shared_table):
    started = time.perf_counter() - shared_table.build_seconds
    table = shared_table.ensure(500)
    ok = True
    for ell in range(0, 6):
        k = 12 * 2**ell
        m = k // 12
        vec = table.w_vector(k)
        if valuation(vec[0], 2) != 0:
            ok = False
        if not all(valuation(vec.get(3 * a, Fraction(0)), 2) >= 1 for a in range(1, m)):
            ok = False
        profile = valuation_profile(phi_closed_form(k, table).ints, 2)
        if profile[0] != (2 * k - 3) // 3:
            ok = False
        if not all(profile[r] >= Fraction(2 * k, 3) - 8 * r for r in range(1, m)):
            ok = False
    report("criterion-08 expansion and coefficient valuations at k = 12*2^l, l <= 5", 300.0, started, ok)


def test_criterion_09_certificates_for_power_weights(shared_table):
    started = time.perf_counter() - shared_table.build_seconds
    table = shared_table.ensure(384)
    rep = check_theorem_main(5, table=table)
    ok = rep.status == "PASS"
    for rec in rep.records:
        doc = json.loads(json.dumps(rec["certificate"]))
        if rec["verdict"] != "irreducible" or not recheck_dumas_certificate(doc):
            ok = False
    report("criterion-09 2-adic certificates for phi(12*2^l), l <= 5, re-checked from JSON", 300.0, started, ok)


def test_criterion_10_scan_to_446(shared_table):
    started = time.perf_counter() - shared_table.build_seconds
    table = shared_table.ensure(500)
    rep = gekeler_scan(446, table=table)
    ok = rep.status == "PASS" and rep.notes["inconclusive_k"] == []
    for rec in rep.records:
        if rec["verdict"] != "irreducible":
            ok = False
        if rec["criterion"] == "dumas" and rec["primes"][0] > 97:
            ok = False
        if rec["criterion"] == "finite-field-pattern" and len(rec["primes"]) > 10:
            ok = False
    counts = rep.notes.get("verdict_counts", {})
    report(
        "criterion-10 irreducibility sweep, even 4..446, zero reducible/inconclusive",
        900.0,
        started,
        ok,
        detail=str(counts),
    )


def _random_form(rng: random.Random, weight: int) -> GradedForm:
    terms = {}
    for e2 in range(weight // 2 + 1):
        for e4 in range((weight - 2 * e2) // 4 + 1):
            rem = weight - 2 * e2 - 4 * e4
            if rem % 6:
                continue
            if rng.random() < 0.6:
                terms[(e2, e4, rem // 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return GradedForm(weight, terms)


def test_criterion_11_property_suites():
    started = time.perf_counter()
    ok = True

    # polygon/chord equivalence on 1000 random valuation vectors
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(2, 10)
        vals = [rng.randint(-10, 10)]
        vals += [INFINITY if rng.random() < 0.2 else rng.randint(-10, 10) for _ in range(n - 1)]
        vals.append(0)
        v0 = vals[0]
        chord = all(v is INFINITY or v * n >= v0 * (n - r) for r, v in enumerate(vals[:-1]))
        polygon = NewtonPolygon.from_valuations(2, vals)
        vertices_above = all(y * n >= v0 * (n - x) for x, y in polygon.vertices)
        if chord != vertices_above:
            ok = False
            break

    # distinct-degree multisets sum to the degree on 500 random polynomials
    # (nonzero constant term, so squarefree reductions exist)
    if ok:
        rng = random.Random(103)
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        patterns_checked = 0
        for _ in range(500):
            n = rng.randint(2, 9)
            f = [rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9))]
            f += [rng.randint(-9, 9) for _ in range(n - 1)] + [1]
            for p in primes:
                pattern = distinct_degree_pattern(f, p)
                if pattern is None:
                    continue
                patterns_checked += 1
                if sum(pattern) != n:
                    ok = False
            if not ok:
                break
        ok = ok and patterns_checked >= 2000

    # Leibniz rule and derivative/series commutation on 100 random forms
    if ok:
        rng = random.Random(107)
        for _ in range(100):
            f = _random_form(rng, rng.choice((4, 6, 8, 10)))
            g = _random_form(rng, rng.choice((4, 6, 8)))
            weight = f.weight + g.weight
            lhs = serre_derivative(GradedForm.combination(weight, [(1, f, g)]))
            rhs = GradedForm.combination(weight + 2, [(1, serre_derivative(f), g), (1, f, serre_derivative(g))])
            if lhs.numerators() != rhs.numerators():
                ok = False
                break
            if substitute_q_expansion(serre_derivative(f), 12) != q_derivative(substitute_q_expansion(f, 12)):
                ok = False
                break

    report("criterion-11 property suites (polygon x1000, patterns x500, derivation x100)", 120.0, started, ok)
