"""Verification suite: re-derive every checkable statement over configurable ranges.

Each check returns a CheckReport whose records are deterministic for fixed
parameters (wall time aside) and ordered by the loop variable.  A report FAILs
iff any record fails; the CLI turns that into a nonzero exit code.  Expected
values inside records are recomputed from the defining formulas at run time,
never hard-coded.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConsistencyError, DomainError
from .exact import SMALL_PRIMES, digit_sum_base2, json_valuation, valuation, zeta_ratio
from .eisenstein import (
    EisensteinTable,
    min_valuation2,
    popa_c,
    popa_d,
    popa_expand,
    q_expansion_direct,
)
from .gekeler import phi_by_division, phi_closed_form
from .irreducibility import (
    ORACLE_PRIME_COUNT,
    assemble_pattern_certificate,
    distinct_degree_pattern,
    dumas_check,
    primes_above,
    select_witness_primes,
    valuation_profile,
)
from .qmring import substitute_q_expansion
from .recheck import recheck_dumas_certificate

DUMAS_SCAN_PRIMES = SMALL_PRIMES

#: q-series terms the self-test compares per weight
SELFTEST_Q_TERMS = 30


@dataclass
class CheckReport:
    """Outcome of one verification run."""

    name: str
    params: dict
    records: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.records if r.get("passed"))

    @property
    def failed_count(self) -> int:
        return len(self.records) - self.passed_count

    @property
    def status(self) -> str:
        return "FAIL" if self.failed_count else "PASS"

    def first_failure(self) -> Optional[dict]:
        for r in self.records:
            if not r.get("passed"):
                return r
        return None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "passed": self.passed_count,
            "failed": self.failed_count,
            "notes": self.notes,
            "wall_time_s": self.wall_time_s,
            "records": self.records,
        }

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        if not self.records:
            return [], []
        header = list(self.records[0])
        rows = []
        for r in self.records:
            rows.append([_csv_cell(r.get(key)) for key in header])
        return header, rows

    def summary(self) -> str:
        return (
            f"{self.name}: {self.status} "
            f"({self.passed_count} passed, {self.failed_count} failed, {self.wall_time_s:.2f}s)"
        )


def _csv_cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    return "" if value is None else str(value)


def _timed(report: CheckReport, started: float) -> CheckReport:
    report.wall_time_s = time.perf_counter() - started
    return report


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


# ---------------------------------------------------------------------------
# binomial valuation lemma


def check_lemma_valsum(k_max: int) -> CheckReport:
    """nu_2((-1)^(k/2) + C(k, k/2-1)) is 1 exactly when k+2 is a power of two, else 0.

    When k+2 = 2^l the central-adjacent binomial is additionally checked to be
    3 mod 4 (the congruence that forces the sum to be 2 mod 4).
    """
    if k_max < 4:
        raise DomainError("k_max must be >= 4")
    started = time.perf_counter()
    report = CheckReport("lemma-valsum", {"k_max": k_max})
    for k in range(4, k_max + 1, 2):
        sign = -1 if (k // 2) % 2 else 1
        binom = math.comb(k, k // 2 - 1)
        val = valuation(sign + binom, 2)
        pow2 = _is_power_of_two(k + 2)
        expected = 1 if pow2 else 0
        record = {
            "k": k,
            "valuation": json_valuation(val),
            "expected": expected,
            "k_plus_2_power_of_two": pow2,
            "binom_mod4": None,
            "passed": val == expected,
        }
        if pow2:
            record["binom_mod4"] = binom % 4
            record["passed"] = record["passed"] and binom % 4 == 3
        report.records.append(record)
    return _timed(report, started)


def _d_squared(m: int) -> Fraction:
    # d_m^2 read straight off the closed formula; stays meaningful for odd m,
    # where the sign contributes (-1)^m
    sign = -1 if m % 2 else 1
    return Fraction(sign * math.factorial(m - 1) ** 2, 2 ** (2 * m + 2))


def check_lemma_ineq(k_max: int) -> CheckReport:
    """The three 2-adic lower bounds on the normalized recurrence coefficients.

    For each even k:  nu_2(d_{k-2}/(2 c_k d_k)) >= 1,
    nu_2(k d_{k/2}^2 / (2 c_k d_k)) >= 0, and for every odd 3 <= j <= k/2-2
    nu_2((C(k/2,j) + C(k/2-2,j)) d_{j+1} d_{k-j-1} / (c_k d_k)) >= 0.
    Each quantity is also recomputed through its factorial/binomial closed form
    and compared exactly, and in the sharp case k+2 = 2^l, j = k/2-2 both
    summands are checked to have valuation exactly -1.
    """
    if k_max < 8:
        raise DomainError("k_max must be >= 8")
    started = time.perf_counter()
    report = CheckReport("lemma-ineq", {"k_max": k_max})
    for k in range(4, k_max + 1, 2):
        h = k // 2
        sign = -1 if h % 2 else 1
        binom_central = math.comb(k, h - 1)
        denom_sum = sign + binom_central
        cd = popa_c(k) * popa_d(k)

        q1 = popa_d(k - 2) / (2 * cd)
        q1_closed = Fraction(-2 * math.factorial(k - 2), math.factorial(h - 1) * math.factorial(h) * denom_sum)
        q2 = k * _d_squared(h) / (2 * cd)
        q2_closed = Fraction(h - 1, denom_sum)
        identities_ok = q1 == q1_closed and q2 == q2_closed
        nu_q1 = valuation(q1, 2)
        nu_q2 = valuation(q2, 2)

        j_min_nu = None
        sharp_ok = True
        pow2 = _is_power_of_two(k + 2)
        for j in range(3, h - 1, 2):
            dprod = popa_d(j + 1) * popa_d(k - j - 1) / cd
            t1 = math.comb(h, j) * dprod
            t2 = math.comb(h - 2, j) * dprod
            if t1 != Fraction(math.comb(k - j - 2, h - 2), denom_sum) or t2 != Fraction(
                math.comb(k - j - 2, h), denom_sum
            ):
                identities_ok = False
            nu_sum = valuation(t1 + t2, 2)
            if j_min_nu is None or nu_sum < j_min_nu:
                j_min_nu = nu_sum
            if pow2 and j == h - 2:
                sharp_ok = valuation(t1, 2) == -1 and valuation(t2, 2) == -1
        record = {
            "k": k,
            "nu_first": json_valuation(nu_q1),
            "nu_second": json_valuation(nu_q2),
            "min_nu_sum_terms": "none" if j_min_nu is None else json_valuation(j_min_nu),
            "sharp_pair_checked": pow2 and h - 2 >= 3,
            "identities_ok": identities_ok,
            "passed": (
                nu_q1 >= 1
                and nu_q2 >= 0
                and (j_min_nu is None or j_min_nu >= 0)
                and sharp_ok
                and identities_ok
            ),
        }
        report.records.append(record)
    return _timed(report, started)


# ---------------------------------------------------------------------------
# expansion-vector valuations


def check_min_valuation(k_max: int, table: EisensteinTable) -> CheckReport:
    """min_a nu_2(w_{a,k}) >= 0 for every even 4 <= k <= k_max; extends ``table`` to k_max."""
    if k_max < 4:
        raise DomainError("k_max must be >= 4")
    started = time.perf_counter()
    table.extend(k_max)
    report = CheckReport("min-valuation", {"k_max": k_max})
    for k in range(4, k_max + 1, 2):
        mv = min_valuation2(table.integer_view(k))
        report.records.append({"k": k, "min_valuation2": int(mv), "passed": mv >= 0})
    return _timed(report, started)


def check_conjecture(k_max: int, table: EisensteinTable) -> CheckReport:
    """min_a nu_2(w_{a,k}) against the predicted s_2(k) - 2, or 0 at powers of two; extends ``table`` to k_max."""
    if k_max < 4:
        raise DomainError("k_max must be >= 4")
    started = time.perf_counter()
    table.extend(k_max)
    report = CheckReport("conjecture", {"k_max": k_max})
    for k in range(4, k_max + 1, 2):
        s2 = digit_sum_base2(k)
        pow2 = _is_power_of_two(k)
        predicted = 0 if pow2 else s2 - 2
        computed = int(min_valuation2(table.integer_view(k)))
        report.records.append(
            {
                "k": k,
                "s2": s2,
                "branch": "power-of-two" if pow2 else "generic",
                "predicted": predicted,
                "min_valuation2": computed,
                "passed": computed == predicted,
            }
        )
    return _timed(report, started)


# ---------------------------------------------------------------------------
# the headline irreducibility family


def check_theorem_main(ell_max: int, table: EisensteinTable) -> CheckReport:
    """2-adic certificates for phi_k, k = 12 * 2^ell, 0 <= ell <= ell_max; extends ``table`` to 12 * 2^ell_max.

    For each ell the full hypothesis chain is re-verified from scratch:
    nu_2(w_{0,k}) = 0 and nu_2(w_{3a,k}) >= 1 for the expansion vector;
    nu_2(t_0) = (2k-3)/3 and nu_2(t_r) >= 2k/3 - 8r for the coefficients;
    the chord condition nu_2(t_r) * m >= nu_2(t_0) * (m - r); coprimality
    gcd(nu_2(t_0), m) = 1; and finally the verdict of the valuation criterion
    at p = 2, whose JSON certificate is re-checked independently.
    """
    if ell_max < 0:
        raise DomainError("ell_max must be >= 0")
    started = time.perf_counter()
    k_top = 12 * 2**ell_max
    table.extend(k_top)
    report = CheckReport("theorem-main", {"ell_max": ell_max})
    for ell in range(ell_max + 1):
        k = 12 * 2**ell
        m = k // 12
        nums, den = table.integer_view(k)
        nu_den = valuation(den, 2)
        w0_ok = valuation(nums[0], 2) == nu_den
        wa_ok = all(valuation(nums[3 * a], 2) >= nu_den + 1 for a in range(1, m))

        phi = phi_closed_form(k, table)
        if phi.ints != phi_by_division(k, table).ints:
            raise ConsistencyError(f"phi routes disagree at k={k}")  # pragma: no cover
        profile = valuation_profile(phi.ints, 2)
        nu_t0 = profile[0]
        expected_t0 = (2 * k - 3) // 3
        profile_ok = all(
            profile[r] >= Fraction(2 * k, 3) - 8 * r for r in range(1, m)
        )
        # the chord and gcd conditions are the criterion's own, read off its certificate
        cert = dumas_check(phi.ints, 2, poly_id=f"phi_{k}")
        chord_ok = cert.slope_condition
        doc = cert.to_json_dict()
        gcd_val = doc["gcd"]
        rechecked = recheck_dumas_certificate(doc)
        record = {
            "ell": ell,
            "k": k,
            "degree": m,
            "w0_valuation_zero": w0_ok,
            "w3a_valuations_ge1": wa_ok,
            "t0_valuation": int(nu_t0),
            "t0_expected": expected_t0,
            "profile_bounds_ok": profile_ok,
            "chord_ok": chord_ok,
            "gcd": gcd_val,
            "verdict": cert.verdict,
            "certificate_rechecked": rechecked,
            "certificate": doc,
            "passed": (
                w0_ok
                and wa_ok
                and nu_t0 == expected_t0
                and profile_ok
                and chord_ok
                and gcd_val == 1
                and cert.verdict == "irreducible"
                and rechecked
            ),
        }
        report.records.append(record)
    return _timed(report, started)


def dumas_applies(int_coeffs: Sequence[int], p: int) -> bool:
    """The scan's Dumas screen: whether ``dumas_check`` at p certifies f / f_n, for integers f_r.

    No Fraction is formed: valuations are nu_p(f_r) - nu_p(f_n), condition (ii) comes first.
    """
    n, lead = len(int_coeffs) - 1, valuation(int_coeffs[-1], p)
    v0 = valuation(int_coeffs[0], p) - lead if int_coeffs[0] else None
    if v0 is None or math.gcd(abs(v0), n) != 1:
        return False
    return all(not c or (valuation(c, p) - lead) * n >= v0 * (n - r) for r, c in enumerate(int_coeffs[1:-1], 1))


def gekeler_scan(k_max: int, table: EisensteinTable) -> CheckReport:
    """Certify irreducibility of phi_k for every even 4 <= k <= k_max with deg >= 1; extends ``table`` to k_max.

    Strategy per weight, on phi_k's primitive integer polynomial: the first
    prime of ``DUMAS_SCAN_PRIMES`` that passes the screen ``dumas_applies``
    gets the valuation criterion (``dumas_check``, which must then certify,
    else ``ConsistencyError``); if no prime passes, fall back to the
    finite-field degree-pattern oracle.  Witness primes for the oracle are
    selected above the weight k, because reductions at primes below the weight
    collapse into factors of degree at most 2 (their roots are supersingular
    invariants) and carry no exclusion power.  A weight left inconclusive is
    reported, not failed; only a (criterion-impossible) "reducible" verdict
    fails a record.
    12 is the first weight with deg phi_k >= 1, so a smaller k_max, which
    could certify nothing, raises ``DomainError``.
    """
    if k_max < 12:
        raise DomainError(f"k_max must be >= 12, the first weight with deg phi_k >= 1; got {k_max}")
    started = time.perf_counter()
    table.extend(k_max)
    report = CheckReport(
        "gekeler-scan",
        {"k_max": k_max, "dumas_prime_limit": DUMAS_SCAN_PRIMES[-1], "oracle_prime_count": ORACLE_PRIME_COUNT},
    )
    for k in range(4, k_max + 1, 2):
        phi = phi_by_division(k, table)
        if phi.degree < 1:
            continue
        record = {"k": k, "degree": phi.degree}
        for p in DUMAS_SCAN_PRIMES:
            if dumas_applies(phi.ints, p):
                cert = dumas_check(phi.ints, p, poly_id=f"phi_{k}")
                if cert.verdict != "irreducible":
                    raise ConsistencyError(f"the Dumas screen passed phi_{k} at p = {p}, dumas_check did not")
                break
        else:
            kept, _examined = select_witness_primes(phi.ints, floor=k)
            if kept is None:
                # no proof within the caps: still report the patterns at the first
                # usable primes above the weight so the record stays informative
                kept = _first_usable_primes(phi.ints, k, ORACLE_PRIME_COUNT)
            cert = assemble_pattern_certificate(phi.ints, kept, poly_id=f"phi_{k}")
        record.update(
            verdict=cert.verdict,
            criterion=cert.criterion,
            primes=list(cert.primes),
            passed=cert.verdict != "reducible",
        )
        report.records.append(record)
    counts: dict[str, int] = {}
    for r in report.records:
        key = f"{r['verdict']}/{r['criterion']}" if r["verdict"] == "irreducible" else r["verdict"]
        counts[key] = counts.get(key, 0) + 1
    report.notes["verdict_counts"] = dict(sorted(counts.items()))
    report.notes["inconclusive_k"] = [r["k"] for r in report.records if r["verdict"] == "inconclusive"]
    return _timed(report, started)


def _first_usable_primes(int_coeffs: Sequence[int], floor: int, count: int) -> dict[int, list[int]]:
    """Patterns at the first ``count`` primes above ``floor`` with a usable reduction."""
    out: dict[int, list[int]] = {}
    for p in itertools.islice(primes_above(floor), 400):
        pattern = distinct_degree_pattern(int_coeffs, p)
        if pattern is not None:
            out[p] = pattern
            if len(out) == count:
                break
    return out


# ---------------------------------------------------------------------------
# consolidated self-test


def selftest(
    k_dual: int = 200,
    k_qseries: int = 60,
    k_phi: int = 480,
    *,
    table: EisensteinTable,
) -> CheckReport:
    """The CI entry point: every cross-route identity on its default desk range.

    Three sub-checks, all exact: (1) both routes of the derivative recurrence
    reproduce the table built by the convolution recurrence, for even
    8 <= k <= k_dual; (2) the q-expansion of the tabled polynomial form of
    G_k matches r_k times the divisor-sum expansion to ``SELFTEST_Q_TERMS``
    terms for even 4 <= k <= k_qseries; (3) the closed-form and division
    routes for phi_k agree for k = 0 mod 12 up to k_phi.  A range below its
    first weight (8, 4, 12) skips its sub-check; ``DomainError`` if all three do.
    ``table`` is extended to the largest of the three ranges.
    """
    if k_dual < 8 and k_qseries < 4 and k_phi < 12:
        raise DomainError("no range reaches a weight: need k_dual >= 8, k_qseries >= 4 or k_phi >= 12")
    started = time.perf_counter()
    k_top = max(k_dual, k_qseries, k_phi)
    table.extend(k_top)
    report = CheckReport(
        "selftest", {"k_dual": k_dual, "k_qseries": k_qseries, "k_phi": k_phi, "n_terms": SELFTEST_Q_TERMS}
    )

    for k in range(8, k_dual + 1, 2):
        expected = table.integer_view(k)
        graded_ok = popa_expand(k, table, route="graded") == expected
        pre_ok = popa_expand(k, table, route="precancelled") == expected
        report.records.append(
            {"check": "dual-recurrence", "k": k, "graded_route": graded_ok, "precancelled_route": pre_ok, "passed": graded_ok and pre_ok}
        )

    for k in range(4, k_qseries + 1, 2):
        rk = zeta_ratio(k)
        from_table = substitute_q_expansion(table.graded_form(k), SELFTEST_Q_TERMS)
        direct = q_expansion_direct(k, SELFTEST_Q_TERMS)
        ok = from_table == [rk * c for c in direct]
        report.records.append({"check": "q-series", "k": k, "passed": ok})

    for k in range(12, k_phi + 1, 12):
        ok = phi_closed_form(k, table).ints == phi_by_division(k, table).ints
        report.records.append({"check": "phi-routes", "k": k, "passed": ok})

    return _timed(report, started)
