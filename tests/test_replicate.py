import ast
import importlib
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from eisen import irreducibility, replicate
from eisen.errors import ConsistencyError, DomainError
from eisen.eisenstein import EisensteinTable
from eisen.irreducibility import distinct_degree_pattern
from eisen.recheck import _ddf_by_repeated_squaring
from eisen.replicate import (
    CheckReport,
    check_conjecture,
    check_lemma_ineq,
    check_lemma_valsum,
    check_min_valuation,
    check_theorem_main,
    gekeler_scan,
    selftest,
)
from helpers import covers


def bench_span_targets() -> tuple:
    """The (module, attribute) pairs the benchmark's tracer wraps, read from
    ``bench/spans.py`` without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TARGETS")


class TestBenchmarkHooks:
    """Names the benchmark looks up in the package must not vanish under it."""

    @pytest.mark.parametrize("module, attr", bench_span_targets())
    def test_traced_name_resolves(self, module, attr):
        owner = importlib.import_module(module)
        if "." in attr:  # "Class.method": the tracer reads the class's own __dict__
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name))
        else:
            assert callable(getattr(owner, attr))

    def test_replicate_binds_distinct_degree_pattern(self):
        # bench/sample.py patches the name in replicate's globals too
        assert replicate.distinct_degree_pattern is irreducibility.distinct_degree_pattern


def record_for(report, key, value):
    for record in report.records:
        if record[key] == value:
            return record
    raise AssertionError(f"no record with {key}={value}")


class TestLemmaValsum:
    def test_passes_to_256(self):
        report = check_lemma_valsum(256)
        assert report.status == "PASS"
        assert report.failed_count == 0

    def test_k6_is_the_power_of_two_case(self):
        report = check_lemma_valsum(64)
        rec = record_for(report, "k", 6)
        # (-1)^3 + C(6,2) = 14
        assert rec["valuation"] == 1
        assert rec["k_plus_2_power_of_two"]

    def test_k4_generic_case(self):
        rec = record_for(check_lemma_valsum(8), "k", 4)
        assert rec["valuation"] == 0
        assert not rec["k_plus_2_power_of_two"]

    def test_k14_congruence_step(self):
        rec = record_for(check_lemma_valsum(16), "k", 14)
        assert rec["binom_mod4"] == 3  # C(14,6) = 3003
        assert rec["valuation"] == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            check_lemma_valsum(2)


class TestLemmaIneq:
    def test_passes_to_128(self):
        report = check_lemma_ineq(128)
        assert report.status == "PASS"

    def test_k14_first_quotient(self):
        # k + 2 = 16: valuation is s_2(7) - 1 = 2
        rec = record_for(check_lemma_ineq(16), "k", 14)
        assert rec["nu_first"] == 2
        assert rec["sharp_pair_checked"]

    def test_k8_second_quotient(self):
        # (k/2 - 1) / ((-1)^4 + C(8,3)) = 3/57
        rec = record_for(check_lemma_ineq(8), "k", 8)
        assert rec["nu_second"] == 0
        assert Fraction(3, 57) == Fraction(1, 19)

    def test_identities_hold_everywhere(self):
        report = check_lemma_ineq(64)
        assert all(rec["identities_ok"] for rec in report.records)

    def test_domain(self):
        with pytest.raises(DomainError):
            check_lemma_ineq(6)


class TestMinValuation:
    def test_passes_to_60(self, shared_table):
        report = check_min_valuation(60, table=shared_table.ensure(60))
        assert report.status == "PASS"
        assert record_for(report, "k", 12)["min_valuation2"] == 0
        assert record_for(report, "k", 4)["min_valuation2"] == 0

    def test_builds_table_when_not_given(self):
        report = check_min_valuation(20)
        assert report.status == "PASS"
        assert len(report.records) == 9


class TestConjecture:
    def test_passes_to_60(self, shared_table):
        report = check_conjecture(60, table=shared_table.ensure(60))
        assert report.status == "PASS"

    def test_branches(self, shared_table):
        report = check_conjecture(20, table=shared_table.ensure(20))
        k12 = record_for(report, "k", 12)
        assert (k12["s2"], k12["branch"], k12["predicted"]) == (2, "generic", 0)
        k16 = record_for(report, "k", 16)
        assert (k16["branch"], k16["predicted"]) == ("power-of-two", 0)
        k20 = record_for(report, "k", 20)
        assert k20["predicted"] == 0 and k20["min_valuation2"] == 0


class TestTheoremMain:
    def test_first_three_levels(self, shared_table):
        report = check_theorem_main(2, table=shared_table.ensure(48))
        assert report.status == "PASS"
        ell0 = record_for(report, "ell", 0)
        assert ell0["k"] == 12 and ell0["t0_valuation"] == 7 and ell0["degree"] == 1
        ell1 = record_for(report, "ell", 1)
        assert ell1["verdict"] == "irreducible"
        assert ell1["certificate_rechecked"]
        assert ell1["gcd"] == 1

    def test_certificates_are_json_ready(self, shared_table):
        report = check_theorem_main(1, table=shared_table.ensure(24))
        doc = json.dumps(report.to_json_dict())
        assert '"criterion": "dumas"' in doc

    def test_domain(self):
        with pytest.raises(DomainError):
            check_theorem_main(-1)

    def test_route_disagreement_is_a_consistency_error(self, shared_table, monkeypatch):
        monkeypatch.setattr(replicate, "phi_by_division", lambda k, table: SimpleNamespace(ints=()))
        with pytest.raises(ConsistencyError):
            check_theorem_main(1, table=shared_table.ensure(24))

    @pytest.mark.parametrize(
        "a, value, failing, holding",
        [(0, 2, "w0_valuation_zero", "w3a_valuations_ge1"), (3, 1, "w3a_valuations_ge1", "w0_valuation_zero"),
         (9, 3, "w3a_valuations_ge1", "w0_valuation_zero")],
    )
    def test_each_hypothesis_fails_on_a_planted_valuation(self, shared_table, monkeypatch, a, value, failing, holding):
        # w(48) over 4 den, so numerator and value valuations differ, with w_{a,48} planted as an
        # integer of nu_2 = 1 (a = 0) or 0 (a = 3, 9): exactly its hypothesis fails.  phi_48
        # still comes from the true table, so only the check's own reading of the view changes
        good = shared_table.ensure(48)
        for name in ("phi_closed_form", "phi_by_division"):
            monkeypatch.setattr(replicate, name, lambda k, table, real=getattr(replicate, name): real(k, good))
        planted = EisensteinTable()
        planted._views.update(good._views)
        nums, den = good.integer_view(48)
        planted._views[48] = ({**{b: 4 * n for b, n in nums.items()}, a: 4 * value * den}, 4 * den)
        report = check_theorem_main(2, table=planted)
        assert [r["passed"] for r in report.records] == [True, True, False]
        assert not report.records[2][failing] and report.records[2][holding]

    def test_certificate_rechecked_once_per_weight(self, shared_table, monkeypatch):
        calls = []
        real = replicate.recheck_dumas_certificate
        monkeypatch.setattr(replicate, "recheck_dumas_certificate", lambda doc: calls.append(doc) or real(doc))
        report = check_theorem_main(2, table=shared_table.ensure(48))
        assert report.status == "PASS"
        assert len(calls) == len(report.records) == 3


class TestScan:
    def test_small_scan_all_irreducible(self, shared_table):
        report = gekeler_scan(60, table=shared_table.ensure(60))
        assert report.status == "PASS"
        assert report.notes["inconclusive_k"] == []
        assert all(rec["verdict"] == "irreducible" for rec in report.records)
        assert record_for(report, "k", 16)["degree"] == 1
        assert record_for(report, "k", 24)["criterion"] == "dumas"

    @pytest.mark.parametrize("k_max", [4, 10, 11])
    def test_a_range_below_the_first_positive_degree_is_rejected(self, shared_table, k_max):
        # no weight below 12 has deg phi_k >= 1, so such a scan could certify nothing
        with pytest.raises(DomainError, match="k_max must be >= 12"):
            gekeler_scan(k_max, table=shared_table.ensure(12))

    def test_the_first_positive_degree_is_scanned(self, shared_table):
        report = gekeler_scan(12, table=shared_table.ensure(12))
        assert report.status == "PASS"
        assert [(rec["k"], rec["degree"]) for rec in report.records] == [(12, 1)]

    def test_degree_zero_weights_not_recorded(self, shared_table):
        report = gekeler_scan(60, table=shared_table.ensure(60))
        ks = [rec["k"] for rec in report.records]
        assert 4 not in ks and 14 not in ks
        assert ks == sorted(ks)

    def test_witness_counts_within_budget(self, shared_table):
        report = gekeler_scan(60, table=shared_table.ensure(60))
        for rec in report.records:
            assert len(rec["primes"]) <= 10

    def test_dumas_check_runs_once_per_dumas_record(self, shared_table, monkeypatch):
        # the screen picks the prime; the full check runs there only, to make the certificate
        calls = []
        real = replicate.dumas_check
        monkeypatch.setattr(replicate, "dumas_check", lambda coeffs, p, poly_id="poly": calls.append(p) or real(coeffs, p, poly_id))
        report = gekeler_scan(120, table=shared_table.ensure(120))
        dumas = [rec["primes"][0] for rec in report.records if rec["criterion"] == "dumas"]
        assert report.status == "PASS" and calls == dumas and len(dumas) > 5

    def test_screen_and_dumas_check_disagreeing_is_a_consistency_error(self, shared_table, monkeypatch):
        # x^2 + 4 is inconclusive at every prime: gcd(nu_p(4), 2) = 2
        real = replicate.dumas_check
        monkeypatch.setattr(replicate, "dumas_check", lambda coeffs, p, poly_id="poly": real([4, 0, 1], p, poly_id))
        with pytest.raises(ConsistencyError, match="Dumas screen passed phi_12 at p = 2"):
            gekeler_scan(24, table=shared_table.ensure(24))

    def test_scan_agrees_with_theorem_certificates(self, shared_table):
        # the weights 12 * 2^l must come out of the sweep through the same
        # criterion the dedicated check certifies them with
        table = shared_table.ensure(96)
        theorem = check_theorem_main(3, table=table)
        scan = gekeler_scan(96, table=table)
        for rec in theorem.records:
            scanned = record_for(scan, "k", rec["k"])
            assert scanned["verdict"] == rec["verdict"] == "irreducible"
            assert scanned["criterion"] == "dumas"
            assert scanned["primes"] == [rec["certificate"]["prime"]]


class TestScanPatterns:
    @staticmethod
    def record_ddf(monkeypatch) -> list:
        """Route every production DDF call of the scan through a recorder."""
        seen = []
        real = irreducibility.distinct_degree_pattern

        def recording(int_coeffs, p):
            pattern = real(int_coeffs, p)
            seen.append((tuple(int_coeffs), p, irreducibility._WALK_REMAINING.get(), pattern))
            return pattern

        monkeypatch.setattr(irreducibility, "distinct_degree_pattern", recording)
        monkeypatch.setattr(replicate, "distinct_degree_pattern", recording)
        return seen

    def test_production_ddf_matches_rechecker_on_scan_inputs(self, shared_table, monkeypatch):
        seen = self.record_ddf(monkeypatch)
        gekeler_scan(120, table=shared_table.ensure(120))
        assert len(seen) > 100
        for f, p, remaining, returned in seen:
            full = distinct_degree_pattern(f, p)
            assert full == _ddf_by_repeated_squaring(f, p), (len(f) - 1, p)
            if returned is None and remaining:
                # pruned: the full pattern cannot shrink the walk's unexcluded degrees
                assert full is None or covers(full, remaining), (len(f) - 1, p)
            else:
                assert returned == full, (len(f) - 1, p)

    def test_one_pattern_per_examined_prime(self, shared_table, monkeypatch):
        seen = self.record_ddf(monkeypatch)
        examined = []
        real_select = replicate.select_witness_primes

        def selecting(*args, **kwargs):
            kept, count = real_select(*args, **kwargs)
            examined.append(count)
            return kept, count

        monkeypatch.setattr(replicate, "select_witness_primes", selecting)
        report = gekeler_scan(60, table=shared_table.ensure(60))
        assert report.status == "PASS" and examined
        assert len(seen) == sum(examined)
        assert len({(f, p) for f, p, *_ in seen}) == len(seen)

    def test_skipped_dumas_primes_never_certify(self, shared_table, monkeypatch):
        table = shared_table.ensure(120)
        called = {}
        real = replicate.dumas_check

        def recording(coeffs, p, poly_id="poly"):
            cert = real(coeffs, p, poly_id=poly_id)
            called.setdefault(poly_id, []).append((p, cert.verdict))
            return cert

        monkeypatch.setattr(replicate, "dumas_check", recording)
        report = gekeler_scan(120, table=table)
        assert report.status == "PASS"
        n_skipped = 0
        for rec in report.records:
            k = rec["k"]
            phi = replicate.phi_by_division(k, table)
            verdicts = {p: real(phi.coeffs, p).verdict for p in replicate.DUMAS_SCAN_PRIMES}
            full = [p for p in replicate.DUMAS_SCAN_PRIMES if verdicts[p] == "irreducible"]
            seen = dict(called.get(f"phi_{k}", []))
            # the loop stops at the certifying prime; below it, the pre-test
            # skips only primes where the full check cannot certify
            last = rec["primes"][0] if rec["criterion"] == "dumas" else replicate.DUMAS_SCAN_PRIMES[-1]
            skipped = [p for p in replicate.DUMAS_SCAN_PRIMES if p <= last and p not in seen]
            assert all(verdicts[p] != "irreducible" for p in skipped), k
            n_skipped += len(skipped)
            assert all(seen[p] == verdicts[p] for p in seen), k
            if full:
                assert rec["criterion"] == "dumas" and rec["primes"] == full[:1], k
            else:
                assert rec["criterion"] != "dumas", k
            if rec["degree"] == 1:
                assert 2 in seen, k
        assert n_skipped > 0

    def test_dumas_primes_are_the_primes_below_100(self):
        assert replicate.DUMAS_SCAN_PRIMES == tuple(n for n in range(2, 100) if all(n % d for d in range(2, n)))
        assert len(replicate.DUMAS_SCAN_PRIMES) == 25


class TestSelftest:
    def test_small_ranges_pass(self, shared_table):
        report = selftest(k_dual=40, k_qseries=24, k_phi=48, table=shared_table.ensure(48))
        assert report.status == "PASS"
        checks = {rec["check"] for rec in report.records}
        assert checks == {"dual-recurrence", "q-series", "phi-routes"}

    def test_deterministic_records(self, shared_table):
        table = shared_table.ensure(48)
        a = selftest(k_dual=24, k_qseries=16, k_phi=24, table=table)
        b = selftest(k_dual=24, k_qseries=16, k_phi=24, table=table)
        assert a.records == b.records
        assert a.to_json_dict()["status"] == b.to_json_dict()["status"]

    def test_fault_injection_detected(self):
        table = EisensteinTable().extend(48)
        nums, den = table.integer_view(20)
        nums[2] += den  # corrupt one stored coefficient: w_{2,20} up by 1
        report = selftest(k_dual=40, k_qseries=24, k_phi=48, table=table)
        assert report.status == "FAIL"
        first = report.first_failure()
        assert first["k"] == 20

    def test_ranges_that_reach_no_weight_are_rejected(self):
        with pytest.raises(DomainError, match="no range reaches a weight"):
            selftest(k_dual=7, k_qseries=3, k_phi=11, table=EisensteinTable())

    def test_one_range_reaching_a_weight_is_enough(self, shared_table):
        report = selftest(k_dual=0, k_qseries=4, k_phi=0, table=shared_table.ensure(4))
        assert report.status == "PASS"
        assert [(rec["check"], rec["k"]) for rec in report.records] == [("q-series", 4)]

    def test_default_ranges_pass(self, shared_table):
        # the CI defaults: dual recurrence to 200, series to 60, routes to 480
        report = selftest(table=shared_table.ensure(480))
        assert report.status == "PASS"
        phi_ks = [rec["k"] for rec in report.records if rec["check"] == "phi-routes"]
        assert phi_ks[-1] == 480


class TestCheckReport:
    def test_fail_propagates(self):
        report = CheckReport("demo", {}, records=[{"k": 4, "passed": True}, {"k": 6, "passed": False}])
        assert report.status == "FAIL"
        assert report.failed_count == 1
        assert report.first_failure()["k"] == 6

    def test_json_shape(self):
        report = CheckReport("demo", {"k_max": 8}, records=[{"k": 4, "passed": True}])
        doc = report.to_json_dict()
        assert list(doc) == ["name", "params", "status", "passed", "failed", "notes", "wall_time_s", "records"]

    def test_csv_rows(self):
        report = CheckReport("demo", {}, records=[{"k": 4, "primes": [2, 3], "passed": True}])
        header, rows = report.csv_rows()
        assert header == ["k", "primes", "passed"]
        assert rows == [["4", "2;3", "True"]]

    def test_empty_report_passes(self):
        assert CheckReport("demo", {}).status == "PASS"
