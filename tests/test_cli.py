import csv
import json

import pytest

from eisen.cli import main
from eisen.eisenstein import EisensteinTable


class TestWk:
    def test_human_output(self, capsys):
        assert main(["wk", "--k", "12"]) == 0
        out = capsys.readouterr().out
        assert "25/143" in out and "18/143" in out

    def test_json_output(self, capsys):
        assert main(["wk", "--k", "8", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coefficients"] == [{"a": 2, "b": 0, "w": "3/7"}]

    def test_csv_output(self, capsys):
        assert main(["wk", "--k", "10", "--csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["k", "a", "b", "w"]
        assert rows[1] == ["10", "1", "1", "5/11"]


class TestPhi:
    def test_json_golden(self, capsys):
        assert main(["phi", "--k", "16", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degree"] == 1
        assert doc["coeffs"] == ["-3456000/3617", "1/1"]
        assert doc["valuation_profile_2"] == [10]

    def test_human_output(self, capsys):
        assert main(["phi", "--k", "24"]) == 0
        out = capsys.readouterr().out
        assert "340364160000/236364091" in out
        assert "delta=0" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "phi.json"
        assert main(["phi", "--k", "12", "--json", "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["coeffs"] == ["-432000/691", "1/1"]


class TestChecks:
    def test_valsum(self, capsys):
        assert main(["check", "--lemma", "valsum", "--k-max", "64"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_ineq_csv(self, capsys):
        assert main(["check", "--lemma", "ineq", "--k-max", "32", "--csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0][0] == "k"

    def test_conjecture_json(self, capsys):
        assert main(["check", "--lemma", "conjecture", "--k-max", "32", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert doc["records"][0]["k"] == 4

    def test_bad_range_exits_2(self, capsys):
        assert main(["check", "--lemma", "valsum", "--k-max", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestTheoremAndScan:
    def test_theorem(self, capsys):
        assert main(["theorem", "--ell-max", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [rec["k"] for rec in doc["records"]] == [12, 24]
        assert all(rec["verdict"] == "irreducible" for rec in doc["records"])

    def test_scan(self, capsys):
        assert main(["scan", "--k-max", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert doc["notes"]["inconclusive_k"] == []

    def test_scan_bad_range(self, capsys):
        assert main(["scan", "--k-max", "3"]) == 2


class TestUsage:
    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--k-max", "40", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_json_and_csv_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wk", "--k", "12", "--json", "--csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not allowed with" in err


class TestSelftestCommand:
    def test_small(self, capsys):
        code = main(["selftest", "--k-max-dual", "16", "--k-max-q", "12", "--k-max-phi", "12"])
        assert code == 0
        assert "selftest: PASS" in capsys.readouterr().out


class TestNewton:
    def test_human(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_text("2\n2\n1\n")
        assert main(["newton", "--poly", str(poly), "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "single segment: True" in out
        assert "irreducible" in out

    def test_json(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_text("4\n1\n1\n")
        assert main(["newton", "--poly", str(poly), "--p", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == [[0, 2], [1, 0], [2, 0]]
        assert doc["dumas"]["verdict"] == "inconclusive"

    def test_rational_coefficients_file(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_text("-432000/691\n1/1\n")
        assert main(["newton", "--poly", str(poly), "--p", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == [[0, 7], [1, 0]]

    def test_composite_modulus_exits_nonzero(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_text("-4\n0\n1\n")  # x^2 - 4 = (x - 2)(x + 2)
        assert main(["newton", "--poly", str(poly), "--p", "4"]) != 0
        assert "irreducible" not in capsys.readouterr().out

    def test_huge_modulus_exits_2(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_text("2\n2\n1\n")
        # a 30-digit prime: trial division would never finish
        assert main(["newton", "--poly", str(poly), "--p", str(10**29 + 319)]) == 2
        assert "error" in capsys.readouterr().err


class TestTablePersistence:
    def test_dump_then_load(self, tmp_path, capsys):
        dump = tmp_path / "table.csv"
        assert main(["wk", "--k", "24", "--table-dump", str(dump)]) == 0
        capsys.readouterr()
        assert main(["wk", "--k", "24", "--table-load", str(dump)]) == 0
        assert "w(24)" in capsys.readouterr().out

    def test_loaded_table_feeds_scan(self, tmp_path, capsys):
        dump = tmp_path / "table.csv"
        assert main(["wk", "--k", "40", "--table-dump", str(dump)]) == 0
        capsys.readouterr()
        assert main(["scan", "--k-max", "40", "--table-load", str(dump), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"

    def test_exponent_notation_row_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "table.csv"
        dump.write_text("k,a,b,w\n12,0,2,1e3000000\n")
        assert main(["wk", "--k", "12", "--table-load", str(dump)]) == 2
        assert "1e3000000" in capsys.readouterr().err

    def test_selftest_dumps_its_table(self, tmp_path, capsys):
        dump = tmp_path / "table.csv"
        args = ["selftest", "--k-max-dual", "16", "--k-max-q", "12", "--k-max-phi", "24"]
        assert main(args + ["--table-dump", str(dump)]) == 0
        assert EisensteinTable.load_csv(dump).max_weight() == 24
