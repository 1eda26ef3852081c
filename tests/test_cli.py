import csv
import json
import sys
import time
from fractions import Fraction

import pytest

from eisen import cli
from eisen.cli import main
from eisen.eisenstein import EisensteinTable
from eisen.exact import format_rational, zeta_ratio
from eisen.gekeler import GekelerPolynomial


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

    @pytest.mark.parametrize("k", ["7", "2", "0"])
    def test_weight_outside_the_domain_exits_2(self, capsys, k):
        # no extend can supply it, so the error names the domain, as phi's does
        assert main(["wk", "--k", k]) == 2
        assert capsys.readouterr().err == f"error: k must be even and >= 4, got {k}\n"


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

    def test_zero_coefficient_profiled_as_inf(self, monkeypatch, capsys):
        # no phi_k with k <= 480 has a zero coefficient, so plant one
        planted = GekelerPolynomial(k=24, ints=(0, 3, 1), delta=0, epsilon=0)
        monkeypatch.setattr(cli, "phi_by_division", lambda k, table: planted)
        assert main(["phi", "--k", "24", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["valuation_profile_2"] == ["inf", 0]

    def test_coefficient_past_the_digit_limit_exits_2(self, monkeypatch, capsys):
        # 10**4300 has 4301 digits, one more than str(int) writes by default
        planted = GekelerPolynomial(k=24, ints=(10**4300, 3, 1), delta=0, epsilon=0)
        monkeypatch.setattr(cli, "phi_by_division", lambda k, table: planted)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["phi", "--k", "24", "--json"]) == 2
        finally:
            sys.set_int_max_str_digits(old)
        assert "4300" in capsys.readouterr().err


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

    @pytest.mark.parametrize("lemma", ["valsum", "ineq", "min", "conjecture"])
    def test_k_max_zero_is_not_the_default(self, capsys, lemma):
        # 0 is a given bound, out of range; only an omitted --k-max means the default
        assert main(["check", "--lemma", lemma, "--k-max", "0"]) == 2
        assert "k_max must be" in capsys.readouterr().err


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

    def test_scan_that_can_certify_nothing_exits_2(self, capsys):
        assert main(["scan", "--k-max", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k_max must be >= 12" in captured.err


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

    # a file that cannot be read or written is an input error, not a failed check
    @pytest.mark.parametrize(
        "argv",
        [
            ["newton", "--poly", "{tmp}/missing.txt", "--p", "2"],
            ["wk", "--k", "12", "--table-load", "{tmp}/missing.csv"],
            ["wk", "--k", "12", "--table-load", "{tmp}/binary.csv"],
            ["wk", "--k", "12", "--out", "{tmp}"],
            ["wk", "--k", "12", "--table-dump", "{tmp}"],
        ],
        ids=["missing-poly", "missing-table-load", "binary-table-load", "out-is-a-dir", "table-dump-is-a-dir"],
    )
    def test_bad_file_exits_2(self, tmp_path, capsys, argv):
        (tmp_path / "binary.csv").write_bytes(b"k,a,b,w\n\xff,0,2,1/1\n")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert "error:" in capsys.readouterr().err


class TestSelftestCommand:
    def test_small(self, capsys):
        code = main(["selftest", "--k-max-dual", "16", "--k-max-q", "12", "--k-max-phi", "12"])
        assert code == 0
        assert "selftest: PASS" in capsys.readouterr().out

    def test_ranges_that_reach_no_weight_exit_2(self, capsys):
        assert main(["selftest", "--k-max-dual", "4", "--k-max-q", "2", "--k-max-phi", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no range reaches a weight" in captured.err


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

    # Fraction(str) took all but "x" and "1/0"; "1e3000000" expanded to 3 million digits
    @pytest.mark.parametrize("coeff", ["x", "1/0", "1e3000000", "1_000", "+1"])
    def test_malformed_coefficient_exits_2(self, tmp_path, capsys, coeff):
        poly = tmp_path / "poly.txt"
        poly.write_text(f"{coeff}\n1\n")
        started = time.perf_counter()
        assert main(["newton", "--poly", str(poly), "--p", "3"]) == 2
        assert time.perf_counter() - started < 0.1
        assert repr(coeff) in capsys.readouterr().err

    def test_crlf_line_ends_read_as_lf(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_bytes(b"2\r\n0\r\n1\r\n")
        assert main(["newton", "--poly", str(poly), "--p", "2"]) == 0
        assert "dumas verdict: irreducible" in capsys.readouterr().out

    def test_a_form_feed_or_line_separator_ends_no_line(self, tmp_path, capsys):
        # one line, "2\f0\u20281": str.splitlines read it as the coefficients 2, 0, 1
        poly = tmp_path / "poly.txt"
        poly.write_text("2\f0\u20281\n", encoding="utf-8")
        assert main(["newton", "--poly", str(poly), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_non_monic_file_exits_2(self, tmp_path, capsys):
        # 1 + x + 2x^2: the library reads it as its monic form, whose polygon is not the file's own
        poly = tmp_path / "poly.txt"
        poly.write_text("1\n1\n2\n")
        assert main(["newton", "--poly", str(poly), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "polynomial must be monic" in captured.err

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

    # an error quotes a bad input only in part, so its message stays short however long the input
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["wk", "--k", "12", "--table-load"], "k,a,b,w\n12,0,2," + "1" * 200_000 + "\n"),
            (["wk", "--k", "12", "--table-load"], "k,a,b,w\n12,0,2," + "1" * 100_000 + "\n"),
            (["wk", "--k", "12", "--table-load"], "k,a,b,w\n" + "1" * 5000 + ",0,2,25/143\n"),
            (["newton", "--p", "2", "--poly"], "1e" + "1" * 200_000 + "\n"),
            (["newton", "--p", "2", "--poly"], "1\n" + "1" * 4000 + "/7\n"),
        ],
        ids=["w-field", "w-field-100000-digits", "k-field", "poly-line", "poly-leading-coefficient"],
    )
    def test_a_long_input_exits_2_with_a_short_message(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.encode()) < 300

    # the loader reads only the grammar dump_csv writes: no quoting, one row of four fields per line
    @pytest.mark.parametrize(
        "rows", ['"12",0,2,25/143\n12,3,0,18/143\n', "12,0,2,25/143\n\n12,3,0,18/143\n", "12,0,2,25/143,\n12,3,0,18/143\n"],
        ids=["quoted-field", "blank-line", "fifth-field"],
    )
    def test_a_row_outside_the_dump_grammar_exits_2(self, tmp_path, capsys, rows):
        dump = tmp_path / "table.csv"
        dump.write_text("k,a,b,w\n" + rows)
        assert main(["wk", "--k", "12", "--table-load", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad table row" in captured.err

    @pytest.mark.parametrize(
        "argv", [["wk", "--k", "12"], ["check", "--lemma", "conjecture", "--k-max", "12"]]
    )
    def test_weight_with_missing_rows_exits_2(self, tmp_path, capsys, argv):
        dump = tmp_path / "table.csv"
        dump.write_text("k,a,b,w\n12,0,2,25/143\n")
        assert main(argv + ["--table-load", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "weight 12 is missing rows" in captured.err

    @pytest.mark.parametrize(
        "argv", [["wk", "--k", "36"], ["check", "--lemma", "conjecture", "--k-max", "60"]]
    )
    def test_dump_with_a_doubled_value_exits_2(self, tmp_path, capsys, argv):
        dump = tmp_path / "table.csv"
        assert main(["check", "--lemma", "conjecture", "--k-max", "60", "--table-dump", str(dump)]) == 0
        lines = dump.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith("36,0,6,"))
        num, den = lines[i][len("36,0,6,") :].split("/")
        lines[i] = f"36,0,6,{2 * int(num)}/{den}"
        dump.write_text("".join(lines))
        capsys.readouterr()
        assert main(argv + ["--table-load", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "weight 36: the constant q-coefficient of E_k is not 1" in captured.err

    @pytest.mark.parametrize("row, changed", [("4,1,0,1/1", "4,1,0,2/1"), ("6,0,1,1/1", "6,0,1,3/2")], ids=["w4", "w6"])
    def test_dump_with_a_changed_base_weight_exits_2(self, tmp_path, capsys, row, changed):
        dump = tmp_path / "table.csv"
        assert main(["wk", "--k", "12", "--table-dump", str(dump)]) == 0
        text = dump.read_text()
        assert row in text
        dump.write_text(text.replace(row, changed))
        capsys.readouterr()
        assert main(["wk", "--k", "12", "--table-load", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"weight {row[0]}: the constant q-coefficient of E_k is not 1" in captured.err

    @pytest.mark.parametrize("argv", [["wk", "--k", "24"], ["phi", "--k", "24"]])
    def test_dump_along_the_q_check_null_space_exits_2(self, tmp_path, capsys, argv):
        # (1, -2, 1) added to (u_0, u_3, u_6) of E_24 keeps both q-coefficients
        # but makes w_{3,24} negative, which no real table has
        dump = tmp_path / "table.csv"
        assert main(["wk", "--k", "24", "--table-dump", str(dump)]) == 0
        r4, r6, r24 = zeta_ratio(4), zeta_ratio(6), zeta_ratio(24)
        shift = {0: 1, 3: -2, 6: 1}
        lines = dump.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            k, a, b, w = line.strip().split(",")
            if k == "24" and int(a) in shift:
                w = Fraction(w) + shift[int(a)] * r24 / (r4 ** int(a) * r6 ** int(b))
                lines[i] = f"{k},{a},{b},{format_rational(w)}\n"
        dump.write_text("".join(lines))
        capsys.readouterr()
        assert main(argv + ["--table-load", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "every w_{a,k} is positive" in captured.err

    def test_selftest_dumps_its_table(self, tmp_path, capsys):
        dump = tmp_path / "table.csv"
        args = ["selftest", "--k-max-dual", "16", "--k-max-q", "12", "--k-max-phi", "24"]
        assert main(args + ["--table-dump", str(dump)]) == 0
        assert EisensteinTable.load_csv(dump).max_weight() == 24
