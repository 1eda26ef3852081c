"""Command-line interface.

    eisen selftest                                  cross-route identity suite
    eisen wk --k 12                                 expansion vector of one weight
    eisen phi --k 24                                zero-encoding polynomial + 2-adic profile
    eisen check --lemma {valsum,ineq,min,conjecture} --k-max N
    eisen theorem --ell-max 5                       certificates for k = 12 * 2^ell
    eisen scan --k-max 446                          irreducibility sweep
    eisen newton --poly coeffs.txt --p 2            Newton polygon + slope data

Global flags on every subcommand: --json or --csv (not both) selects the
output format, --out writes to a file instead of stdout, --table-dump /
--table-load persist the expansion table as CSV for warm starts (all but
newton).  Exit code is 0 iff every check passed.

Polynomial files: one coefficient per line, constant term first, each written
as an exact "num/den" (or plain integer) string.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .eisenstein import EisensteinTable
from .errors import EisenError
from .gekeler import phi_by_division, valuation_profile
from .irreducibility import dumas_check, newton_polygon
from . import replicate


def _add_common(parser: argparse.ArgumentParser, table_opts: bool = True) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV records")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    if table_opts:
        parser.add_argument("--table-dump", metavar="PATH", help="dump the expansion table as CSV")
        parser.add_argument("--table-load", metavar="PATH", help="warm-start the table from a CSV dump")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eisen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run every cross-route identity check")
    p.add_argument("--k-max-dual", type=int, default=200)
    p.add_argument("--k-max-q", type=int, default=60)
    p.add_argument("--k-max-phi", type=int, default=480)
    _add_common(p)

    p = sub.add_parser("wk", help="print the expansion vector w(k)")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("phi", help="print phi_k: degree, elliptic exponents, coefficients, 2-adic profile")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("check", help="run one lemma/theorem range check")
    p.add_argument("--lemma", choices=("valsum", "ineq", "min", "conjecture"), required=True)
    p.add_argument("--k-max", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("theorem", help="certificates for the weights 12 * 2^ell")
    p.add_argument("--ell-max", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("scan", help="irreducibility sweep over all even weights")
    p.add_argument("--k-max", type=int, default=446)
    _add_common(p)

    p = sub.add_parser("newton", help="Newton polygon of a polynomial file at a prime")
    p.add_argument("--poly", metavar="PATH", required=True)
    p.add_argument("--p", type=int, required=True)
    _add_common(p, table_opts=False)

    return parser


# default ranges per check when --k-max is omitted
_CHECK_DEFAULTS = {"valsum": 1024, "ineq": 512, "min": 500, "conjecture": 500}


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_csv(header: Sequence, rows: Iterable[Sequence], out: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


def _emit_report(report: replicate.CheckReport, args: argparse.Namespace) -> int:
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    elif args.csv:
        _emit_csv(*report.csv_rows(), args.out)
    else:
        lines = [report.summary()]
        for key, value in report.notes.items():
            lines.append(f"  {key}: {value}")
        failure = report.first_failure()
        if failure is not None:
            lines.append(f"  first failure: {failure}")
        _emit("\n".join(lines), args.out)
    return 0 if report.status == "PASS" else 1


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _cmd_wk(args: argparse.Namespace, table: EisensteinTable) -> int:
    table.extend(args.k)
    vec = table.w_vector(args.k)
    rows = [(a, (args.k - 4 * a) // 6, vec[a]) for a in sorted(vec)]
    if args.json:
        doc = {"k": args.k, "coefficients": [{"a": a, "b": b, "w": _frac_str(w)} for a, b, w in rows]}
        _emit(json.dumps(doc, indent=2), args.out)
    elif args.csv:
        _emit_csv(["k", "a", "b", "w"], ([args.k, a, b, _frac_str(w)] for a, b, w in rows), args.out)
    else:
        lines = [f"w({args.k}):"] + [f"  a={a} b={b}  {_frac_str(w)}" for a, b, w in rows]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_phi(args: argparse.Namespace, table: EisensteinTable) -> int:
    table.extend(args.k)
    phi = phi_by_division(args.k, table)
    profile = valuation_profile(phi, 2)
    profile_json = [str(v) if not isinstance(v, int) else v for v in profile]
    if args.json:
        doc = {
            "k": phi.k,
            "degree": phi.degree,
            "delta": phi.delta,
            "epsilon": phi.epsilon,
            "coeffs": [_frac_str(c) for c in phi.coeffs],
            "valuation_profile_2": profile_json,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    elif args.csv:
        rows = (
            [r, _frac_str(c), profile_json[r] if r < len(profile_json) else ""] for r, c in enumerate(phi.coeffs)
        )
        _emit_csv(["r", "coeff", "nu_2"], rows, args.out)
    else:
        lines = [
            f"phi_{phi.k} = {phi}",
            f"degree {phi.degree}, delta={phi.delta}, epsilon={phi.epsilon}",
            f"2-adic profile of non-leading coefficients: {profile_json}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_newton(args: argparse.Namespace) -> int:
    coeffs = []
    for line in Path(args.poly).read_text().splitlines():
        line = line.strip()
        if line:
            coeffs.append(Fraction(line))
    polygon = newton_polygon(coeffs, args.p)
    cert = dumas_check(coeffs, args.p, poly_id=args.poly)
    if args.json:
        doc = {
            "prime": polygon.prime,
            "points": [list(pt) for pt in polygon.points],
            "vertices": [list(v) for v in polygon.vertices],
            "slopes": [{"slope": _frac_str(s), "length": length} for s, length in polygon.slopes],
            "dumas": cert.to_json_dict(),
        }
        _emit(json.dumps(doc, indent=2), args.out)
    elif args.csv:
        _emit_csv(["vertex_r", "vertex_valuation"], polygon.vertices, args.out)
    else:
        lines = [
            f"Newton polygon at p={polygon.prime}",
            f"  vertices: {list(polygon.vertices)}",
            f"  slopes:   {[(str(s), length) for s, length in polygon.slopes]}",
            f"  single segment: {polygon.is_single_segment()}",
            f"  dumas verdict: {cert.verdict}" + (f" ({cert.reason})" if cert.reason else ""),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _run_check(args: argparse.Namespace, table: EisensteinTable) -> replicate.CheckReport:
    if args.command == "selftest":
        return replicate.selftest(k_dual=args.k_max_dual, k_qseries=args.k_max_q, k_phi=args.k_max_phi, table=table)
    if args.command == "theorem":
        return replicate.check_theorem_main(args.ell_max, table=table)
    if args.command == "scan":
        return replicate.gekeler_scan(args.k_max, table=table)
    k_max = args.k_max or _CHECK_DEFAULTS[args.lemma]
    if args.lemma == "valsum":
        return replicate.check_lemma_valsum(k_max)
    if args.lemma == "ineq":
        return replicate.check_lemma_ineq(k_max)
    if args.lemma == "min":
        return replicate.check_min_valuation(k_max, table=table)
    return replicate.check_conjecture(k_max, table=table)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "newton":
            return _cmd_newton(args)
        table = EisensteinTable.load_csv(args.table_load) if args.table_load else EisensteinTable()
        if args.command == "wk":
            code = _cmd_wk(args, table)
        elif args.command == "phi":
            code = _cmd_phi(args, table)
        else:
            code = _emit_report(_run_check(args, table), args)
        if args.table_dump:
            table.dump_csv(args.table_dump)
        return code
    except EisenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
