"""The eisen benchmark: the paper's CLI runs, timed end to end and layer by layer.

    python3 bench/run.py --workload scan-warm --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is one ``eisen`` command on the paper's fixed range, so there is
no input to draw: the seed only sets PYTHONHASHSEED and the CPU of every child
process and, with ``--workload all``, the order of the workloads.  Every timed
call runs in a fresh interpreter (bench/sample.py), as the CLI does, so each
sample pays for the cold process-global memos a user pays for.  A warm workload first builds,
dumps and hashes its table in a setup process; each sample then imports
eisen, re-hashes that table and times ``cli.main`` loading it.  Samples repeat
until ``--seconds`` of measurement is used (at least one).

Every child process is pinned to one CPU beside bench/probe.py, which times
fixed chunks of work on the same core at nice 19.  The host's cores change
speed by tens of percent within seconds (see bench/README.md), so times are
scaled by ``core_factor`` = REF_CHUNK_S / (mean probe chunk time during the
timed call): seconds on a core where one chunk takes REF_CHUNK_S.  The chunk
is shaped like the workload's hot loop (``Workload.probe``).

End-to-end metrics (``--trace 0``): ``call_s``, the median scaled time of the
timed call; ``setup_s``, the scaled setup process plus the median scaled time
from spawning a process to its timed call (a cold workload adds COLD_STARTS
processes that only start and import); ``peak_rss_mb``, the largest peak RSS
of a sample process.  The raw ``wall_s`` and ``setup_wall_s`` are printed
too.  ``--trace 1`` runs one traced and one untraced sample and reports the
per-layer metrics of bench/spans.py instead.

Every record of every report is checked against bench/reference.json (digests
taken from the seed code): it must be PASS, a scan verdict must be
``irreducible``, and its digest must match.  The warm table's CSV digest must
match too.  A nonzero exit, or a table that differs, fails every record.
The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
#: a run must end within 180 s; stop starting samples well before
DEADLINE_S = 165.0
#: CPU seconds of one bench/probe.py chunk of each kind on the reference core;
#: times scale to it
REF_CHUNK_S = {"bigint": 320e-6, "bigint+fraction": 550e-6}
#: a cold workload's setup is only interpreter start and import (~0.15 s), so
#: it is repeated in this many extra processes and setup_s takes the median
COLD_STARTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: warm start: the table is built to this weight in setup and loaded by the CLI
    table_k: Optional[int]
    #: the bench/probe.py chunk shaped like this workload's hot loop
    probe: str = "bigint"

    def implied_counts(self, records: list[dict]) -> dict[str, int]:
        """Traced calls inside ``cli.main`` that the report's records imply."""
        k_max = int(self.argv[self.argv.index("--k-max") + 1]) if "--k-max" in self.argv else None
        if self.argv[0] == "scan":
            return {
                "phi_by_division": k_max // 2 - 1,
                "select_witness_primes": sum(r["criterion"] == "finite-field-pattern" for r in records),
            }
        if self.argv[0] == "selftest":
            n = {c: sum(r["check"] == c for r in records) for c in ("dual-recurrence", "q-series", "phi-routes")}
            return {
                "popa_expand.graded": n["dual-recurrence"],
                "popa_expand.precancelled": n["dual-recurrence"],
                "substitute_q_expansion": n["q-series"],
                "q_expansion_direct": n["q-series"],
                "phi_closed_form": n["phi-routes"],
                "phi_by_division": n["phi-routes"],
            }
        built = 0 if self.table_k else k_max // 2 - 3  # weights 8..k_max, unless loaded
        return {"min_valuation2": len(records), "rademacher_expand": built}


#: why each workload exists: BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("conjecture-cold", ("check", "--lemma", "conjecture", "--k-max", "500"), None),
        Workload("scan-warm", ("scan", "--k-max", "446"), 446),
        Workload("selftest-warm", ("selftest",), 480, "bigint+fraction"),
    )
}

#: small ranges for the harness self-test (bench/selftest.py)
SMALL_WORKLOADS = {
    w.name: w
    for w in (
        Workload("conjecture-small", ("check", "--lemma", "conjecture", "--k-max", "100"), None),
        Workload("conjecture-small-warm", ("check", "--lemma", "conjecture", "--k-max", "100"), 100),
        Workload("scan-small", ("scan", "--k-max", "60"), 60),
    )
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def record_key(record: dict) -> str:
    return ":".join(str(record[f]) for f in ("check", "k") if f in record)


def record_digest(record: dict) -> str:
    return hashlib.sha256(canonical(record)).hexdigest()[:16]


def report_digest(doc: dict) -> str:
    return hashlib.sha256(canonical({k: v for k, v in doc.items() if k != "wall_time_s"})).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# child processes


class Run:
    """One benchmark run: its work directory, child seeds and deadline."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.started = now()
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def left(self) -> float:
        return DEADLINE_S - (now() - self.started)

    def spawn(self, w: Workload, *, report: bool, build: bool, trace: bool = False, fault: Optional[str] = None) -> dict:
        """Run bench/sample.py once; returns its JSON line plus the parent's clock readings."""
        self.count += 1
        spec = {"root": str(ROOT), "argv": list(w.argv), "trace": trace, "fault": fault, "table": None, "report": None}
        if w.table_k is not None:
            spec["table"] = {"k": w.table_k, "path": str(self.workdir / "table.csv"), "build": build}
        if report:
            spec["report"] = str(self.workdir / f"report-{self.count}.json")
        cpu = self.rng.choice(self.cpus)
        # without a timed call the process builds the table, or only imports
        kind = w.probe if report else "bigint"
        env = dict(os.environ, PYTHONHASHSEED=str(self.rng.randrange(1 << 32)))
        probe = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(cpu), kind], cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            probe.stdout.readline()
            # the sample inherits the pin from its first instruction on
            os.sched_setaffinity(0, {cpu})
            t_spawn = now()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "sample.py"), json.dumps(spec)],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(self.left(), 1.0),
                )
            except subprocess.TimeoutExpired:
                return {"error": "timed out", "t_spawn": t_spawn, "t_exit": now()}
            finally:
                os.sched_setaffinity(0, self.cpus)
            t_exit = now()
            probe.send_signal(signal.SIGTERM)
            chunks = json.loads(probe.communicate(timeout=30)[0])
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        out = {"t_spawn": t_spawn, "t_exit": t_exit, "spec": spec, "cpu": cpu}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            out["error"] = f"sample exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            return out
        out.update(json.loads(lines[-1]))
        # the timed call, or the whole process when there is none (table setup)
        window = (out["t_call"], out["t_end"]) if "t_end" in out else (t_spawn, t_exit)
        inside = [dt for t, dt in chunks if window[0] <= t <= window[1]] or [dt for t, dt in chunks]
        out["core_factor"] = REF_CHUNK_S[kind] / statistics.fmean(inside)
        out["probe_median_s"] = statistics.median(inside)
        out["probe_chunks"] = len(inside)
        return out


def check_sample(w: Workload, ref: dict, sample: dict) -> tuple[int, int, list[str], list[dict]]:
    """(records expected, records failed, problems, records) for one sample."""
    wref = ref["workloads"][w.name]
    expected = wref["records"]
    n = len(expected)
    if "error" in sample:
        return n, n, [sample["error"]], []
    if w.table_k is not None and sample["table_sha256"] != ref["tables"][str(w.table_k)]:
        return n, n, [f"table CSV to k={w.table_k} differs from the reference dump"], []
    if sample["rc"] != 0:
        return n, n, [f"exit code {sample['rc']}"], []
    doc = json.loads(Path(sample["spec"]["report"]).read_text())
    records = doc["records"]
    got = {record_key(r): r for r in records}
    problems = []
    for key, digest in expected.items():
        r = got.pop(key, None)
        if r is None:
            problems.append(f"{key}: missing")
        elif not r.get("passed") or r.get("verdict", "irreducible") != "irreducible":
            problems.append(f"{key}: {r.get('verdict', 'FAIL')}")
        elif record_digest(r) != digest:
            problems.append(f"{key}: differs from reference")
    problems += [f"{key}: unexpected record" for key in got]
    if not problems and report_digest(doc) != wref["report_sha256"]:
        problems.append("report header differs from reference")
    return n, min(len(problems), n), problems, records


# ---------------------------------------------------------------------------
# measurement


def measure(w: Workload, ref: dict, run: Run, seconds: float, fault: Optional[str] = None) -> dict:
    """Untraced samples for ``seconds``; end-to-end metrics plus the record check."""
    prep_s = prep_wall_s = 0.0
    starts = []  # processes that only start and import, for a steadier setup_s
    if w.table_k is not None:
        prep = run.spawn(w, report=False, build=True, fault=fault)
        if "error" in prep:
            n = len(ref["workloads"][w.name]["records"])
            return {"attempted": n, "failed": n, "problems": [prep["error"]], "metrics": {}}
        prep_wall_s = prep["t_exit"] - prep["t_spawn"]
        prep_s = prep_wall_s * prep["core_factor"]
    else:
        starts = [run.spawn(w, report=False, build=False) for _ in range(COLD_STARTS)]
    samples, attempted, failed, problems = [], 0, 0, []
    t_begin = now()
    while True:
        s = run.spawn(w, report=True, build=False, fault=fault)
        n, f, p, _ = check_sample(w, ref, s)
        attempted, failed = attempted + n, failed + f
        problems += p
        samples.append(s)
        if "error" in s:
            break
        est = statistics.median(x["t_exit"] - x["t_spawn"] for x in samples)
        if now() - t_begin + est > seconds or run.left() < est + 5.0:
            break
    timed = [s for s in samples if "wall_s" in s]
    started = timed + [s for s in starts if "t_call" in s]
    metrics, raw = {}, {}
    if timed:
        metrics = {
            "call_s": statistics.median(s["wall_s"] * s["core_factor"] for s in timed),
            "setup_s": prep_s + statistics.median((s["t_call"] - s["t_spawn"]) * s["core_factor"] for s in started),
            "peak_rss_mb": max(s["maxrss_kb"] for s in timed) / 1024,
        }
        raw = {
            "wall_s": statistics.median(s["wall_s"] for s in timed),
            "setup_wall_s": prep_wall_s + statistics.median(s["t_call"] - s["t_spawn"] for s in started),
            "core_factor": statistics.median(s["core_factor"] for s in timed),
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "raw": raw,
        "samples": [
            {
                k: s.get(k)
                for k in ("cpu", "wall_s", "cpu_s", "steal_s", "core_factor", "probe_chunks", "probe_median_s", "maxrss_kb", "t_spawn", "t_call", "t_exit", "error")
            }
            for s in samples
        ],
    }


def measure_traced(w: Workload, ref: dict, run: Run) -> dict:
    """One traced sample (setup traced too) and one untraced one; per-layer metrics."""
    traced = run.spawn(w, report=True, build=True, trace=True)
    n, f, problems, records = check_sample(w, ref, traced)
    attempted, failed = n, f
    if "error" in traced:
        return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": {}}
    plain = run.spawn(w, report=True, build=False)
    n, f, p, _ = check_sample(w, ref, plain)
    attempted, failed, problems = attempted + n, failed + f, problems + p
    for name, want in w.implied_counts(records).items():
        got = traced["call_counts"].get(name, 0)
        attempted += 1
        if got != want:
            failed += 1
            problems.append(f"span count {name}: traced {got}, records imply {want}")
    metrics = dict(traced["layers"])
    raw = {"traced_wall_s": traced["wall_s"], "traced_core_factor": traced["core_factor"]}
    if "wall_s" in plain:
        metrics["cli.cpu_s"] = plain["cpu_s"]
        metrics["host.steal_s"] = plain["steal_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] * traced["core_factor"] - plain["wall_s"] * plain["core_factor"]
        raw["untraced_wall_s"] = plain["wall_s"]
    raw["bindings_traced"] = traced["bindings_traced"]
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics, "raw": raw}


UNITS = {"peak_rss_mb": "MB", "core_factor": "ratio", "bindings_traced": "count"}


def unit_of(name: str) -> str:
    """Unit of a metric, by the naming convention of this file and bench/spans.py."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")) or ".s." in name or ".s_" in name:
        return "s"
    if name.endswith(("_ratio", "_factor", "per_weight")):
        return "ratio"
    if name.endswith("bits_kmax"):
        return "bits"
    return "count"


def run_workload(w: Workload, ref: dict, seed: int, seconds: float, trace: bool, fault: Optional[str] = None) -> dict:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    try:
        run = Run(seed, workdir)
        result = measure_traced(w, ref, run) if trace else measure(w, ref, run, seconds, fault)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    result["workload"] = w.name
    result["fail_frac"] = result["failed"] / result["attempted"]
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for key, value in result["metrics"].items():
        print(f"{name}  {key} = {value!r} {unit_of(key)}")
    print(f"{name}  fail_frac = {result['fail_frac']!r} ({result['failed']} of {result['attempted']} records)")
    for key, value in result.get("raw", {}).items():
        print(f"{name}  {key} = {value!r} {unit_of(key)}")
    for s in result.get("samples", []):
        if s.get("wall_s") is not None:
            print(
                f"{name}  sample cpu={s['cpu']} wall_s={s['wall_s']:.3f} core_factor={s['core_factor']:.3f} "
                f"call_s={s['wall_s'] * s['core_factor']:.3f} cli.cpu_s={s['cpu_s']:.3f} "
                f"host.steal_s={s['steal_s']:.2f} probe_chunks={s['probe_chunks']} probe_median_us={s['probe_median_s'] * 1e6:.0f}"
            )
    for problem in result["problems"][:20]:
        print(f"{name}  FAIL {problem}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write the full run document as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eisen" / "cli.py").is_file():
        print(f"error: no eisen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = load_reference()
    host = host_info()
    print("host " + json.dumps(host))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], ref, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        results.append(result)
    print("loadavg " + json.dumps(list(os.getloadavg())))

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
        for r in results
        for k, v in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.out:
        doc = {"host": host, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "results": results}
        Path(args.out).write_text(json.dumps(doc, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
