"""One benchmark sample: a fresh interpreter that times one ``eisen.cli.main`` call.

    python3 bench/sample.py '<spec as JSON>'

The spec (written by run.py) names the checkout root, the CLI arguments, the
report path and, for warm workloads, the table CSV.  Before the timed call the
process imports eisen from the checkout's ``src``, builds and dumps the table
when asked to, and hashes the table file it is about to load.  It prints one
JSON line with its clock readings (CLOCK_MONOTONIC, comparable with the
parent's), CPU time, peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def steal_seconds() -> float:
    """Host-wide steal time so far (all CPUs), read from /proc/stat; 0 where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def double_one_numerator(path: str, k: int = 36) -> None:
    """Fault for the harness self-test: double the first numerator of weight k in a dump."""
    lines = Path(path).read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == str(k):
            num, den = fields[3].split("/")
            fields[3] = f"{2 * int(num)}/{den}"
            lines[i] = ",".join(fields)
            break
    Path(path).write_text("".join(lines))


def alter_one_pattern() -> None:
    """Fault for the harness self-test: falsify the first usable DDF pattern of degree >= 2."""
    from eisen import irreducibility, replicate

    real = irreducibility.distinct_degree_pattern
    done = []

    def altered(int_coeffs, p):
        pattern = real(int_coeffs, p)
        n = len(int_coeffs) - 1
        if pattern is None or done or n < 2:
            return pattern
        done.append(p)
        return [1, n - 1] if pattern == [n] else [n]

    irreducibility.distinct_degree_pattern = altered
    replicate.distinct_degree_pattern = altered


def main(spec: dict) -> dict:
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import eisen
    from eisen import cli
    from eisen.eisenstein import EisensteinTable

    if Path(eisen.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"eisen was imported from {eisen.__file__}, not from {src}")
    out: dict = {}

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        out["bindings_traced"] = tracer.install()

    argv = list(spec["argv"])
    table = spec.get("table")
    if table:
        if table["build"]:
            EisensteinTable().extend(table["k"]).dump_csv(table["path"])
            if spec.get("fault") == "double-numerator":
                double_one_numerator(table["path"])
        out["table_sha256"] = sha256_file(table["path"])
        argv += ["--table-load", table["path"]]
    if spec.get("fault") == "alter-pattern":
        alter_one_pattern()
    gc.collect()

    out["t_call"] = now()
    if spec.get("report"):
        steal0, cpu0 = steal_seconds(), time.process_time()
        t0 = now()
        out["rc"] = cli.main(argv + ["--json", "--out", spec["report"]])
        out["t_end"] = now()
        out["wall_s"] = out["t_end"] - t0
        out["cpu_s"] = time.process_time() - cpu0
        out["steal_s"] = steal_seconds() - steal0
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"], out["call_counts"] = tracer.metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
