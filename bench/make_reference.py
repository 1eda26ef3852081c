"""Write bench/reference.json: the digests every benchmark run is checked against.

    python3 bench/make_reference.py

Run once per workload (untraced, one sample) and records, for each report, the
SHA-256 of the JSON minus ``wall_time_s``, a 16-hex-digit digest per record
keyed by ``check:k`` (or ``k``), and the SHA-256 of each warm-start table
dump.  The committed file was taken from the seed code; regenerating it from
a later commit accepts that commit's outputs as correct, so do so only for a
change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    reference: dict = {"tables": {}, "workloads": {}}
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        for w in [*run.WORKLOADS.values(), *run.SMALL_WORKLOADS.values()]:
            r = run.Run(0, workdir)
            if w.table_k is not None:
                r.spawn(w, report=False, build=True)
            sample = r.spawn(w, report=True, build=False)
            if sample.get("rc") != 0:
                print(f"{w.name}: {sample.get('error') or sample['rc']}", file=sys.stderr)
                return 1
            doc = json.loads(Path(sample["spec"]["report"]).read_text())
            if doc["status"] != "PASS":
                print(f"{w.name}: report status {doc['status']}", file=sys.stderr)
                return 1
            if w.table_k is not None:
                reference["tables"][str(w.table_k)] = sample["table_sha256"]
            reference["workloads"][w.name] = {
                "argv": list(w.argv),
                "report_sha256": run.report_digest(doc),
                "records": {run.record_key(rec): run.record_digest(rec) for rec in doc["records"]},
            }
            print(f"{w.name}: {len(doc['records'])} records, wall {sample['wall_s']:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
