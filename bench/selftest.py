"""Harness self-test at small ranges: clean runs pass and injected faults are caught.

    python3 bench/selftest.py

Uses ``scan --k-max 60`` on a warm table and ``check --lemma conjecture
--k-max 100`` cold and warm, all checked against bench/reference.json.  Expects
fail_frac = 0 for clean untraced and traced runs (the traced ones also
cross-check span counts against the records), and fail_frac > 0 when the
harness injects a fault from outside the program: a wrapper that falsifies one
DDF pattern, or a table dump with one numerator doubled at k = 36, which
the conjecture check itself still passes.  Exits 0 iff every expectation
holds.
"""

from __future__ import annotations

import sys

import run

CASES = (
    # (workload, trace, fault, fault expected to be caught)
    ("conjecture-small", False, None, False),
    ("scan-small", False, None, False),
    ("conjecture-small", True, None, False),
    ("scan-small", True, None, False),
    ("scan-small", False, "alter-pattern", True),
    ("conjecture-small-warm", False, "double-numerator", True),
)


def main() -> int:
    ref = run.load_reference()
    ok = True
    for name, trace, fault, caught in CASES:
        result = run.run_workload(run.SMALL_WORKLOADS[name], ref, 0, 1.0, trace, fault)
        good = result["fail_frac"] > 0 if caught else result["fail_frac"] == 0
        ok = ok and good
        label = f"{name} trace={int(trace)} fault={fault}"
        print(f"{'ok  ' if good else 'BAD '} {label}: fail_frac {result['failed']}/{result['attempted']}")
        for problem in result["problems"][:3]:
            print(f"       {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
