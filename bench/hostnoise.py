"""Where run-to-run spread comes from: a fixed piece of work, timed back to back.

    python3 bench/hostnoise.py [--repeats 40] [--k 300]

Builds the exact table to ``--k`` in one process ``--repeats`` times and
prints, per repeat, wall time, CPU time and host steal time (from
/proc/stat).  The work and the process are identical every time, so any
spread is the host's.  CPU time tracking wall time while steal stays near
zero means the core itself ran slower (a busy SMT sibling, shared cache or
frequency), not that the process waited; a high lag-1 autocorrelation means
the slowdown comes in phases lasting several repeats.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import ROOT
from sample import steal_seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--k", type=int, default=300)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from eisen.eisenstein import EisensteinTable

    walls = []
    for i in range(args.repeats):
        steal0, cpu0, t0 = steal_seconds(), time.process_time(), time.perf_counter()
        EisensteinTable().extend(args.k)
        wall, cpu, steal = time.perf_counter() - t0, time.process_time() - cpu0, steal_seconds() - steal0
        walls.append(wall)
        print(f"{i:3d}  wall {wall:.3f} s  cpu {cpu:.3f} s  steal {steal:.2f} s")
    q1, med, q3 = statistics.quantiles(walls, n=4)
    mean = statistics.fmean(walls)
    dev = [w - mean for w in walls]
    lag1 = sum(a * b for a, b in zip(dev, dev[1:])) / sum(d * d for d in dev)
    print(f"min {min(walls):.3f}  median {med:.3f}  max {max(walls):.3f}  iqr/median {(q3 - q1) / med:.3f}  lag-1 autocorrelation {lag1:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
