"""Core-speed probe: fixed chunks of work at the lowest priority on one CPU.

    python3 bench/probe.py <cpu> <kind>

Runs beside a benchmark sample pinned to the same CPU.  At nice 19 it gets
about 2% of that CPU, so it slows the sample only slightly, but each chunk it
runs sees the same core the sample sees: a busy SMT sibling or a lower clock
slows the probe's chunks as it slows the sample.  How much depends on the kind
of work, so the chunk is shaped like the workload's hot loop, from the
standard library only (never eisen code, whose speed-ups the scaling would
cancel).  It prints ``ready`` after its first chunk; on SIGTERM it prints one
JSON list of [CLOCK_MONOTONIC end time, CPU seconds] per chunk and exits.
Only chunks that ran while the sample was running count: a chunk that runs on
an otherwise idle core keeps its cache warm and runs faster than one that
shares it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from fractions import Fraction

stopped = []

X = 3**1300  # about 2060 bits, the denominators of the table near k = 446
A, B = Fraction(5**260, 7**215), Fraction(11**170, 13**160)  # about 600 bits each


def bigint_chunk(acc: dict) -> None:
    # the table build's inner loop: bigint products summed into a dict
    for i in range(32):
        key = i & 7
        acc[key] = acc.get(key, 0) + X * (X + i)


def fraction_chunk(acc: dict) -> None:
    # the selftest's Popa, q-series and closed-form loops: Fraction products
    # and sums, each normalized by a gcd
    total = Fraction(0)
    for i in range(1, 7):
        total += A * B / i
    acc[0] = total


def bigint_fraction_chunk(acc: dict) -> None:
    bigint_chunk(acc)
    fraction_chunk(acc)


#: by the kind of work the workload does.  Per sample of the selftest, times
#: scaled by the bigint chunk alone still spread by 3.6-5.7% (the selftest
#: slows less than the chunk), by the fraction chunk alone 3.9% (it slows
#: more), by both in one chunk 2.3%.
CHUNKS = {"bigint": bigint_chunk, "bigint+fraction": bigint_fraction_chunk}


def main(cpu: int, kind: str) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    signal.signal(signal.SIGTERM, lambda signum, frame: stopped.append(signum))
    chunk = CHUNKS[kind]
    acc: dict = {}
    out = []
    while not out or not stopped:
        c0 = time.process_time()
        chunk(acc)
        out.append((time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time() - c0))
        if len(out) == 1:
            print("ready", flush=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
