"""Host-speed probe: how fast this CPU runs interpreter-bound code right now.

On a shared host the speed of one CPU drifts by ±25% over seconds to
minutes as neighbours load the machine, which swamps any change a patch
makes.  ``run.py`` therefore runs one probe on each CPU a measured worker
uses, for the worker's whole life.  The probe wakes every ``PERIOD_S``,
runs a fixed pure-Python kernel (dict, tuple and string churn, like the
simulator's inner loops, and sharing no code with it) for ``SLICE_S`` of
wall-clock, and records kernel iterations per second *of its own CPU time*
(``time.thread_time``).  The worker's times are scaled by the probe's mean
speed over ``REFERENCE_SPEED``.

CPU time, not wall-clock, because the probe competes with the worker for
its CPU: time the scheduler gives the worker instead does not count, so
the reading does not depend on how busy the worker keeps the CPU.  Beside
a spinning neighbour it read 0.88–1.21 (median 0.96) of its reading
beside a sleeping one, within the host's drift between trials; a
wall-clock rate read 0.45–0.64.  So a program that idles more or less (the
serve-mixed client waits on a socket) does not move its own scale factor.

Usage: ``python3 probe.py <cpu>``; close its stdin to stop it, and it
prints its samples as one JSON list of ``[perf_counter, speed]`` pairs
(``perf_counter`` is the host-wide monotonic clock on Linux, so the times
compare with the worker's).
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

PERIOD_S = 0.1
SLICE_S = 0.01

#: Kernel iterations per CPU-second on the reference host (the 2-vCPU Xeon
#: KVM guest the benchmark was tuned on), so scaled times stay close to
#: that host's seconds.
REFERENCE_SPEED = 7000.0


def kernel() -> int:
    table = {}
    total = 0
    for i in range(400):
        key = (i & 63, i >> 3)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + sorted(table.values())[-1]


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    speeds = []
    while True:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        count = 0
        while time.perf_counter() - start < SLICE_S:
            kernel()
            count += 1
        end = time.perf_counter()
        cpu_seconds = time.thread_time() - cpu_start
        if cpu_seconds > 0:
            speeds.append([(start + end) / 2, count / cpu_seconds])
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S - SLICE_S)
        if ready:       # the parent closed stdin: stop
            break
    print(json.dumps(speeds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
