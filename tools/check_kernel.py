#!/usr/bin/env python3
"""Same-host gate: the compiled timing kernel against the Python kernel.

Builds the fig8 lane set — every (decoded trace, machine) timing lane of the
``fig8`` grid over the quick benchmarks — then runs every lane through the
Python kernel once and through the C kernel itself (best of ``REPEATS``),
in this one process on this one machine.  It fails when

* the C kernel declines any lane (it would have run in Python),
* any lane's :class:`~repro.uarch.stats.PipelineStats` differ between the
  kernels on any counter (or their errors differ), or
* the C kernel is less than ``MIN_SPEEDUP`` times faster.

The ratio is measured here, not compared with a committed number, so the
gate means the same on any host.  Usage::

    PYTHONPATH=src python tools/check_kernel.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import Session  # noqa: E402
from repro.grid import get_grid  # noqa: E402
from repro.uarch.batch import _run_lane_c, _run_lane_python, trace_facts  # noqa: E402
from repro.uarch.ckernel import load_kernel  # noqa: E402
from repro.workloads import QUICK_BENCHMARKS  # noqa: E402

#: fig8 grid budget of the lane set.
BUDGET = 8000
#: Required C-over-Python speedup.
MIN_SPEEDUP = 5.0
#: C kernel timing repeats; the best is taken.
REPEATS = 3


def fig8_lanes(budget: int):
    """Distinct (facts, machine) timing lanes of the fig8 grid."""
    grid = get_grid("fig8").build(benchmarks=QUICK_BENCHMARKS, budget=budget)
    session = Session(workers=0)
    lanes = {}
    for cell in grid.cells():
        spec = cell.spec
        baseline = trace_facts(session.program(spec),
                               session.baseline_trace(spec))
        machines = [(baseline, spec.resolved_baseline_machine)]
        if spec.policy is None:
            machines.append((baseline, spec.resolved_machine))
        else:
            facts = trace_facts(session.rewritten(spec),
                                session.minigraph_trace(spec),
                                session.mgt(spec), spec.compressed_layout)
            machines.append((facts, spec.resolved_machine))
        for facts, config in machines:
            lanes.setdefault((id(facts), config.resolve().key),
                             (facts, config))
    return list(lanes.values())


def outcome(run, *args):
    try:
        return run(*args)
    except Exception as error:  # noqa: BLE001 - errors must match too
        return (type(error).__name__, str(error))


def main() -> int:
    kernel, info = load_kernel()
    if kernel is None:
        print(f"check_kernel: no C kernel: {info.reason}", file=sys.stderr)
        return 1
    lanes = fig8_lanes(BUDGET)
    max_cycles = 5_000_000

    started = time.perf_counter()
    expected = [outcome(_run_lane_python, facts, config, max_cycles)
                for facts, config in lanes]
    python_s = time.perf_counter() - started

    c_s = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        got = [outcome(_run_lane_c, kernel, facts, config, max_cycles)
               for facts, config in lanes]
        c_s = min(c_s, time.perf_counter() - started)

    declined = [f"{facts.program.name} on {config.name}"
                for (facts, config), result in zip(lanes, got)
                if result is None]
    mismatches = [f"{facts.program.name} on {config.name}"
                  for (facts, config), a, b in zip(lanes, expected, got)
                  if a != b]
    speedup = python_s / c_s if c_s > 0 else float("inf")
    print(f"kernel        : {info.describe()}")
    print(f"fig8 lanes    : {len(lanes)} at budget {BUDGET}")
    print(f"python kernel : {python_s:.3f}s")
    print(f"c kernel      : {c_s:.3f}s (best of {REPEATS})")
    print(f"speedup       : {speedup:.1f}x (gate >= {MIN_SPEEDUP:g}x)")
    print(f"declined      : {len(declined)}")
    for lane in declined[:10]:
        print(f"  {lane}")
    print(f"mismatches    : {len(mismatches)}")
    for lane in mismatches[:10]:
        print(f"  {lane}")
    if declined:
        print("check_kernel: FAIL: C kernel declined lanes", file=sys.stderr)
        return 1
    if mismatches:
        print("check_kernel: FAIL: kernels disagree", file=sys.stderr)
        return 1
    if speedup < MIN_SPEEDUP:
        print("check_kernel: FAIL: C kernel below the speedup gate",
              file=sys.stderr)
        return 1
    print("check_kernel: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
