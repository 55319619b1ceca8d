#!/usr/bin/env python3
"""Same-host gate: the fused timing kernels against the reference model.

Builds the fig8 lane set — every (decoded trace, machine) timing lane of the
``fig8`` grid over the quick benchmarks — then runs every lane through the
reference :class:`~repro.uarch.pipeline.TimingSimulator` once, through the
Python kernel once and through the C kernel itself (best of ``REPEATS``),
in this one process on this one machine.  It fails when

* the C kernel declines any lane (it would have run in Python),
* any lane's outcome — its :class:`~repro.uarch.stats.PipelineStats` on
  every counter, or its error type and message — differs between the
  reference, the Python kernel and the C kernel,
* the Python kernel is less than ``MIN_PYTHON_SPEEDUP`` times faster than
  the reference, or
* the C kernel is less than ``MIN_C_SPEEDUP`` times faster than the Python
  kernel.

The ratios are measured here, not compared with committed numbers, so the
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
from repro.uarch.pipeline import TimingSimulator  # noqa: E402
from repro.workloads import QUICK_BENCHMARKS  # noqa: E402

#: fig8 grid budget of the lane set.
BUDGET = 8000
#: Required Python-kernel-over-reference speedup.
MIN_PYTHON_SPEEDUP = 1.5
#: Required C-over-Python-kernel speedup.
MIN_C_SPEEDUP = 5.0
#: C kernel timing repeats; the best is taken.
REPEATS = 3
#: Cycle watchdog of every lane, in all three engines.
MAX_CYCLES = 5_000_000


def fig8_lanes(budget: int):
    """Distinct timing lanes of the fig8 grid: one ``(inputs, facts,
    machine)`` each, ``inputs`` being ``(program, trace, mgt,
    compressed_layout)``."""
    grid = get_grid("fig8").build(benchmarks=QUICK_BENCHMARKS, budget=budget)
    session = Session(workers=0)
    lanes = {}
    for cell in grid.cells():
        spec = cell.spec
        baseline = (session.program(spec), session.baseline_trace(spec),
                    None, False)
        machines = [(baseline, spec.resolved_baseline_machine)]
        if spec.policy is None:
            machines.append((baseline, spec.resolved_machine))
        else:
            machines.append(((session.rewritten(spec),
                              session.minigraph_trace(spec),
                              session.mgt(spec), spec.compressed_layout),
                             spec.resolved_machine))
        for inputs, config in machines:
            facts = trace_facts(*inputs)
            lanes.setdefault((id(facts), config.resolve().key),
                             (inputs, facts, config))
    return list(lanes.values())


def outcome(run, *args):
    try:
        return run(*args)
    except Exception as error:  # noqa: BLE001 - errors must match too
        return (type(error).__name__, str(error))


def reference(inputs, config):
    program, trace, mgt, compressed = inputs
    return TimingSimulator(program, trace, config, mgt=mgt,
                           compressed_layout=compressed
                           ).run(max_cycles=MAX_CYCLES)


def main() -> int:
    kernel, info = load_kernel()
    if kernel is None:
        print(f"check_kernel: no C kernel: {info.reason}", file=sys.stderr)
        return 1
    lanes = fig8_lanes(BUDGET)

    started = time.perf_counter()
    expected = [outcome(reference, inputs, config)
                for inputs, _, config in lanes]
    reference_s = time.perf_counter() - started

    started = time.perf_counter()
    python = [outcome(_run_lane_python, facts, config, MAX_CYCLES)
              for _, facts, config in lanes]
    python_s = time.perf_counter() - started

    c_s = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        got = [outcome(_run_lane_c, kernel, facts, config, MAX_CYCLES)
               for _, facts, config in lanes]
        c_s = min(c_s, time.perf_counter() - started)

    def lane_name(lane):
        _, facts, config = lane
        return f"{facts.program.name} on {config.name}"

    declined = [lane_name(lane) for lane, result in zip(lanes, got)
                if result is None]
    mismatches = [lane_name(lane)
                  for lane, want, py, c in zip(lanes, expected, python, got)
                  if not want == py == c]
    python_speedup = reference_s / python_s if python_s > 0 else float("inf")
    c_speedup = python_s / c_s if c_s > 0 else float("inf")
    print(f"kernel        : {info.describe()}")
    print(f"fig8 lanes    : {len(lanes)} at budget {BUDGET}")
    print(f"reference     : {reference_s:.3f}s (TimingSimulator)")
    print(f"python kernel : {python_s:.3f}s "
          f"({python_speedup:.2f}x reference, gate >= "
          f"{MIN_PYTHON_SPEEDUP:g}x)")
    print(f"c kernel      : {c_s:.3f}s best of {REPEATS} "
          f"({c_speedup:.1f}x python, gate >= {MIN_C_SPEEDUP:g}x)")
    print(f"declined      : {len(declined)}")
    for lane in declined[:10]:
        print(f"  {lane}")
    print(f"mismatches    : {len(mismatches)}")
    for lane in mismatches[:10]:
        print(f"  {lane}")
    failures = []
    if declined:
        failures.append("C kernel declined lanes")
    if mismatches:
        failures.append("reference, Python and C kernels disagree")
    if python_speedup < MIN_PYTHON_SPEEDUP:
        failures.append("Python kernel below the speedup gate")
    if c_speedup < MIN_C_SPEEDUP:
        failures.append("C kernel below the speedup gate")
    for failure in failures:
        print(f"check_kernel: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("check_kernel: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
