"""The repository benchmark: campaign throughput on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``fig8-cold``   — the fig8 catalog grid, serial, cold store, fresh process;
* ``fig8-resume`` — ``resume=True`` passes over a stored fig8 campaign;
* ``synth-sweep`` — 96 seeded synthetic programs × {int, int-mem, baseline};
* ``serve-mixed`` — a closed-loop client against a 2-worker ``repro serve``
  daemon, fresh 48-program synth batches alternating with resubmissions.

Every measured job runs in a fresh ``worker.py`` process beside a
``probe.py`` host-speed probe on each CPU it uses; its host seconds are
scaled to the reference host speed (see ``README.md``).  Every run checks
every row it receives (``rows.py``).  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` (rows checked and rows that errored
or mismatched) and ``metrics`` — the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import rows as rowcheck  # noqa: E402

WORKLOADS = ("fig8-cold", "fig8-resume", "synth-sweep", "serve-mixed")

#: Named held-out seed: never used while the benchmark was tuned; a later
#: performance claim must also hold on it.
HELD_OUT_SEED = 7919

#: synth-sweep size: one program from each of this many equal-size bands
#: of the pool (ordered by instruction count).
SYNTH_PROGRAMS = 96

#: serve-mixed write size: one program from each of this many bands (the
#: 48-program job the workload was specified with).
SERVE_BATCH = 48
#: Step through each (length-ordered) band between writes; coprime with
#: the band size, so a run visits every program of a band once.
SERVE_STRIDE = 7
#: Seconds one serve-mixed round (a write and a read) takes on the
#: reference host: a run makes ``--seconds / SERVE_ROUND_S`` timed rounds,
#: a fixed count for a given ``--seconds`` so that its job percentiles and
#: peak RSS compare across runs and hosts.
SERVE_ROUND_S = 1.9
#: Most timed rounds: with the warm-up round, one write per program of a
#: band (768 / 48 = 16), so no write repeats a program.
SERVE_MAX_ROUNDS = 15

#: Set-up-only worker processes a fig8-cold or synth-sweep run adds to its
#: campaigns' own set-ups, so ``setup_s`` is a median of several.
SETUP_SAMPLES = 5

#: Fewest fresh-process jobs an untraced run makes: a fig8 campaign takes
#: most of ``--seconds``, and a median of one sample is not steady.
MIN_JOBS = 2

#: Fixed traced fig8-resume work (the untraced comparison does the same).
TRACE_RESUME_PASSES = 10

#: Ceiling on any one worker process, well inside the run's time limit.
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The checkout cannot run this benchmark."""


class Run:
    """State of one benchmark invocation inside one checkout."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = os.path.join(root, ".perfbench-work", f"run-{os.getpid()}")
        self.trace_path = os.path.join(
            root, ".perfbench-traces", f"{workload}-seed{seed}.spans.tsv.gz")
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        #: Probe speed over the reference speed, one per worker.
        self.speeds: List[float] = []
        self._stores = 0

    def store(self) -> str:
        """A new, empty store directory."""
        self._stores += 1
        return os.path.join(self.workdir, f"store-{self._stores}")

    def worker(self, job: Dict[str, Any], cells: int, *,
               pin: bool = True) -> Optional[Dict[str, Any]]:
        """Run one worker process beside its speed probes; fold its row
        check into the run.

        A serial worker is pinned to one CPU with one probe on it; an
        unpinned worker (the serve daemon's pool spans both CPUs) gets a
        probe on every CPU.  The worker's times come back scaled by the
        probes' speed over the reference speed.  A worker that dies or
        times out counts all ``cells`` as failed.
        """
        cpus = sorted(os.sched_getaffinity(0))[:2]
        if pin:
            cpus = cpus[:1]
            job = dict(job, cpu=cpus[0])
        job = dict(job, root=self.root, workdir=self.workdir)
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   json.dumps(job)]
        probes = [subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu in cpus]
        # Its own process group: a worker that times out is killed with
        # every process it started (serve-mixed's daemon and its pool).
        done = subprocess.Popen(command, cwd=self.root, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = done.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_group(done)
            self._fail(cells, f"{job['kind']} worker timed out")
            return None
        finally:
            speeds = []
            for probe_process in probes:
                out, _ = probe_process.communicate(timeout=10)
                speeds.extend(json.loads(out))
        lines = stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            self._fail(cells, f"{job['kind']} worker exited "
                              f"{done.returncode}: {tail[0]}")
            return None
        result = json.loads(lines[-1])
        # Scale host seconds to the reference host speed: a slow moment
        # (probe speed < reference) shortens them, a fast one lengthens
        # them.  A job uses the samples taken while it ran; set-up, spread
        # over the worker's life, uses them all.
        speed = statistics.mean(value for _, value in speeds) \
            / probe.REFERENCE_SPEED
        self.speeds.append(speed)
        result["setup_s"] = [value * speed for value in result["setup_s"]]
        for entry in result["jobs"]:
            factor = window_speed(speeds, *entry["window"])
            entry["job_s"] *= factor
            entry["first_row_s"] *= factor
        check = result["check"]
        self.attempted += check["attempted"]
        self.failed += check["failed"]
        self.messages.extend(check["messages"])
        return result

    def _fail(self, cells: int, message: str) -> None:
        self.attempted += cells
        self.failed += cells
        self.messages.append(message)


def kill_group(process: subprocess.Popen) -> None:
    """Kill ``process``'s process group and wait until it is empty."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


#: Fewest probe samples one job's scale factor averages (two seconds of
#: one probe): a short job (a resume pass, a serve read) takes the samples
#: nearest its middle.
WINDOW_SAMPLES = 20


def window_speed(samples: List[List[float]], start: float,
                 end: float) -> float:
    """Mean probe speed over the reference speed during [start, end]; a
    window holding fewer than ``WINDOW_SAMPLES`` samples takes that many
    nearest its middle."""
    inside = [value for when, value in samples if start <= when <= end]
    if len(inside) < WINDOW_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [value for _, value in nearest[:WINDOW_SAMPLES]]
    return statistics.mean(inside) / probe.REFERENCE_SPEED


# -- workloads ---------------------------------------------------------------------


def synth_seeds(seed: int) -> List[int]:
    """The sweep's programs for ``seed``: one drawn from each band."""
    rng = random.Random(seed)
    pool = rowcheck.load_digests()["synth"]
    return [rng.choice(band)
            for band in rowcheck.bands(pool, SYNTH_PROGRAMS)]


def serve_steps(seed: int, rounds: int) -> List[Any]:
    """The seeded serve-mixed job order: ``1 + rounds`` rounds of a write
    and a read (the first round warms the daemon up).

    The writes are fixed: write k takes, from each band, the program
    ``SERVE_STRIDE * k`` places along it (wrapping), so no program repeats
    within a run and the writes sample each band evenly.  Write 0 warms up;
    the seed orders the timed writes and picks each read: it resubmits a
    write chosen uniformly among those already done.  Every seed so times
    the same work.
    """
    rng = random.Random(seed)
    pool = rowcheck.load_digests()["synth"]
    groups = rowcheck.bands(pool, SERVE_BATCH)
    size = len(groups[0])
    writes = [[band[SERVE_STRIDE * k % size] for band in groups]
              for k in range(1 + rounds)]
    timed = writes[1:]
    rng.shuffle(timed)
    steps: List[Any] = []
    for done, write in enumerate(writes[:1] + timed):
        steps.append(["write", write])
        steps.append(["read", rng.randrange(done + 1)])
    return steps


def trace_overhead(untraced: List[Dict[str, Any]],
                   traced: List[Dict[str, Any]]) -> float:
    """Traced over untraced scaled seconds per cell, minus one."""
    def per_cell(jobs: List[Dict[str, Any]]) -> float:
        return sum(job["job_s"] for job in jobs) \
            / sum(job["cells"] for job in jobs)
    return per_cell(traced) / per_cell(untraced) - 1.0


def repeat(run: Run, jobs: Iterator[Dict[str, Any]], cells: int, *,
           pin: bool = True) -> List[Dict[str, Any]]:
    """Worker jobs from ``jobs``, each in a fresh process on an empty store,
    until the run's time is spent (at least ``MIN_JOBS``).

    Traced: one job untraced, then the next traced; the traced worker
    reports the layer split.
    """
    def start(job: Dict[str, Any], **extra: Any) -> Optional[Dict[str, Any]]:
        return run.worker(dict(job, store=run.store(), **extra), cells, pin=pin)

    if run.trace:
        untraced = start(next(jobs))
        traced = start(next(jobs), trace=True, trace_out=run.trace_path)
        if untraced is None or traced is None:
            return []

        traced["layers"]["trace_overhead_frac"] = \
            trace_overhead(untraced["jobs"], traced["jobs"])
        return [untraced, traced]
    results: List[Dict[str, Any]] = []
    deadline = time.monotonic() + run.seconds
    for job in jobs:
        if len(results) >= MIN_JOBS and time.monotonic() >= deadline:
            break
        result = start(job)
        if result is None:
            break
        results.append(result)
    return results


def campaigns(run: Run, job: Dict[str, Any],
              cells: int) -> List[Dict[str, Any]]:
    """Set-up samples, then repeated cold campaigns (``repeat``); the
    set-up samples join the first campaign's ``setup_s`` list."""
    setups: List[float] = []
    if not run.trace:
        for _ in range(SETUP_SAMPLES):
            # A failed set-up counts as one failed operation.
            result = run.worker(dict(job, setup_only=True), 1)
            if result is not None:
                setups.extend(result["setup_s"])
    results = repeat(run, itertools.repeat(job), cells)
    if results:
        results[0]["setup_s"].extend(setups)
    return results


def fig8_cold(run: Run) -> List[Dict[str, Any]]:
    return campaigns(run, {"kind": "campaign", "grid": "fig8"},
                     len(rowcheck.load_digests()["fig8"]))


def synth_sweep(run: Run) -> List[Dict[str, Any]]:
    seeds = synth_seeds(run.seed)
    return campaigns(run, {"kind": "campaign", "grid": "synth",
                           "seeds": seeds},
                     len(seeds) * len(rowcheck.SYNTH_MODES))


def fig8_resume(run: Run) -> List[Dict[str, Any]]:
    """Fill a store with the fig8 campaign (set-up), then resume over it."""
    cells = len(rowcheck.load_digests()["fig8"])
    store = run.store()
    cold_rows = os.path.join(run.workdir, "fig8-cold-rows.json")
    fill = run.worker({"kind": "campaign", "grid": "fig8", "store": store,
                       "rows_out": cold_rows}, cells)
    if fill is None:
        return []
    job: Dict[str, Any] = {"kind": "resume", "store": store,
                           "cold_rows": cold_rows, "seconds": run.seconds}
    if run.trace:
        job.update(trace=True, trace_out=run.trace_path,
                   passes=TRACE_RESUME_PASSES)
    result = run.worker(job, cells)
    if result is None:
        return []
    if run.trace:
        result["layers"]["trace_overhead_frac"] = trace_overhead(
            [entry for entry in result["jobs"] if not entry["traced"]],
            [entry for entry in result["jobs"] if entry["traced"]])
    fill_s = fill["setup_s"][0] + fill["jobs"][0]["job_s"]
    result["setup_s"] = [fill_s + result["setup_s"][0]]
    return [result]


def serve_mixed(run: Run) -> List[Dict[str, Any]]:
    """One daemon on an empty store, in a fresh unpinned process (its pool
    spans both CPUs); traced, an untraced daemon first, then a traced one."""
    rounds = min(SERVE_MAX_ROUNDS, max(2, round(run.seconds / SERVE_ROUND_S)))
    job = {"kind": "serve", "steps": serve_steps(run.seed, rounds)}
    rows = SERVE_BATCH * len(rowcheck.SYNTH_MODES) * 2 * (1 + rounds)
    if run.trace:
        return repeat(run, itertools.repeat(job), rows, pin=False)
    result = run.worker(dict(job, store=run.store()), rows, pin=False)
    return [] if result is None else [result]


RUNNERS = {"fig8-cold": fig8_cold, "fig8-resume": fig8_resume,
           "synth-sweep": synth_sweep, "serve-mixed": serve_mixed}


# -- metrics -----------------------------------------------------------------------


#: Lowest percentile ``job_tail_s`` may report: with fewer jobs than it
#: takes to leave ten samples above the upper quartile, the tail is the
#: maximum (serve-mixed's 22 jobs would otherwise put "p54" in the fast
#: half of its mix).
TAIL_FLOOR = 75


def tail(values: List[float]) -> Tuple[int, float]:
    """(percentile, value) of the highest whole percentile, at least
    ``TAIL_FLOOR``, with at least ten samples above it (nearest rank); the
    maximum when there are too few."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in range(99, TAIL_FLOOR - 1, -1):
        rank = math.ceil(percentile / 100 * count)
        if count - rank >= 10:
            return percentile, ordered[rank - 1]
    return 100, ordered[-1]


def end_to_end(workload: str, results: List[Dict[str, Any]]
               ) -> Tuple[Dict[str, float], str]:
    """End-to-end metric values plus a note on how the tail was taken."""
    jobs = [job for result in results for job in result["jobs"]]
    job_s = [job["job_s"] for job in jobs]
    if workload == "serve-mixed":
        # Reads and writes differ ~8x in cost: throughput over the whole
        # closed loop, not a median of per-job rates.
        cells_per_s = sum(job["cells"] for job in jobs) / sum(job_s)
    else:
        cells_per_s = statistics.median(job["cells"] / job["job_s"]
                                        for job in jobs)
    percentile, tail_value = tail(job_s)
    metrics = {
        "setup_s": statistics.median(
            value for result in results for value in result["setup_s"]),
        "cells_per_s": cells_per_s,
        "peak_rss_mb": statistics.median(result["rss_mb"] for result in results),
        "job_p50_s": statistics.median(job_s),
        "job_tail_s": tail_value,
        "first_row_p50_s": statistics.median(job["first_row_s"]
                                             for job in jobs),
    }
    return metrics, f"job_tail_s is p{percentile} of {len(job_s)} jobs"


def load_spec(root: str) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchmarkError(f"no repro package under {root}/src; run from "
                             f"the repository root")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        raise BenchmarkError(f"no BENCHMARK.json in {root}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    try:
        check_checkout(root)
    except BenchmarkError as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.workdir, exist_ok=True)
    try:
        results = RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.workdir))
        except OSError:
            pass
    if not results:
        print("perfbench: error: no measurement completed: "
              + "; ".join(run.messages), file=sys.stderr)
        return 1
    if args.trace:
        values = next(result["layers"] for result in results
                      if "layers" in result)
        declared = spec["per_layer"]
        note = f"spans written to {os.path.relpath(run.trace_path, root)}"
    else:
        values, note = end_to_end(args.workload, results)
        declared = spec["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in declared}
    failed_frac = run.failed / run.attempted
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {run.attempted} rows checked, "
          f"{run.failed} failed (failed_frac={failed_frac:.4f}); {note}; "
          f"host speed {statistics.mean(run.speeds):.3f}x reference",
          file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    for message in run.messages:
        print(f"  mismatch: {message}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
