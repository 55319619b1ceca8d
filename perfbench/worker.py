"""One measured unit of a benchmark workload, in its own process.

``run.py`` starts ``python3 perfbench/worker.py '<job json>'`` for every
campaign and serve run, so each timed fig8-cold and synth-sweep campaign
starts from a fresh interpreter on an empty store: process-wide interning
(decode weak caches, the mini-graph template registry) cannot warm up
between timed campaigns, and the process's peak RSS belongs to one
campaign.  The worker prints one JSON object as its last stdout line.

Job kinds:

* ``campaign`` — one cold serial grid run (fig8 or a synth sweep), or with
  ``setup_only`` just its imports and grid build;
* ``resume``   — repeated ``resume=True`` fig8 passes over a filled store;
* ``serve``    — the serve-mixed client against a daemon it starts.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import rows as rowcheck  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def import_repro(root: str) -> None:
    """Make the checkout's ``src/`` importable and import the package."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.api  # noqa: F401
    import repro.grid  # noqa: F401


# -- grids ------------------------------------------------------------------------


def fig8_grid():
    """The ``fig8`` catalog grid: 16 quick benchmarks × 8 variants × 3 modes."""
    from repro.grid import get_grid
    from repro.workloads import QUICK_BENCHMARKS
    return get_grid("fig8").build(benchmarks=QUICK_BENCHMARKS,
                                  budget=rowcheck.BUDGET)


def synth_grid(seeds: Sequence[int], name: str = "synth-sweep"):
    """Pool programs × {int, int-mem, baseline} at the sweep budget."""
    from repro.api import RunSpec
    from repro.fuzz.generator import SynthSpec
    from repro.grid import Axis, GridSpec
    from repro.minigraph.policies import INTEGER_MEMORY_POLICY, INTEGER_POLICY

    policies = {"int": INTEGER_POLICY, "int-mem": INTEGER_MEMORY_POLICY,
                "baseline": None}
    names = tuple(SynthSpec.sample(seed).name for seed in seeds)

    def build(point):
        return RunSpec(benchmark=point["benchmark"], budget=rowcheck.BUDGET,
                       policy=policies[point["policy"]])

    return GridSpec(name=name, axes=(Axis("benchmark", names),
                                     Axis("policy", rowcheck.SYNTH_MODES)),
                    build=build)


# -- measurement helpers -----------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def disk_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


def timed_rows(rows_iter) -> Tuple[List[Dict[str, Any]], float, float]:
    """Drain a row stream: (row dicts, seconds to last row, to first row).

    The clock starts before the first ``next()``, which is when a lazy
    ``run_grid`` plans, submits and starts work.
    """
    start = time.perf_counter()
    first: Optional[float] = None
    rows = []
    for row in rows_iter:
        if first is None:
            first = time.perf_counter() - start
        rows.append(row)
    elapsed = time.perf_counter() - start
    return [row.as_dict() for row in rows], elapsed, \
        elapsed if first is None else first


def run_campaign(grid, store: str, *, resume: bool = False,
                 tracer: Optional[Tracer] = None
                 ) -> Tuple[List[Dict[str, Any]], float, float]:
    """One serial ``Session.run_grid`` over ``grid`` with a fresh Session."""
    from repro.api import Session

    with tracer.window() if tracer is not None else nullcontext():
        start = time.perf_counter()
        with Session(cache_dir=store, workers=0) as session:
            rows, _, first = timed_rows(
                session.run_grid(grid, workers=0, resume=resume))
        elapsed = time.perf_counter() - start
    return rows, elapsed, first


def job_entry(elapsed: float, first: float, cells: int,
              **extra: Any) -> Dict[str, Any]:
    """One timed job; ``window`` (perf_counter, shared by every process on
    the host) lets run.py scale it by the probe samples taken meanwhile."""
    end = time.perf_counter()
    return dict(extra, job_s=elapsed, first_row_s=first, cells=cells,
                window=[end - elapsed, end])


def _layers(tracer: Tracer, store: str,
            rows: List[Dict[str, Any]]) -> Dict[str, float]:
    return layer_metrics(
        tracer, disk_bytes=disk_bytes(store), rows=len(rows),
        resumed_rows=sum(1 for row in rows if row["resumed"]))


# -- job kinds ---------------------------------------------------------------------


def job_campaign(job: Dict[str, Any]) -> Dict[str, Any]:
    """One cold campaign on an empty store (fig8 or a synth sweep); with
    ``setup_only``, just its set-up (imports and grid build)."""
    import_repro(job["root"])
    grid = fig8_grid() if job["grid"] == "fig8" else synth_grid(job["seeds"])
    setup_s = time.perf_counter() - _STARTED
    if job.get("setup_only"):
        return {"setup_s": [setup_s], "jobs": [], "rss_mb": peak_rss_mb(),
                "check": rowcheck.RowCheck().as_dict()}
    tracer = Tracer().install() if job.get("trace") else None
    rows, elapsed, first = run_campaign(grid, job["store"], tracer=tracer)
    entry = job_entry(elapsed, first, len(rows))
    check = rowcheck.RowCheck()
    digests = rowcheck.load_digests()
    if job["grid"] == "fig8":
        check.check_fig8(rows, digests["fig8"])
    else:
        check.check_synth(rows, digests["synth"], job["seeds"])
    if job.get("rows_out"):
        with open(job["rows_out"], "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
    result: Dict[str, Any] = {
        "setup_s": [setup_s],
        "jobs": [entry],
        "rss_mb": peak_rss_mb(), "check": check.as_dict()}
    if tracer is not None:
        tracer.close()
        tracer.write(job["trace_out"])
        result["layers"] = _layers(tracer, job["store"], rows)
    return result


def job_resume(job: Dict[str, Any]) -> Dict[str, Any]:
    """Resumed fig8 passes over the filled store: key hashing + store reads.

    Untraced: passes until the deadline.  Traced: ``passes`` untraced
    passes, then the same number traced (flagged ``traced``).
    """
    import_repro(job["root"])
    grid = fig8_grid()
    setup_s = time.perf_counter() - _STARTED
    with open(job["cold_rows"], encoding="utf-8") as handle:
        reference = {row["index"]: {k: v for k, v in row.items()
                                    if k != "resumed"}
                     for row in json.load(handle)}
    check = rowcheck.RowCheck()
    jobs: List[Dict[str, Any]] = []

    def one_pass(tracer: Optional[Tracer]) -> None:
        rows, elapsed, first = run_campaign(grid, job["store"], resume=True,
                                            tracer=tracer)
        jobs.append(job_entry(elapsed, first, len(rows),
                              traced=tracer is not None))
        check.check_replay(rows, reference)

    result: Dict[str, Any] = {"setup_s": [setup_s]}
    if not job.get("trace"):
        deadline = time.monotonic() + job["seconds"]
        while not jobs or time.monotonic() < deadline:
            one_pass(None)
    else:
        for _ in range(job["passes"]):
            one_pass(None)
        tracer = Tracer().install()
        for _ in range(job["passes"]):
            one_pass(tracer)
        tracer.close()
        tracer.write(job["trace_out"])
        cells = sum(entry["cells"] for entry in jobs if entry["traced"])
        result["layers"] = layer_metrics(
            tracer, disk_bytes=disk_bytes(job["store"]), rows=cells,
            resumed_rows=cells)
    result.update(jobs=jobs, rss_mb=peak_rss_mb(), check=check.as_dict())
    return result


def job_serve(job: Dict[str, Any]) -> Dict[str, Any]:
    """serve-mixed: a closed loop of one client against a fresh 2-worker
    ``repro serve`` daemon on an empty store, in a process of its own as a
    deployed daemon runs (so the client shares no interpreter lock with it).

    ``job["steps"]`` is the seeded job order, rounds of a write and a read:
    ``["write", [seeds]]`` submits a fresh synth batch; ``["read", k]``
    resubmits the k-th write, which the store answers.  The first round
    warms the forked workers and counts as set-up, with the imports and the
    daemon start; the other rounds are timed.
    """
    import_repro(job["root"])
    from repro.api import Session
    from repro.serve.client import ServeClient

    # Relative to the checkout (the cwd of both processes): AF_UNIX paths
    # are limited to ~107 bytes, and the checkout's own path may be long.
    socket_path = os.path.relpath(os.path.join(job["workdir"], "serve.sock"),
                                  job["root"])
    pool = rowcheck.load_digests()["synth"]
    check = rowcheck.RowCheck()
    tracer = Tracer().install() if job.get("trace") else None
    writes: List[Tuple[Any, Dict[int, Dict[str, Any]]]] = []
    jobs: List[Dict[str, Any]] = []
    rows_seen: List[Dict[str, Any]] = []
    setup_s = 0.0
    src = os.path.join(job["root"], "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "--cache-dir", job["store"], "serve",
         "start", "--socket", socket_path, "--workers", "2"],
        cwd=job["root"], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        ServeClient(socket_path, retry_connect=30.0).close()
        with Session(remote=socket_path) as session:
            for position, (kind, arg) in enumerate(job["steps"]):
                if position == 2:
                    setup_s = time.perf_counter() - _STARTED
                measured = position >= 2
                grid = synth_grid(arg, name=f"serve-{len(writes)}") \
                    if kind == "write" else writes[arg][0]
                window = tracer.window() if tracer is not None and measured \
                    else nullcontext()
                with window:
                    rows, elapsed, first = timed_rows(
                        session.run_grid(grid, resume=True))
                if kind == "write":
                    check.check_synth(rows, pool, arg)
                    writes.append((grid, {
                        row["index"]: {k: v for k, v in row.items()
                                       if k != "resumed"} for row in rows}))
                else:
                    check.check_replay(rows, writes[arg][1])
                if measured:
                    jobs.append(job_entry(elapsed, first, len(rows),
                                          kind=kind))
                    rows_seen.extend(rows)
    finally:
        daemon.send_signal(signal.SIGTERM)        # drain and exit
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    result: Dict[str, Any] = {"setup_s": [setup_s], "jobs": jobs,
                              "rss_mb": peak_rss_mb(),
                              "check": check.as_dict()}
    if tracer is not None:
        tracer.close()
        tracer.write(job["trace_out"])
        result["layers"] = _layers(tracer, job["store"], rows_seen)
    return result


JOB_KINDS = {"campaign": job_campaign, "resume": job_resume,
             "serve": job_serve}


def main(argv: Sequence[str]) -> int:
    job = json.loads(argv[0])
    if "cpu" in job:
        os.sched_setaffinity(0, {job["cpu"]})
    result = JOB_KINDS[job["kind"]](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
