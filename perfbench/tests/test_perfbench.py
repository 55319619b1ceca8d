"""The benchmark's own tests.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import rows as rowcheck  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

worker.import_repro(ROOT)

#: One fig8 benchmark: 24 of the recorded fig8 cells, about a second.
SMALL = ("bitcount",)


def small_fig8():
    from repro.grid import get_grid
    return get_grid("fig8").build(benchmarks=SMALL, budget=rowcheck.BUDGET)


def small_digests():
    """The recorded digests of the ``SMALL`` fig8 cells."""
    return {key: digest
            for key, digest in rowcheck.load_digests()["fig8"].items()
            if key.split("|")[0] in SMALL}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A filled store plus the cold rows of the small fig8 grid."""
    store = str(tmp_path_factory.mktemp("store"))
    rows, _, _ = worker.run_campaign(small_fig8(), store)
    return store, rows


def test_cold_rows_match_recorded_digests(cold):
    _, rows = cold
    check = rowcheck.RowCheck()
    check.check_fig8(rows, small_digests())
    assert check.attempted == len(rows) == 24
    assert check.failed == 0


@pytest.mark.parametrize("field,value", [("cycles", 1), ("ipc", 1e-9),
                                         ("coverage", 0.5)])
def test_perturbed_row_counts_as_failed(cold, field, value):
    _, rows = cold
    perturbed = [dict(row) for row in rows]
    perturbed[3][field] = (perturbed[3][field] or 0) + value
    check = rowcheck.RowCheck()
    check.check_fig8(perturbed, small_digests())
    assert (check.attempted, check.failed) == (24, 1)
    replay = rowcheck.RowCheck()
    reference = {row["index"]: {k: v for k, v in row.items() if k != "resumed"}
                 for row in rows}
    replay.check_replay([dict(row, resumed=True) for row in perturbed],
                        reference)
    assert (replay.attempted, replay.failed) == (24, 1)


def test_duplicated_and_dropped_rows_count_as_failed(cold):
    _, rows = cold
    reference = {row["index"]: {k: v for k, v in row.items() if k != "resumed"}
                 for row in rows}
    swapped = rows[:-1] + [rows[0]]          # row 0 twice, the last one gone
    check = rowcheck.RowCheck()
    check.check_fig8(swapped, small_digests())
    assert (check.attempted, check.failed) == (25, 2)
    replay = rowcheck.RowCheck()
    replay.check_replay([dict(row, resumed=True) for row in swapped],
                        reference)
    assert (replay.attempted, replay.failed) == (25, 2)
    short = rowcheck.RowCheck()
    short.check_fig8(rows[:20], small_digests())
    assert (short.attempted, short.failed) == (24, 4)


def test_synth_rows_of_programs_not_asked_for_fail():
    pool = rowcheck.load_digests()["synth"]
    seed = int(next(iter(pool)))
    rows = [{"point": {"benchmark": f"synth:v1-s{seed}-x", "policy": mode}}
            for mode in rowcheck.SYNTH_MODES]
    check = rowcheck.RowCheck()
    check.check_synth(rows, pool, [seed + 1])
    assert (check.attempted, check.failed) == (6, 6)


def test_recomputed_row_fails_the_replay_check(cold):
    _, rows = cold
    reference = {row["index"]: {k: v for k, v in row.items() if k != "resumed"}
                 for row in rows}
    check = rowcheck.RowCheck()
    check.check_replay(rows, reference)      # cold rows: resumed=False
    assert check.failed == len(rows)


def test_layer_self_times_never_exceed_traced_time(tmp_path):
    tracer = Tracer().install()
    try:
        rows, elapsed, _ = worker.run_campaign(small_fig8(), str(tmp_path),
                                               tracer=tracer)
    finally:
        tracer.close()
    assert tracer.window_seconds >= elapsed > 0
    for name, seconds in tracer.self_time.items():
        assert 0 <= seconds <= tracer.window_seconds, name
    assert tracer.attributed_seconds <= tracer.window_seconds
    metrics = layer_metrics(tracer, disk_bytes=1, rows=len(rows),
                            resumed_rows=0)
    assert metrics["unattributed_s"] >= 0
    layer_seconds = {name: value for name, value in metrics.items()
                     if name.endswith("_s") and not name.endswith("_per_s")
                     and name != "unattributed_s"}
    assert max(layer_seconds, key=layer_seconds.get) == "uarch.timing_s"
    assert metrics["uarch.passes"] > 0 and metrics["sim.calls"] > 0
    # Spans land in memory and are written once, at the end.
    path = tmp_path / "spans.tsv.gz"
    tracer.write(str(path))
    assert path.stat().st_size > 0


def test_tracer_restores_every_entry_point():
    from repro.api import keys, session
    from repro.api.store import ArtifactStore

    before = (keys.content_hash, session.content_hash, ArtifactStore.get)
    Tracer().install().close()
    assert (keys.content_hash, session.content_hash, ArtifactStore.get) \
        == before


def test_tracer_refuses_a_missing_entry_point(monkeypatch):
    import tracer
    from repro.api import keys

    before = keys.content_hash
    monkeypatch.setattr(tracer, "LAYER_CALLS", tracer.LAYER_CALLS + (
        ("uarch.timing", "repro.uarch.batch", "gone_entry_point"),))
    with pytest.raises(tracer.MissingEntryPoint, match="gone_entry_point"):
        Tracer().install()
    assert keys.content_hash is before


def test_resume_pass_records_no_simulation(cold):
    store, rows = cold
    reference = {row["index"]: {k: v for k, v in row.items() if k != "resumed"}
                 for row in rows}
    tracer = Tracer().install()
    try:
        resumed, _, _ = worker.run_campaign(small_fig8(), store, resume=True,
                                            tracer=tracer)
    finally:
        tracer.close()
    check = rowcheck.RowCheck()
    check.check_replay(resumed, reference)
    assert check.failed == 0
    metrics = layer_metrics(tracer, disk_bytes=1, rows=len(resumed),
                            resumed_rows=len(resumed))
    for name in ("uarch.timing_s", "uarch.passes", "uarch.lanes", "sim.calls",
                 "sim.profile_s", "sim.trace_s", "minigraph.select_calls"):
        assert metrics[name] == 0, name
    assert metrics["grid.cell_key_calls"] == len(rows)
    assert metrics["api.store.hit_rate"] == 1.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    results = [{"setup_s": [1.0, 2.0], "rss_mb": 3.0,
                "jobs": [{"job_s": 1.0, "first_row_s": 0.5, "cells": 4}]}]
    values, _ = run.end_to_end("fig8-cold", results)
    assert set(values) == {entry["name"] for entry in spec["end_to_end"]}
    layers = layer_metrics(Tracer(), disk_bytes=0, rows=0, resumed_rows=0)
    layers["trace_overhead_frac"] = run.trace_overhead(
        results[0]["jobs"], results[0]["jobs"])
    assert set(layers) == {entry["name"] for entry in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(200)]) == (95, 189.0)
    assert run.tail([2.0, 1.0]) == (100, 2.0)
    assert run.tail([float(i) for i in range(22)]) == (100, 21.0)
    assert run.tail([float(i) for i in range(45)]) == (77, 34.0)


def test_seed_drives_synth_and_serve_inputs():
    assert run.synth_seeds(1) == run.synth_seeds(1)
    assert run.synth_seeds(1) != run.synth_seeds(2)
    assert len(set(run.synth_seeds(1))) == run.SYNTH_PROGRAMS
    steps = run.serve_steps(5, 8)
    assert steps == run.serve_steps(5, 8) != run.serve_steps(6, 8)
    assert [kind for kind, _ in steps] == ["write", "read"] * 9
    writes = [arg for kind, arg in steps if kind == "write"]
    assert all(len(write) == run.SERVE_BATCH for write in writes)
    written = [seed for write in writes for seed in write]
    assert len(written) == len(set(written))
    # The seed orders a fixed set of timed writes after a fixed warm-up
    # write: every seed times the same work.
    other = [arg for kind, arg in run.serve_steps(6, 8) if kind == "write"]
    assert writes[0] == other[0]
    assert sorted(written) == sorted(seed for arg in other for seed in arg)
    assert all(arg <= position // 2
               for position, (kind, arg) in enumerate(steps) if kind == "read")
    longest = [seed for kind, arg in run.serve_steps(1, run.SERVE_MAX_ROUNDS)
               if kind == "write" for seed in arg]
    assert len(longest) == len(set(longest))


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                     capsys):
    (tmp_path / "BENCHMARK.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fig8-cold", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
