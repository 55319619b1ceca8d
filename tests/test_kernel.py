"""The compiled timing kernel (``uarch/_kernel.c``) against the Python kernel.

The C kernel is a port of ``batch._run_lane_python`` and must agree with it
on every :class:`~repro.uarch.stats.PipelineStats` counter and on every
error (type and message).  These tests pin that contract on the golden
workloads and the fig8 lane set, check error parity on each error path,
exercise the host-level build cache (no rebuild on reload, a new object per
source hash, concurrent builders) and the no-compiler fallback.

Tests that need a compiler skip when none is available; the fallback tests
run everywhere.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import RunSpec, Session
from repro.grid import get_grid
from repro.sim.functional import run_program
from repro.uarch import batch, ckernel
from repro.uarch.batch import (
    BatchedTimingSimulator,
    _run_lane_c,
    _run_lane_python,
    trace_facts,
)
from repro.uarch.config import (
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
)
from repro.uarch.decode import KIND_FP, decode_table
from repro.workloads import QUICK_BENCHMARKS, load_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "timing_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def kernel():
    loaded, info = ckernel.load_kernel()
    if loaded is None:
        pytest.skip(f"no C kernel: {info.reason}")
    return loaded


def _outcome(run, *args):
    try:
        return run(*args)
    except AssertionError:
        raise
    except Exception as error:  # noqa: BLE001 - errors must match too
        return (type(error).__name__, str(error))


def _c_lane(kernel, facts, config, max_cycles):
    """The lane in the C kernel itself: a declined lane fails the test
    instead of quietly running in Python."""
    stats = _run_lane_c(kernel, facts, config, max_cycles)
    assert stats is not None, \
        f"C kernel declined {facts.program.name} on {config.name}"
    return stats


def _both(kernel, facts, config, max_cycles=5_000_000):
    """(C outcome, Python outcome) for one lane."""
    return (_outcome(_c_lane, kernel, facts, config, max_cycles),
            _outcome(_run_lane_python, facts, config, max_cycles))


def _unvalidated(config, **changes):
    """``config`` with fields changed past construction-time validation."""
    changed = dataclasses.replace(config)
    for name, value in changes.items():
        object.__setattr__(changed, name, value)
    return changed


class TestEquivalence:
    @pytest.mark.parametrize("workload", sorted(GOLDEN))
    def test_golden_stats_through_both_kernels(self, kernel, workload):
        expected = GOLDEN[workload]
        session = Session()
        spec = RunSpec(benchmark=workload, budget=expected["budget"])
        lanes = [
            (trace_facts(session.program(spec), session.baseline_trace(spec)),
             spec.resolved_baseline_machine, expected["baseline"]),
            (trace_facts(session.rewritten(spec), session.minigraph_trace(spec),
                         session.mgt(spec), spec.compressed_layout),
             spec.resolved_machine, expected["minigraph"]),
        ]
        for facts, config, golden in lanes:
            c_stats, python_stats = _both(kernel, facts, config)
            assert c_stats.as_dict() == golden, f"{workload}: C kernel"
            assert python_stats.as_dict() == golden, f"{workload}: Python"

    def test_fig8_lane_set_every_counter(self, kernel, monkeypatch):
        """Every lane of a reduced-budget fig8 campaign, counter by counter."""
        lanes = []

        def record(facts, config, max_cycles, kernel=None):
            lanes.append((facts, config, max_cycles))
            return _run_lane_python(facts, config, max_cycles)

        monkeypatch.setattr(batch, "_run_lane", record)
        grid = get_grid("fig8").build(benchmarks=QUICK_BENCHMARKS, budget=600)
        with Session(workers=0) as session:
            rows = list(session.run_grid(grid, workers=0))
        assert rows and len(lanes) > 100
        for facts, config, max_cycles in lanes:
            c_stats, python_stats = _both(kernel, facts, config, max_cycles)
            assert dataclasses.asdict(c_stats) \
                == dataclasses.asdict(python_stats), \
                f"{facts.program.name} on {config.name}"

    @pytest.mark.parametrize("compressed", (False, True))
    def test_handle_traces_on_minigraph_machines(self, kernel, compressed):
        session = Session()
        spec = RunSpec(benchmark="adpcm.encode", budget=3_000)
        facts = trace_facts(session.rewritten(spec),
                            session.minigraph_trace(spec), session.mgt(spec),
                            compressed)
        for config in (integer_minigraph_config(),
                       integer_memory_minigraph_config(),
                       integer_memory_minigraph_config(collapsing=True)):
            c_stats, python_stats = _both(kernel, facts, config)
            assert c_stats == python_stats, config.name


class TestTraceFacts:
    """The gathered decode columns equal a per-entry read of the reference
    simulator's decode feed."""

    @pytest.mark.parametrize("workload", ("adpcm.encode", "bitcount"))
    def test_decode_columns_match_the_reference_feed(self, workload):
        session = Session()
        spec = RunSpec(benchmark=workload, budget=3_000)
        for program, trace, mgt in (
                (session.program(spec), session.baseline_trace(spec), None),
                (session.rewritten(spec), session.minigraph_trace(spec),
                 session.mgt(spec))):
            facts = trace_facts(program, trace, mgt)
            feed = decode_table(program, mgt).trace_feed(trace)
            sources = [op.renamed_sources for op in feed]
            expected = {
                "kind": [op.kind for op in feed],
                "latency": [op.latency for op in feed],
                "src0": [-1 if s0 is None else s0 for s0, _ in sources],
                "src1": [-1 if s1 is None else s1 for _, s1 in sources],
                "dest": [-1 if op.dest is None else op.dest for op in feed],
                "needs_dest": [int(op.needs_destination) for op in feed],
                "is_cond": [int(op.is_conditional_branch) for op in feed],
                "is_handle": [int(op.mgt_entry is not None) for op in feed],
            }
            for name, column in expected.items():
                assert getattr(facts, name).tolist() == column, name
            assert [facts.ops[index] for index in facts.index] == feed
            first_handles = list(dict.fromkeys(
                op.index for op in feed if op.mgt_entry is not None))
            assert list(facts.handle_indices) == first_handles
            assert facts.has_fp == any(kind == KIND_FP
                                       for kind in expected["kind"])
        assert facts.handle_indices, "the rewritten trace commits handles"


class TestErrorParity:
    def test_watchdog_message_and_retired_count(self, kernel):
        program = load_benchmark("bitcount", "reference")
        facts = trace_facts(program,
                            run_program(program, max_instructions=2_000).trace)
        retired = []
        for max_cycles in (0, 7, 150, 600):
            c_error, python_error = _both(kernel, facts, baseline_config(),
                                          max_cycles)
            assert c_error[0] == "TimingError"
            assert c_error == python_error
            assert c_error[1].startswith(
                f"{program.name}: exceeded {max_cycles} cycles (")
            retired.append(int(c_error[1].split("(")[1].split("/")[0]))
        assert retired[0] == 0 and retired[3] > retired[2] > 0

    def test_integer_memory_handle_without_sliding_window(self, kernel):
        session = Session()
        spec = RunSpec(benchmark="crc", budget=2_000)     # int-mem policy
        facts = trace_facts(session.rewritten(spec),
                            session.minigraph_trace(spec), session.mgt(spec))
        assert any(facts.is_handle)
        c_error, python_error = _both(kernel, facts, integer_minigraph_config())
        assert c_error == python_error
        assert c_error[0] == "TimingError"
        assert "sliding-window scheduler" in c_error[1]

    def test_predictor_and_btb_geometry_errors(self, kernel):
        program = load_benchmark("crc", "reference")
        facts = trace_facts(program,
                            run_program(program, max_instructions=500).trace)
        for changes, message in (
                ({"predictor_entries": 1000}, "power of two"),
                ({"predictor_entries": 0}, "power of two"),
                ({"btb_entries": 10, "btb_associativity": 4},
                 "multiple of the associativity")):
            config = _unvalidated(baseline_config(), **changes)
            c_error, python_error = _both(kernel, facts, config)
            assert c_error == python_error
            assert c_error[0] == "ValueError" and message in c_error[1]


class TestBuildCache:
    def test_second_load_spawns_no_compiler(self, kernel, tmp_path,
                                            monkeypatch):
        first, info = ckernel.load_kernel(tmp_path)
        assert first is not None and info.name == "c"

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiler spawned for a cached kernel")

        monkeypatch.setattr(ckernel.subprocess, "run", no_compiler)
        second, again = ckernel.load_kernel(tmp_path)
        assert second is not None and again.path == info.path
        assert [path.name for path in tmp_path.iterdir()] \
            == [Path(info.path).name]

    def test_changed_source_gets_a_new_object(self, kernel, tmp_path,
                                              monkeypatch):
        cache = tmp_path / "cache"
        _, original = ckernel.load_kernel(cache)
        edited = tmp_path / "_kernel.c"
        edited.write_bytes(ckernel.SOURCE.read_bytes()
                           + b"\n/* edited */\n")
        monkeypatch.setattr(ckernel, "SOURCE", edited)
        rebuilt, info = ckernel.load_kernel(cache)
        assert rebuilt is not None and info.path != original.path
        assert sorted(path.name for path in cache.iterdir()) \
            == sorted([Path(original.path).name, Path(info.path).name])

    def test_concurrent_builders_both_load(self, kernel, tmp_path):
        script = (
            "import sys; from pathlib import Path; "
            "from repro.uarch.ckernel import load_kernel; "
            "k, info = load_kernel(Path(sys.argv[1])); "
            "assert k is not None, info; print(info.path)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        builders = [subprocess.Popen([sys.executable, "-c", script,
                                      str(tmp_path)], env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
                    for _ in range(2)]
        outputs = [builder.communicate(timeout=120) for builder in builders]
        for builder, (stdout, stderr) in zip(builders, outputs):
            assert builder.returncode == 0, stderr.decode()
        paths = {stdout.decode().strip() for stdout, _ in outputs}
        assert len(paths) == 1
        assert [path.name for path in tmp_path.iterdir()] \
            == [Path(paths.pop()).name]        # no temporary left behind


#: ``repro`` argv (after the global options) of a serial mini grid and of
#: one ``repro run``: both time through the fused kernel.
GRID_ARGV = ["grid", "--name", "mini", "--budget", "1500", "--workers", "0"]
RUN_ARGV = ["run", "bitcount", "--budget", "1500"]


class TestStatsLine:
    def _stats_run(self, cache, capsys, argv=GRID_ARGV):
        from repro.api.cli import main

        assert main(["--cache-dir", str(cache), "--json", "--stats",
                     *argv]) == 0
        return json.loads(capsys.readouterr().out)["timing_kernel"]

    def test_names_the_kernel_that_timed_lanes(self, kernel, tmp_path,
                                               monkeypatch, capsys):
        for argv in (GRID_ARGV, RUN_ARGV):
            monkeypatch.setattr(batch, "LANES_RUN", {"c": 0, "python": 0})
            reported = self._stats_run(tmp_path / argv[0], capsys, argv)
            assert reported["name"] == "c" and reported["path"], argv
            assert reported["lanes"]["c"] > 0, argv
            assert reported["lanes"]["python"] == 0, argv

    def test_never_loads_a_kernel_to_report_it(self, tmp_path, monkeypatch,
                                               capsys):
        self._stats_run(tmp_path, capsys)          # fill the store
        monkeypatch.setattr(ckernel, "_loaded", None)
        monkeypatch.setattr(ckernel, "_info", None)
        monkeypatch.setattr(batch, "LANES_RUN", {"c": 0, "python": 0})
        reported = self._stats_run(tmp_path, capsys)   # times nothing
        assert reported == {"name": None, "path": None,
                            "reason": "not loaded",
                            "lanes": {"c": 0, "python": 0}}
        assert ckernel.kernel_info() is None


class TestFallback:
    def test_missing_compiler_one_notice_identical_stats(self, monkeypatch,
                                                         capsys):
        program = load_benchmark("fnvmix", "reference")
        trace = run_program(program, max_instructions=1_500).trace
        configs = [baseline_config(), integer_minigraph_config()]
        expected = [_run_lane_python(trace_facts(program, trace), config,
                                     5_000_000) for config in configs]
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(ckernel, "_loaded", None)
        monkeypatch.setattr(ckernel, "_info", None)
        capsys.readouterr()
        for _ in range(2):
            results = BatchedTimingSimulator(program, trace, configs).run()
            assert results == expected
        notices = capsys.readouterr().err.splitlines()
        assert notices == [
            "repro: C timing kernel unavailable (no C compiler "
            "'/nonexistent/cc' found); using the Python kernel"]
        assert ckernel.active_kernel()[1].name == "python"

    def test_fallback_info_names_the_reason(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        loaded, info = ckernel.load_kernel()
        assert loaded is None and info.name == "python"
        assert info.describe() == \
            "python (no C compiler '/nonexistent/cc' found)"

    def test_kernel_oracle_reports_skipped(self, monkeypatch):
        from repro.fuzz import SynthSpec, run_fuzz, run_oracles

        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(ckernel, "_loaded", None)
        monkeypatch.setattr(ckernel, "_info", None)
        [result] = run_oracles(SynthSpec.sample(3), oracles=("kernel",))
        assert result.ok and result.skipped
        assert "/nonexistent/cc" in result.detail
        report = run_fuzz(2, oracles=("kernel",), shrink=False)
        assert report.ok
        assert report.skipped == {"kernel": (2, result.detail)}
