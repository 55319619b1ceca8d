"""The fused timing kernel against the reference ``TimingSimulator``.

Every timing run goes through the fused kernel (``simulate_program`` and
``BatchedTimingSimulator`` share one admission-and-run step); the
object-model ``TimingSimulator`` is the reference it must reproduce bit for
bit.  These tests pin that promise beyond the golden workloads (which
``tests/test_golden_stats.py`` checks for both engines): per-lane equality
across the full divergent-geometry machine catalog, per-lane admission-error
isolation (one ``fp_units=0`` lane must not cost its siblings their
statistics), ``from_lanes`` lists that mix traces, and ``--resume`` interop
between row artifacts produced under the C and the Python kernel, in both
directions.
"""

import dataclasses

import pytest

from repro import prepare_minigraph_run
from repro.api import RunSpec, Session
from repro.sim.functional import run_program
from repro.uarch import batch as batch_module, ckernel
from repro.uarch.batch import BatchedTimingSimulator, TimingLane
from repro.uarch.catalog import machine_config, machine_names
from repro.uarch.config import ConfigError, baseline_config
from repro.uarch.pipeline import TimingError, TimingSimulator, simulate_program
from repro.workloads import load_benchmark

BUDGET = 3_000


def _stats_equal(a, b) -> bool:
    return dataclasses.asdict(a) == dataclasses.asdict(b)


def _reference(program, trace, config, **kwargs):
    """The reference model's statistics for one lane."""
    return TimingSimulator(program, trace, config, **kwargs).run()


def _reference_outcomes(program, trace, configs, *, simulate=_reference,
                        **kwargs):
    """Lane outcomes — stats, or the (type, message) of the error — of the
    reference model, or of ``simulate`` (e.g. ``simulate_program``)."""
    outcomes = []
    for config in configs:
        try:
            outcomes.append(simulate(program, trace, config, **kwargs))
        except (ConfigError, TimingError) as error:
            outcomes.append((type(error).__name__, str(error)))
    return outcomes


class TestCatalogEquivalence:
    """Every catalog machine over one trace, against the reference.

    (Test names say "scalar" for the reference ``TimingSimulator``.)
    """

    def test_baseline_trace_all_catalog_machines(self):
        program = load_benchmark("bitcount", "reference")
        trace = run_program(program, max_instructions=BUDGET).trace
        configs = [machine_config(name) for name in machine_names()]
        expected = _reference_outcomes(program, trace, configs)
        batch = BatchedTimingSimulator(program, trace, configs)
        results = batch.run()
        assert not batch.lane_errors
        for lane, expect in enumerate(expected):
            assert _stats_equal(results[lane], expect), \
                f"lane {lane} ({configs[lane].name}) diverged from reference"

    @pytest.mark.parametrize("compressed", (False, True))
    def test_minigraph_trace_lane_errors_match_scalar(self, compressed):
        """Handle-bearing traces: stats and per-lane errors both match."""
        program = load_benchmark("crc", "reference")
        run = prepare_minigraph_run(program, budget=BUDGET)
        configs = [machine_config(name) for name in machine_names()]
        expected = _reference_outcomes(run.rewritten,
                                       run.rewritten_result.trace, configs,
                                       mgt=run.mgt,
                                       compressed_layout=compressed)
        batch = BatchedTimingSimulator(run.rewritten,
                                       run.rewritten_result.trace, configs,
                                       mgt=run.mgt,
                                       compressed_layout=compressed)
        results = batch.run()
        # The catalog mixes handle-capable and plain machines, so some lanes
        # must reject the handle trace — exactly as the reference does.
        assert any(isinstance(item, tuple) for item in expected)
        _assert_lanes_match(batch, results, expected, configs)
        # simulate_program, lane by lane, gives the same outcomes.
        assert _reference_outcomes(run.rewritten, run.rewritten_result.trace,
                                   configs, simulate=simulate_program,
                                   mgt=run.mgt,
                                   compressed_layout=compressed) == expected


def _assert_lanes_match(batch, results, expected, configs):
    """Each lane's stats or recorded error equals its reference outcome."""
    for lane, expect in enumerate(expected):
        error = batch.lane_errors.get(lane)
        if isinstance(expect, tuple):
            assert error is not None, \
                f"lane {lane} should have raised {expect[0]}"
            assert (type(error).__name__, str(error)) == expect
        else:
            assert error is None, f"lane {lane}: unexpected {error!r}"
            assert _stats_equal(results[lane], expect), \
                f"lane {lane} ({configs[lane].name}) diverged from reference"


class TestAdmissionIsolation:
    """One inadmissible lane raises for itself without poisoning siblings."""

    def _fp_program(self):
        from repro.fuzz.generator import SynthSpec, generate_program
        spec = SynthSpec.sample(1004).with_dials(fp_density=40)
        program = generate_program(spec, "reference")
        trace = run_program(program, max_instructions=10_000).trace
        return program, trace

    def test_fp_units_zero_lane_errors_alone(self):
        program, trace = self._fp_program()
        good = baseline_config()
        bad = dataclasses.replace(good, name="fp-less", fp_units=0)
        batch = BatchedTimingSimulator(program, trace, [good, bad, good])
        results = batch.run()
        assert set(batch.lane_errors) == {1}
        error = batch.lane_errors[1]
        assert isinstance(error, ConfigError)
        # The error is the reference admission error, verbatim, and
        # simulate_program raises it too.
        with pytest.raises(ConfigError) as reference_error:
            TimingSimulator(program, trace, bad)
        assert str(error) == str(reference_error.value)
        with pytest.raises(ConfigError) as fused_error:
            simulate_program(program, trace, bad)
        assert str(fused_error.value) == str(reference_error.value)
        reference = _reference(program, trace, good)
        assert _stats_equal(results[0], reference)
        assert _stats_equal(results[2], reference)


class TestCrossTraceKernel:
    """``from_lanes`` lists mixing traces: each lane matches its reference."""

    def test_mixed_trace_catalog_matrix(self):
        # The catalog equivalence matrix over two traces: bitcount's
        # baseline trace and crc's handle-bearing mini-graph trace alternate
        # through every catalog machine in one lane list.
        bit = load_benchmark("bitcount", "reference")
        bit_trace = run_program(bit, max_instructions=BUDGET).trace
        crc = prepare_minigraph_run(load_benchmark("crc", "reference"),
                                    budget=BUDGET)
        configs = [machine_config(name) for name in machine_names()]
        lanes, expected = [], []
        for index, config in enumerate(configs):
            if index % 2:
                lanes.append(TimingLane(crc.rewritten,
                                        crc.rewritten_result.trace, config,
                                        mgt=crc.mgt))
                expected.append(_reference_outcomes(
                    crc.rewritten, crc.rewritten_result.trace, [config],
                    mgt=crc.mgt)[0])
            else:
                lanes.append(TimingLane(bit, bit_trace, config))
                expected.append(_reference_outcomes(bit, bit_trace,
                                                    [config])[0])
        batch = BatchedTimingSimulator.from_lanes(lanes)
        results = batch.run()
        # Plain machines on the handle trace must still error per lane.
        assert any(isinstance(item, tuple) for item in expected)
        _assert_lanes_match(batch, results, expected, configs)

    def test_lanes_finish_at_different_cycles(self):
        # Short and long traces alternate in one lane list; every lane's
        # stats equal its own reference run.
        short_prog = load_benchmark("fnvmix", "reference")
        short_trace = run_program(short_prog, max_instructions=120).trace
        long_prog = load_benchmark("bitcount", "reference")
        long_trace = run_program(long_prog, max_instructions=BUDGET).trace
        assert len(short_trace) < len(long_trace)
        configs = [baseline_config(), machine_config("prf144")]
        batch = BatchedTimingSimulator.from_lanes(
            [TimingLane(short_prog, short_trace, configs[0]),
             TimingLane(long_prog, long_trace, configs[0]),
             TimingLane(short_prog, short_trace, configs[1]),
             TimingLane(long_prog, long_trace, configs[1])])
        results = batch.run()
        assert not batch.lane_errors
        for lane, (program, trace) in enumerate(
                [(short_prog, short_trace), (long_prog, long_trace)] * 2):
            reference = _reference(program, trace, configs[lane // 2])
            assert _stats_equal(results[lane], reference), \
                f"lane {lane} diverged from reference"

    def test_one_entry_trace_batched_with_40k_trace(self):
        # Extreme skew: one committed entry beside ~40k entries; both rows
        # stay bit-identical to the reference.
        tiny_prog = load_benchmark("bitcount", "reference")
        tiny_trace = run_program(tiny_prog, max_instructions=1).trace
        big_prog = load_benchmark("listchase", "reference")
        big_trace = run_program(big_prog, max_instructions=45_000).trace
        assert len(tiny_trace) == 1
        assert len(big_trace) > 40_000
        config = baseline_config()
        batch = BatchedTimingSimulator.from_lanes(
            [TimingLane(tiny_prog, tiny_trace, config),
             TimingLane(big_prog, big_trace, config)])
        results = batch.run()
        assert not batch.lane_errors
        assert _stats_equal(results[0],
                            _reference(tiny_prog, tiny_trace, config))
        assert _stats_equal(results[1],
                            _reference(big_prog, big_trace, config))

    def test_admission_error_lane_in_mixed_group(self):
        # An inadmissible lane in a mixed-trace list errors alone; sibling
        # lanes over the other trace are untouched.
        from repro.fuzz.generator import SynthSpec, generate_program
        spec = SynthSpec.sample(1004).with_dials(fp_density=40)
        fp_prog = generate_program(spec, "reference")
        fp_trace = run_program(fp_prog, max_instructions=10_000).trace
        other = load_benchmark("crc", "reference")
        other_trace = run_program(other, max_instructions=BUDGET).trace
        good = baseline_config()
        bad = dataclasses.replace(good, name="fp-less", fp_units=0)
        batch = BatchedTimingSimulator.from_lanes(
            [TimingLane(other, other_trace, good),
             TimingLane(fp_prog, fp_trace, bad),
             TimingLane(fp_prog, fp_trace, good)])
        results = batch.run()
        assert set(batch.lane_errors) == {1}
        with pytest.raises(ConfigError) as reference_error:
            TimingSimulator(fp_prog, fp_trace, bad)
        assert str(batch.lane_errors[1]) == str(reference_error.value)
        assert _stats_equal(results[0], _reference(other, other_trace, good))
        assert _stats_equal(results[2], _reference(fp_prog, fp_trace, good))


@pytest.fixture
def use_kernel(monkeypatch):
    """Switch the process's timing kernel: ``use_kernel("c")`` or
    ``use_kernel("python")`` (a missing compiler, as in the fallback
    tests).  Skips when no C kernel can be built."""
    loaded, info = ckernel.load_kernel()
    if loaded is None:
        pytest.skip(f"no C kernel: {info.reason}")

    def switch(name):
        if name == "c":
            monkeypatch.setattr(ckernel, "_loaded", loaded)
            monkeypatch.setattr(ckernel, "_info", info)
        else:
            monkeypatch.setenv("CC", "/nonexistent/cc")
            monkeypatch.setattr(ckernel, "_loaded", None)
            monkeypatch.setattr(ckernel, "_info", None)
        lanes = {"c": 0, "python": 0}
        monkeypatch.setattr(batch_module, "LANES_RUN", lanes)
        return lanes

    return switch


class TestResumeInterop:
    """Row artifacts are shared currency between the C and Python kernels."""

    def _grid(self):
        from repro.grid import Axis, GridSpec
        from repro.minigraph.policies import DEFAULT_POLICY

        axes = (Axis("benchmark", ("bitcount", "crc")),
                Axis("mode", ("int-mem", "baseline")))

        def build(point):
            policy = DEFAULT_POLICY if point["mode"] == "int-mem" else None
            # Skewed budgets: short and long traces in one campaign.
            budget = BUDGET if point["benchmark"] == "bitcount" else 400
            return RunSpec(benchmark=point["benchmark"], budget=budget,
                           policy=policy)

        return GridSpec(name="interop-grid", axes=axes, build=build)

    @pytest.mark.parametrize("producer_in_c", (True, False))
    def test_resume_across_kernels_both_directions(self, tmp_path, use_kernel,
                                                   producer_in_c):
        producer, consumer = ("c", "python") if producer_in_c \
            else ("python", "c")
        grid = self._grid()
        cache = tmp_path / "cache"
        lanes = use_kernel(producer)
        with Session(cache_dir=cache) as session:
            fresh = list(session.run_grid(grid, workers=0))
        assert lanes[producer] > 0 and lanes[consumer] == 0
        lanes = use_kernel(consumer)
        with Session(cache_dir=cache) as session:
            resumed = list(session.run_grid(grid, workers=0, resume=True))
        assert all(row.resumed for row in resumed)
        assert [row.as_dict() | {"resumed": False} for row in resumed] \
            == [row.as_dict() for row in fresh]
        # The consumer's kernel recomputes every row bit-identically.
        recomputed = list(Session().run_grid(grid, workers=0))
        assert lanes[consumer] > 0 and lanes[producer] == 0
        assert [row.as_dict() for row in recomputed] \
            == [row.as_dict() for row in fresh]
