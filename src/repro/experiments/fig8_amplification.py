"""Experiments E7 and E8: resource amplification as simplification (Figure 8).

The top panel shrinks the physical register file (164 -> 144 -> 124 -> 104
registers) and shows that mini-graphs compensate for much of the loss.  The
bottom panel reduces pipeline bandwidth (4-wide, 4-wide with 6 execution
units) and pipelines the scheduler (2-cycle wake-up/select), again measuring
how much of the loss mini-graphs recover.  All values are reported relative
to the full 6-wide baseline with 164 registers and a single-cycle scheduler.

Both panels are one declarative grid (benchmark × variant × mode, see
:func:`figure8_grid`) registered in the grid catalog as ``fig8`` — register
variants are labelled ``prf164`` … ``prf104``, bandwidth variants keep their
names — so the whole figure is reproducible as ``repro grid --name fig8``;
:func:`run_figure8` runs the same grid serially and splits the rows back
into the two panel tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..grid.catalog import GridDefinition, register_grid
from ..grid.engine import GridRow
from ..grid.spec import Axis, GridSpec
from ..api.spec import RunSpec
from ..minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY, SelectionPolicy
from ..uarch.catalog import MACHINE_CATALOG, machine_config
from ..uarch.config import MachineConfig, baseline_config
from ..workloads import REGISTRY
from .reporting import ResultTable
from .runner import ExperimentRunner

#: Register-file sizes swept by the top panel.
FIGURE8_REGISTER_SIZES = (164, 144, 124, 104)

#: Bandwidth/scheduler variants of the bottom panel.
FIGURE8_BANDWIDTH_VARIANTS = ("6-wide", "4-wide", "4-wide+6-exec", "2-cycle-sched")

#: Machine flavours compared in every Figure 8 group.
FIGURE8_MODES = ("baseline", "int", "int-mem")


def _mode_machines(base: MachineConfig) -> Dict[str, Tuple[Optional[SelectionPolicy], MachineConfig]]:
    """Map each Figure 8 mode to (policy, machine) derived from ``base``."""
    integer_machine = base.with_minigraph_alu_pipelines(2)
    memory_machine = integer_machine.with_sliding_window()
    return {
        "baseline": (None, base),
        "int": (INTEGER_POLICY, integer_machine),
        "int-mem": (DEFAULT_POLICY, memory_machine),
    }


def _variant_base(variant: str) -> MachineConfig:
    """The reduced-resource base machine of one Figure 8 variant label.

    Labels resolve through the machine catalog (one source of truth for the
    Section 6 parameters); ``prf<N>`` sizes outside the catalog's swept set
    are derived from the baseline directly so custom register sweeps work.
    """
    if variant.startswith("prf") and variant not in MACHINE_CATALOG:
        return baseline_config().with_physical_registers(int(variant[3:]))
    return machine_config(variant)


@dataclass
class Figure8Result:
    """Both panels of Figure 8."""

    register_table: ResultTable
    bandwidth_table: ResultTable

    def render(self) -> str:
        return self.register_table.render() + "\n\n" + self.bandwidth_table.render()


def figure8_grid(*, benchmarks: Sequence[str], budget: int,
                 input_name: str = "reference",
                 register_sizes: Sequence[int] = FIGURE8_REGISTER_SIZES,
                 variants: Sequence[str] = FIGURE8_BANDWIDTH_VARIANTS,
                 modes: Sequence[str] = FIGURE8_MODES) -> GridSpec:
    """Both Figure 8 panels as one grid: benchmark × variant × mode.

    ``register_sizes`` become ``prf<N>`` variant labels ahead of the
    bandwidth variants; every cell is measured against the shared full
    6-wide reference machine.  Passing an empty ``register_sizes`` or
    ``variants`` restricts the grid to one panel.
    """
    variant_labels = tuple(f"prf{size}" for size in register_sizes) \
        + tuple(variants)
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("variant", variant_labels),
            Axis("mode", tuple(modes)))

    # One machine object per (variant, mode) for the whole grid, so every
    # cell shares its machine's memoized digest.
    machines = {variant: _mode_machines(_variant_base(variant))
                for variant in variant_labels}
    reference = baseline_config()

    def build(point) -> RunSpec:
        policy, machine = machines[point["variant"]][point["mode"]]
        return RunSpec(
            benchmark=point["benchmark"],
            input_name=input_name,
            budget=budget,
            policy=policy,
            machine=machine,
            baseline_machine=reference,
        )

    return GridSpec(name="fig8", axes=axes, build=build,
                    title="Figure 8: reduced-resource machines vs the full baseline")


def _relative(row: GridRow) -> float:
    """Relative performance with the panel's historical zero-baseline
    convention (1.0, not NaN, when the reference retired nothing)."""
    if row.baseline_ipc == 0.0:
        return 1.0
    return row.ipc / row.baseline_ipc


def register_table_from_rows(rows: Iterable[GridRow]) -> ResultTable:
    """Fold register-panel rows (``prf*`` variants) into the top table."""
    table = ResultTable(
        title="Figure 8 (top): performance vs physical register file size "
              "(relative to the 164-register baseline)",
        columns=[])
    for row in rows:
        registers = row.labels["variant"][3:]
        table.add(row.benchmark, f"{row.labels['mode']}@{registers}",
                  _relative(row), suite=REGISTRY.get(row.benchmark).suite)
    table.notes.append("164 registers = 64 architected + 100 in-flight (the baseline)")
    return table


def bandwidth_table_from_rows(rows: Iterable[GridRow]) -> ResultTable:
    """Fold bandwidth-panel rows into the bottom table."""
    table = ResultTable(
        title="Figure 8 (bottom): reduced bandwidth and pipelined scheduler "
              "(relative to the 6-wide, 1-cycle-scheduler baseline)",
        columns=[])
    for row in rows:
        table.add(row.benchmark, f"{row.labels['mode']}@{row.labels['variant']}",
                  _relative(row), suite=REGISTRY.get(row.benchmark).suite)
    table.notes.append("the 4-wide machine fetches/renames/retires 4 per cycle; "
                       "4-wide+6-exec keeps six execution units and two load ports")
    return table


def run_register_panel(runner: ExperimentRunner, *,
                       benchmarks: Optional[Sequence[str]] = None,
                       register_sizes: Sequence[int] = FIGURE8_REGISTER_SIZES,
                       modes: Sequence[str] = FIGURE8_MODES) -> ResultTable:
    """Figure 8 top: shrinking the physical register file."""
    names = list(benchmarks) if benchmarks is not None else runner.benchmarks()
    grid = figure8_grid(benchmarks=names, budget=runner.budget,
                        input_name=runner.input_name,
                        register_sizes=register_sizes, variants=(),
                        modes=modes)
    return register_table_from_rows(runner.session.run_grid(grid, workers=0))


def run_bandwidth_panel(runner: ExperimentRunner, *,
                        benchmarks: Optional[Sequence[str]] = None,
                        variants: Sequence[str] = FIGURE8_BANDWIDTH_VARIANTS,
                        modes: Sequence[str] = FIGURE8_MODES) -> ResultTable:
    """Figure 8 bottom: narrower pipelines and a pipelined scheduler."""
    names = list(benchmarks) if benchmarks is not None else runner.benchmarks()
    grid = figure8_grid(benchmarks=names, budget=runner.budget,
                        input_name=runner.input_name,
                        register_sizes=(), variants=variants, modes=modes)
    return bandwidth_table_from_rows(runner.session.run_grid(grid, workers=0))


def run_figure8(runner: ExperimentRunner, *,
                benchmarks: Optional[Sequence[str]] = None,
                register_sizes: Sequence[int] = FIGURE8_REGISTER_SIZES,
                variants: Sequence[str] = FIGURE8_BANDWIDTH_VARIANTS) -> Figure8Result:
    """Run both Figure 8 panels."""
    return Figure8Result(
        register_table=run_register_panel(runner, benchmarks=benchmarks,
                                          register_sizes=register_sizes),
        bandwidth_table=run_bandwidth_panel(runner, benchmarks=benchmarks,
                                            variants=variants),
    )


def figure8_result(rows: Iterable[GridRow]) -> Figure8Result:
    """Split combined-grid rows back into the two panel tables."""
    materialized = list(rows)
    register_rows = [row for row in materialized
                     if row.labels["variant"].startswith("prf")]
    bandwidth_rows = [row for row in materialized
                      if not row.labels["variant"].startswith("prf")]
    return Figure8Result(
        register_table=register_table_from_rows(register_rows),
        bandwidth_table=bandwidth_table_from_rows(bandwidth_rows))


def _figure8_report(rows: List[GridRow]):
    result = figure8_result(rows)
    return result.render(), [result.register_table, result.bandwidth_table]


register_grid(GridDefinition(
    name="fig8",
    description="Figure 8: benchmark × resource variant × mode vs full baseline",
    factory=figure8_grid,
    report=_figure8_report,
))
