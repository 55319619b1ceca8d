"""repro: a reproduction of "Dataflow Mini-Graphs: Amplifying Superscalar
Capacity and Bandwidth" (Bracy, Prahlad, Roth — MICRO-37, 2004).

The package is organised bottom-up:

* :mod:`repro.isa` — the Alpha-inspired MGA instruction set and assembler;
* :mod:`repro.program` — static program model, basic blocks, CFG, liveness,
  profiles and the binary rewriter that plants mini-graph handles;
* :mod:`repro.minigraph` — the paper's contribution: candidate enumeration,
  greedy coverage-driven selection, selection policies and the MGT
  (MGHT/MGST);
* :mod:`repro.dise` — the DISE substrate used to commission application
  specific mini-graphs (productions, MGTT, MGPP);
* :mod:`repro.sim` — the functional (architectural) golden-model simulator;
* :mod:`repro.uarch` — the cycle-level out-of-order timing model with ALU
  pipelines and the sliding-window scheduler;
* :mod:`repro.workloads` — synthetic stand-ins for SPECint, MediaBench,
  CommBench and MiBench;
* :mod:`repro.api` — the unified pipeline front door: declarative
  :class:`~repro.api.RunSpec`, the stage-graph caching
  :class:`~repro.api.Session`, the content-addressed
  :class:`~repro.api.ArtifactStore` and the ``python -m repro`` CLI;
* :mod:`repro.experiments` — harnesses that regenerate every figure of the
  paper's evaluation (thin layers over :mod:`repro.api`).

:func:`prepare_minigraph_run` below is the historical quick-use helper; it is
now a compatibility shim over :class:`repro.api.Session` and new code should
use the session API directly (see ``README.md`` for migration notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .minigraph import (
    DEFAULT_POLICY,
    MiniGraphTable,
    MgtBuildOptions,
    SelectionPolicy,
    SelectionResult,
    select_minigraphs,
)
from .program import Program, rewrite_program
from .program.profile import BlockProfile
from .sim import FunctionalResult, run_program
from .sim.trace import Trace
from .uarch import (
    MachineConfig,
    PipelineStats,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
    simulate_program,
)
from .workloads import load_benchmark

# 1.4.0: machine-shape (name-free MachineSpec) cache keying + the grid
# engine's row artifacts invalidate every pre-grid persisted cache entry.
# 1.5.0: store keys hash flat tuples of component digests (policy, MGT
# options, machine), so every key string changed.
__version__ = "1.5.0"

from .api import ArtifactStore, RunArtifacts, RunSpec, Session  # noqa: E402


@dataclass
class FunctionalView:
    """Trace/profile view compatible with :class:`~repro.sim.FunctionalResult`.

    :func:`prepare_minigraph_run` caches through :class:`repro.api.Session`,
    whose profile/trace stages deliberately drop the architectural state
    (registers, memory image) that a full functional result carries; this
    view keeps the attributes the run object's consumers actually use.
    """

    program_name: str
    profile: Optional[BlockProfile]
    trace: Trace


@dataclass
class MiniGraphRun:
    """Everything produced by :func:`prepare_minigraph_run` for one program."""

    original: Program
    baseline_result: FunctionalView
    selection: SelectionResult
    mgt: MiniGraphTable
    rewritten: Program
    rewritten_result: FunctionalView
    _session: Optional[Session] = field(default=None, repr=False, compare=False)
    _spec: Optional[RunSpec] = field(default=None, repr=False, compare=False)

    @property
    def coverage(self) -> float:
        """Fraction of dynamic instructions absorbed into handles."""
        return self.rewritten_result.trace.dynamic_coverage()

    def baseline_stats(self, config: Optional[MachineConfig] = None) -> PipelineStats:
        """Timing-simulate the original program."""
        machine = config or baseline_config()
        if self._session is not None and self._spec is not None:
            return self._session.baseline_timing(self._spec, machine)
        return simulate_program(self.original, self.baseline_result.trace, machine)

    def minigraph_stats(self, config: Optional[MachineConfig] = None) -> PipelineStats:
        """Timing-simulate the rewritten program on a mini-graph machine."""
        machine = config or integer_memory_minigraph_config()
        if self._session is not None and self._spec is not None:
            return self._session.minigraph_timing(self._spec, machine)
        return simulate_program(self.rewritten, self.rewritten_result.trace, machine,
                                mgt=self.mgt)

    def speedup(self, *, baseline: Optional[MachineConfig] = None,
                minigraph: Optional[MachineConfig] = None) -> float:
        """Relative performance of the mini-graph machine over the baseline.

        Returns ``nan`` (rather than a misleading 1.0) when the baseline
        retired no instructions.
        """
        base = self.baseline_stats(baseline)
        mini = self.minigraph_stats(minigraph)
        if base.ipc == 0.0:
            return float("nan")
        return mini.ipc / base.ipc


def prepare_minigraph_run(program: Program, *, policy: SelectionPolicy = DEFAULT_POLICY,
                          budget: int = 20_000,
                          mgt_options: Optional[MgtBuildOptions] = None,
                          session: Optional[Session] = None) -> MiniGraphRun:
    """Run the complete flow (profile, select, rewrite, re-trace) for ``program``.

    Compatibility shim over :class:`repro.api.Session`: pass ``session`` to
    share its artifact store (and disk cache) across calls; otherwise a
    private in-memory session is used.
    """
    session = session if session is not None else Session()
    spec = RunSpec.for_program(program, policy=policy, budget=budget,
                               mgt_options=mgt_options)
    # Only the functional stages run here; timing is on demand through
    # baseline_stats/minigraph_stats (and cached in the same session).
    return MiniGraphRun(
        original=session.program(spec),
        baseline_result=FunctionalView(program_name=program.name,
                                       profile=session.profile(spec),
                                       trace=session.baseline_trace(spec)),
        selection=session.selection(spec),
        mgt=session.mgt(spec),
        rewritten=session.rewritten(spec),
        rewritten_result=FunctionalView(program_name=program.name,
                                        profile=None,
                                        trace=session.minigraph_trace(spec)),
        _session=session,
        _spec=spec,
    )


__all__ = [
    "__version__",
    "ArtifactStore",
    "FunctionalView",
    "MiniGraphRun",
    "RunArtifacts",
    "RunSpec",
    "Session",
    "prepare_minigraph_run",
    "load_benchmark",
    "run_program",
    "select_minigraphs",
    "rewrite_program",
    "simulate_program",
    "baseline_config",
    "integer_minigraph_config",
    "integer_memory_minigraph_config",
    "DEFAULT_POLICY",
    "MiniGraphTable",
    "MgtBuildOptions",
    "SelectionPolicy",
    "MachineConfig",
    "PipelineStats",
]
