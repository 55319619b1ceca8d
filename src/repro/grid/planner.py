"""Dependency-aware grid planning: cells → shared-artifact stages → shards.

Expanding a grid yields one :class:`~repro.grid.spec.GridCell` per (machine ×
policy × workload × budget) point, but executing each cell independently
would re-derive the expensive shared prefix of the pipeline — one functional
profile per (program, input, budget) and one front-end compile
(select/rewrite/trace) per (program, policy) — once per cell.  The planner
generalizes :meth:`repro.api.session.Session.sweep`'s grouping into an
explicit, inspectable plan:

* a :class:`PlanStage` per distinct profile identity ``(source, input,
  budget)`` — the unit shipped to one process-pool worker, where the shared
  stages run once and the interned decode metadata is reused by every
  timing run;
* a :class:`CompileGroup` per distinct selection policy inside a stage —
  cells of one group run consecutively so the front-end artifacts they share
  stay hot;
* deterministic ordering throughout (stages by first cell, groups by first
  cell, cells by expansion index), which is what makes sharding
  (:meth:`GridPlan.shard`) a partition: shard *i* of *N* takes every
  *N*-th stage, and the union of all shards is exactly the unsharded plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..api.spec import RunSpec
from .spec import GridCell, GridError, GridSpec


@dataclass
class CompileGroup:
    """Cells sharing one front-end compile: same program *and* policy."""

    policy_key: Optional[str]        # RunSpec.policy_digest; None = baseline
    cells: List[GridCell] = field(default_factory=list)


@dataclass
class PlanStage:
    """Cells sharing one profile identity ``(source, input, budget)``.

    One stage is one process-pool job: every cell in it reuses the stage's
    functional profile, and cells are ordered compile-group-major so each
    policy's select/rewrite/trace artifacts are computed once and reused
    while still hot.
    """

    key: Tuple[str, str, int]
    groups: List[CompileGroup] = field(default_factory=list)

    @property
    def cells(self) -> List[GridCell]:
        """Stage cells in execution order (compile-group-major)."""
        return [cell for group in self.groups for cell in group.cells]

    @property
    def cell_count(self) -> int:
        return sum(len(group.cells) for group in self.groups)

    @property
    def frontend_compiles(self) -> int:
        """Distinct front-end compiles (non-baseline policies) in the stage."""
        return sum(1 for group in self.groups if group.policy_key is not None)


@dataclass
class GridPlan:
    """A grid expanded and grouped into shared-artifact stages.

    ``grid`` is ``None`` for plans built from bare cells
    (:func:`plan_cells`) — e.g. the serve daemon planning a client's
    pre-expanded cell list.
    """

    grid: Optional[GridSpec]
    stages: List[PlanStage]
    shard: Optional[Tuple[int, int]] = None   # (index, count) when sharded

    @property
    def cell_count(self) -> int:
        return sum(stage.cell_count for stage in self.stages)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def frontend_compiles(self) -> int:
        return sum(stage.frontend_compiles for stage in self.stages)

    @property
    def dedup_ratio(self) -> float:
        """Timing runs per shared-artifact stage (1.0 = nothing shared)."""
        if not self.stages:
            return 1.0
        return self.cell_count / len(self.stages)

    def cells(self) -> List[GridCell]:
        """Every planned cell, stage-major in execution order."""
        return [cell for stage in self.stages for cell in stage.cells]

    def timing_batches(self, max_lanes: Optional[int] = None
                       ) -> List["TimingBatch"]:
        """The machine-batched timing passes this plan's cells will ride.

        Batches are packed across the whole plan — lanes from *different*
        stages' decoded traces share passes whenever a stage's lane groups
        leave cells free (see :func:`timing_batches`'s greedy bin-pack) —
        mirroring what :meth:`Session.prime_timing` executes on the serial
        path, where one session sees every stage's lanes.  (A process-pool
        run primes per stage-worker, so its passes pack only that stage's
        trace groups.)
        """
        return timing_batches(self.cells(), max_lanes)

    def take_shard(self, index: int, count: int) -> "GridPlan":
        """Shard ``index`` of ``count``: every ``count``-th stage.

        Sharding by *stage* (not by cell) keeps each shard's shared-artifact
        grouping intact — no shard ever recomputes another shard's front-end
        compile — and the shards partition the plan: their union is exactly
        the unsharded cell set.
        """
        if count <= 0:
            raise GridError(f"shard count must be positive, got {count}")
        if not 0 <= index < count:
            raise GridError(f"shard index {index} out of range for "
                            f"{count} shards (expected 0..{count - 1})")
        return GridPlan(grid=self.grid, stages=self.stages[index::count],
                        shard=(index, count))

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly plan summary."""
        return {
            "grid": None if self.grid is None else self.grid.name,
            "cells": self.cell_count,
            "stages": self.stage_count,
            "frontend_compiles": self.frontend_compiles,
            "dedup_ratio": self.dedup_ratio,
            "shard": None if self.shard is None
                     else f"{self.shard[0]}/{self.shard[1]}",
        }


@dataclass
class LaneGroup:
    """Machine lanes sharing one decoded trace inside a batched pass.

    ``trace_key`` identifies the shared trace artifact (profile identity
    for baseline lanes, trace identity + layout for mini-graph lanes);
    ``lanes`` holds one ``(spec, machine)`` pair per distinct machine;
    ``est_length`` is the planner's trace-length estimate (the owning
    spec's budget caps committed entries), which drives the longest-first
    bin-pack.
    """

    trace_key: Tuple[Any, ...]
    minigraph: bool
    est_length: int
    lanes: List[Tuple[RunSpec, Any]]   # (owning spec, machine config)


@dataclass
class TimingBatch:
    """One batched timing pass: ≤ ``max_lanes`` machine lanes, possibly
    spanning several decoded traces.

    A batch holds one :class:`LaneGroup` per distinct trace it drives —
    the cross-trace kernel (:meth:`repro.uarch.batch.BatchedTimingSimulator.
    from_lanes`) runs them as one pass, retiring short-trace lanes early.
    This is the planner's view of what :meth:`repro.api.session.Session.
    prime_timing` executes — inspectable before anything runs, and already
    partitioned to ``max_lanes`` so the per-pass memory bound is visible in
    the plan.
    """

    groups: List[LaneGroup]

    @property
    def lanes(self) -> List[Tuple[RunSpec, Any]]:
        """Every lane of the pass, group-major in execution order."""
        return [lane for group in self.groups for lane in group.lanes]

    @property
    def lane_count(self) -> int:
        return sum(len(group.lanes) for group in self.groups)

    @property
    def trace_count(self) -> int:
        return len(self.groups)

    @property
    def cross_trace(self) -> bool:
        """Whether the pass interleaves lanes over different traces."""
        return len(self.groups) > 1

    @property
    def minigraph(self) -> bool:
        return any(group.minigraph for group in self.groups)


def pack_lane_groups(shapes: List[Tuple[int, int]], max_lanes: int
                     ) -> List[List[Tuple[int, int, int]]]:
    """Greedy longest-first best-fit bin-pack of lane groups into passes.

    ``shapes`` is one ``(lane_count, est_length)`` per lane group in
    first-seen order; the result is one list per pass (bin) of
    ``(group_index, start, stop)`` lane slices, at most ``max_lanes`` lanes
    per pass.  Groups are packed longest-trace-first (ties broken by input
    order): each group first fills whole passes of ``max_lanes`` lanes, and
    its remainder is placed *whole* into the open pass with the least
    sufficient free space (earliest on ties) — never split, so sibling
    lanes over one trace stay in one pass and keep the kernel's
    behavior-key dedup — or opens a new pass.  Deterministic throughout;
    passes are returned in creation order.
    """
    order = sorted(range(len(shapes)),
                   key=lambda index: (-shapes[index][1], index))
    bins: List[List[Tuple[int, int, int]]] = []
    free: List[int] = []
    for index in order:
        count = shapes[index][0]
        start = 0
        while count - start >= max_lanes:
            bins.append([(index, start, start + max_lanes)])
            free.append(0)
            start += max_lanes
        remainder = count - start
        if not remainder:
            continue
        best = -1
        for position, slots in enumerate(free):
            if slots >= remainder and (best < 0 or slots < free[best]):
                best = position
        if best < 0:
            bins.append([(index, start, count)])
            free.append(max_lanes - remainder)
        else:
            bins[best].append((index, start, count))
            free[best] -= remainder
    return bins


def timing_batches(cells_or_specs: Iterable[Any],
                   max_lanes: Optional[int] = None) -> List[TimingBatch]:
    """Group the timing runs of cells (or bare specs) into batched passes.

    Mirrors the runtime grouping of :meth:`Session.prime_timing`: baseline
    timing lanes group by profile identity ``(source, input, budget)``,
    mini-graph lanes by trace identity + compressed layout, and duplicate
    (trace, machine) lanes collapse.  The lane groups are then bin-packed
    (:func:`pack_lane_groups`) into cross-trace passes of at most
    ``max_lanes`` machines (default
    :data:`repro.uarch.batch.DEFAULT_MAX_LANES`, bounding per-pass memory):
    a pass left under-filled by one trace's machines takes on the leftover
    lanes of other traces — longest estimated trace first, so small
    benchmarks ride along with large ones instead of serializing behind
    them.  Deterministic: groups form in first-lane order with lanes in
    input order, and the pack is a pure function of the group shapes.
    """
    from ..uarch.batch import DEFAULT_MAX_LANES
    if max_lanes is None:
        max_lanes = DEFAULT_MAX_LANES
    if max_lanes < 1:
        raise GridError(f"max_lanes must be positive, got {max_lanes}")
    groups: Dict[Tuple[Any, ...], Dict[Any, Tuple[RunSpec, Any]]] = {}
    for item in cells_or_specs:
        spec = item.spec if isinstance(item, GridCell) else item
        base_key = ("baseline",) + spec.stage_material("time_baseline")
        lanes = groups.setdefault(base_key, {})
        configs = [spec.resolved_baseline_machine]
        if spec.policy is None:
            configs.append(spec.resolved_machine)
        for config in configs:
            lanes.setdefault(config.resolve().machine_hash, (spec, config))
        if spec.policy is not None:
            config = spec.resolved_machine
            mg_key = ("minigraph",) + spec.stage_material("trace") \
                + (spec.compressed_layout,)
            groups.setdefault(mg_key, {}) \
                .setdefault(config.resolve().machine_hash, (spec, config))
    ordered: List[LaneGroup] = []
    for trace_key, lane_map in groups.items():
        lanes = list(lane_map.values())
        ordered.append(LaneGroup(
            trace_key=trace_key,
            minigraph=trace_key[0] == "minigraph",
            est_length=lanes[0][0].budget,
            lanes=lanes))
    bins = pack_lane_groups([(len(group.lanes), group.est_length)
                             for group in ordered], max_lanes)
    return [TimingBatch(groups=[
                LaneGroup(trace_key=ordered[index].trace_key,
                          minigraph=ordered[index].minigraph,
                          est_length=ordered[index].est_length,
                          lanes=ordered[index].lanes[start:stop])
                for index, start, stop in chunks])
            for chunks in bins]


def plan_cells(cells: Iterable[GridCell],
               grid: Optional[GridSpec] = None) -> GridPlan:
    """Group already-expanded cells into shared-artifact stages.

    The grouping behind :func:`plan_grid`, reusable for cell lists that
    never came from a :class:`GridSpec` — the serve daemon plans client
    submissions (pre-expanded on the client, where the grid's build
    closures live) through exactly this path, so concurrent daemon jobs
    get the same profile/compile dedup as local grid runs.

    Deterministic: stages appear in order of their first cell, compile
    groups in order of their first cell within the stage, and cells keep
    their input order within each group.
    """
    stages: Dict[Tuple[str, str, int], PlanStage] = {}
    groups: Dict[Tuple[Tuple[str, str, int], Any], CompileGroup] = {}
    for cell in cells:
        spec = cell.spec
        stage_key = (spec.source_id, spec.input_name, spec.budget)
        stage = stages.get(stage_key)
        if stage is None:
            stage = stages[stage_key] = PlanStage(key=stage_key)
        policy_key = spec.policy_digest
        group_key = (stage_key, policy_key)
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = CompileGroup(policy_key=policy_key)
            stage.groups.append(group)
        group.cells.append(cell)
    return GridPlan(grid=grid, stages=list(stages.values()))


def plan_grid(grid: GridSpec) -> GridPlan:
    """Expand ``grid`` and group its cells into shared-artifact stages."""
    return plan_cells(grid.cells(), grid)
