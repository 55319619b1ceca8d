"""The fused timing kernel: one machine configuration over one decoded trace.

Every timing run goes through this module.  A timing stage calls
:func:`~repro.uarch.pipeline.simulate_program`, which runs
:func:`time_lane`: the admission checks, then :func:`_run_lane`, which runs
the lane in the compiled port of the kernel (:mod:`repro.uarch.ckernel`,
``_kernel.c``) when a C compiler is available and in
:func:`_run_lane_python` otherwise.  The two agree on every counter and
error (``tests/test_kernel.py``, the ``kernel`` fuzz oracle).

The kernel is the object-model
:class:`~repro.uarch.pipeline.TimingSimulator` restructured as flat arrays
over shared trace columns:

* everything derived from a (program, trace, MGT, layout) quadruple is
  computed once into a shared, immutable :class:`TraceFacts` — packed trace
  columns, decode columns (kind, latency, renamed sources, destination),
  fetch addresses and the instruction-cache line column — and reused by
  every machine timed over that trace;
* per-machine state lives in flat per-sequence arrays (complete cycles,
  pending-source counts, physical-register maps, LSQ flags) rather than
  per-entry ``DynInst`` objects: the replayed trace has no wrong path, so a
  dynamic entity's sequence number *is* its trace index and every "object"
  becomes an array slot.

The cache hierarchy is deliberately *not* shared between machines even
though fetch addresses are: the unified L2 sees both instruction and data
misses in a timing-dependent interleaving, so instruction-cache behaviour
is a per-machine function of the whole simulation, not of the trace.

The kernel also skips provably idle cycle spans (no ready entities, no
wakeup/completion event, retirement blocked, fetch and rename unable to
progress) by jumping straight to the next scheduled event and bulk-charging
the occupancy integrals and stall counters for the span — the per-cycle
accounting is replicated exactly, so skipped spans are bit-identical to
stepped ones.

Every lane's :class:`~repro.uarch.stats.PipelineStats` is bit-identical to
``TimingSimulator``, the reference model (enforced by the golden-stats
tests, ``tests/test_batch_timing.py``, the ``batch`` fuzz oracle and
``tools/check_kernel.py``).  :class:`BatchedTimingSimulator` times a list
of lanes in order and records each lane's error instead of raising it.
"""

from __future__ import annotations

import struct
import weakref
from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..minigraph.mgt import (
    FU_ALU,
    FU_ALU_PIPELINE,
    FU_BRANCH,
    FU_LOAD,
    FU_STORE,
    MiniGraphTable,
)
from ..program.program import Program
from ..sim.trace import (
    TF_CONTROL,
    TF_HAS_EA,
    TF_MEMORY,
    TF_STORE,
    TF_TAKEN,
    Trace,
)
from .ckernel import CKernel, active_kernel
from .config import ConfigError, MachineConfig
from .decode import KIND_FP, DecodedOp, DecodeError, decode_table
from .dyninst import FOREVER, NEVER
from .pipeline import FetchLayout, TimingError, fp_admission_error
from .stats import PipelineStats

#: Lanes this process has run in each kernel (the ``--stats`` kernel line).
LANES_RUN: Dict[str, int] = {"c": 0, "python": 0}


#: Decode record of one static instruction: four native ``int32`` fields
#: (latency, src0, src1, dest) then four bytes (kind, needs_dest, is_cond,
#: is_handle).  ``TraceFacts`` joins one record per trace entry and copies
#: each field out with a strided slice.
_RECORD = struct.Struct("=4ib3?")
_pack_record = _RECORD.pack
_RECORD_SIZE = _RECORD.size
_RECORD_WORDS = _RECORD_SIZE // 4
_RECORD_BYTE_FIELDS = struct.calcsize("=4i")


class TraceFacts:
    """Shared, immutable per-(program, trace, MGT, layout) columns.

    One instance is interned per quadruple (weakly, keyed by the trace) and
    reused by every machine timed over that trace.
    """

    __slots__ = (
        "program", "total",
        # Interned decode records by static index (None where the trace
        # never commits that instruction) and the trace's handle indices in
        # first-commit order.
        "ops", "handle_indices",
        # Packed trace columns (straight from Trace.columns()).
        "pc", "index", "size", "next_pc", "flags", "ea",
        # Decode columns gathered from per-static-index records.
        "kind", "latency", "src0", "src1", "dest", "needs_dest",
        "is_cond", "is_handle",
        # Fetch-address column (layout-resolved once for all machines).
        "addr",
        # Whether the trace holds FP instructions (the fp_units admission).
        "has_fp",
        # Compiled-kernel inputs (repro.uarch.ckernel), built on first use.
        "kernel_table",
        "_line_cols", "__weakref__",
    )

    def __init__(self, program: Program, trace: Trace,
                 mgt: Optional[MiniGraphTable], compressed: bool) -> None:
        self.program = program
        columns = trace.columns()
        index_column = columns.index
        # Decode once per static instruction the trace commits, in
        # first-commit order.
        unique = list(dict.fromkeys(index_column))
        op_at = decode_table(program, mgt).op_at
        try:
            decoded = [op_at(index) for index in unique]
        except DecodeError as error:
            raise TimingError(str(error)) from None
        self.total = len(index_column)

        self.pc = columns.pc
        self.index = index_column
        self.size = columns.size
        self.next_pc = columns.next_pc
        self.flags = columns.flags
        self.ea = columns.effective_address

        # One packed decode record per static index, gathered along the
        # index column in one C-level join; each column is then a strided
        # copy out of the joined records.  The columns are compact typed
        # arrays: the Python kernel indexes them and the C kernel reads
        # their buffers in place.
        static_count = len(program.instructions)
        ops: List[Optional[DecodedOp]] = [None] * static_count
        records: List[Optional[bytes]] = [None] * static_count
        handles = []
        for index, op in zip(unique, decoded):
            ops[index] = op
            s0, s1 = op.renamed_sources
            is_handle = op.mgt_entry is not None
            records[index] = _pack_record(
                op.latency, -1 if s0 is None else s0, -1 if s1 is None else s1,
                -1 if op.dest is None else op.dest, op.kind,
                op.needs_destination, op.is_conditional_branch, is_handle)
            if is_handle:
                handles.append(index)
        self.ops = ops
        self.handle_indices = tuple(handles)

        joined = memoryview(b"".join(map(records.__getitem__, index_column)))
        words = joined.cast("i")
        self.latency, self.src0, self.src1, self.dest = (
            array("i", words[field::_RECORD_WORDS].tobytes())
            for field in range(4))
        self.kind, self.needs_dest, self.is_cond, self.is_handle = (
            array(code, joined[_RECORD_BYTE_FIELDS + field::_RECORD_SIZE]
                  .tobytes())
            for field, code in enumerate("bBBB"))

        if compressed:
            layout = FetchLayout(program, compressed=True)
            address_for_index = layout.address_for_index
            self.addr = array("Q", [address_for_index(i)
                                    for i in index_column])
        else:
            self.addr = columns.pc

        self.has_fp = any(op.kind == KIND_FP for op in decoded)
        self.kernel_table = None
        self._line_cols: Dict[int, List[int]] = {}

    def line_col(self, line_bytes: int) -> List[int]:
        """Instruction-cache line tag (``address // line_bytes``) per entry.

        Line geometry is per-machine config, but in practice a handful of
        line sizes cover a whole grid; the column is memoized per size so
        every machine with that line size shares it.
        """
        col = self._line_cols.get(line_bytes)
        if col is None:
            col = [address // line_bytes for address in self.addr]
            self._line_cols[line_bytes] = col
        return col


#: ``trace -> {(decode table, compressed) -> TraceFacts}``.  Weak on the
#: trace so facts die with it (facts hold no reference back to the trace);
#: the decode table key keeps (program, MGT) variants of one trace distinct.
_FACTS: "weakref.WeakKeyDictionary[Trace, Dict]" = weakref.WeakKeyDictionary()


def trace_facts(program: Program, trace: Trace,
                mgt: Optional[MiniGraphTable] = None,
                compressed_layout: bool = False) -> TraceFacts:
    """The process-wide shared :class:`TraceFacts` for one quadruple."""
    per_trace = _FACTS.get(trace)
    if per_trace is None:
        per_trace = {}
        _FACTS[trace] = per_trace
    key = (decode_table(program, mgt), compressed_layout)
    facts = per_trace.get(key)
    if facts is None:
        facts = TraceFacts(program, trace, mgt, compressed_layout)
        per_trace[key] = facts
    return facts


def time_lane(facts: TraceFacts, config: MachineConfig,
              max_cycles: int) -> PipelineStats:
    """Admit ``config`` for the trace, then time it in :func:`_run_lane`.

    The one admission-and-run step behind both
    :func:`~repro.uarch.pipeline.simulate_program` and
    :meth:`BatchedTimingSimulator.run`.  Raises what ``TimingSimulator``
    raises for the same pair: the FP admission ``ConfigError`` here, the
    geometry ``ValueError`` and runtime ``TimingError`` in the kernel
    (decode errors already surfaced as ``TimingError`` in
    :func:`trace_facts`).
    """
    if facts.has_fp and config.fp_units == 0:
        raise fp_admission_error(config, facts.program)
    return _run_lane(facts, config, max_cycles)


class TimingLane:
    """One lane: a machine config over a (program, trace, MGT, layout)
    quadruple, which resolves to its shared :class:`TraceFacts`."""

    __slots__ = ("program", "trace", "config", "mgt", "compressed_layout")

    def __init__(self, program: Program, trace: Trace,
                 config: MachineConfig, *,
                 mgt: Optional[MiniGraphTable] = None,
                 compressed_layout: bool = False) -> None:
        self.program = program
        self.trace = trace
        self.config = config
        self.mgt = mgt
        self.compressed_layout = compressed_layout


class BatchedTimingSimulator:
    """Time a list of (decoded trace, machine configuration) lanes.

    The positional constructor is the one-trace form — one trace, many
    machines; :meth:`from_lanes` takes :class:`TimingLane` objects, each
    with its own trace.  :meth:`run` times the lanes in order through
    :func:`time_lane` and records each lane's ``ConfigError`` or
    ``TimingError`` in :attr:`lane_errors` instead of raising it, so one
    inadmissible machine never costs its siblings their statistics.
    """

    def __init__(self, program: Program, trace: Trace,
                 configs: Sequence[MachineConfig], *,
                 mgt: Optional[MiniGraphTable] = None,
                 compressed_layout: bool = False) -> None:
        facts = trace_facts(program, trace, mgt, compressed_layout)
        self._lanes = [(facts, config) for config in configs]
        #: lane index -> the error ``simulate_program`` would raise for it.
        self.lane_errors: Dict[int, Exception] = {}

    @classmethod
    def from_lanes(cls, lanes: Sequence[TimingLane]
                   ) -> "BatchedTimingSimulator":
        """Lanes over any mix of traces, timed in the given order."""
        self = cls.__new__(cls)
        self._lanes = [(trace_facts(lane.program, lane.trace, lane.mgt,
                                    lane.compressed_layout), lane.config)
                       for lane in lanes]
        self.lane_errors = {}
        return self

    def run(self, *, max_cycles: int = 5_000_000
            ) -> List[Optional[PipelineStats]]:
        """Time every lane; returns per-lane statistics in lane order.

        Errored lanes hold ``None`` and their exception sits in
        :attr:`lane_errors`.
        """
        results: List[Optional[PipelineStats]] = []
        for lane, (facts, config) in enumerate(self._lanes):
            try:
                results.append(time_lane(facts, config, max_cycles))
            except (ConfigError, TimingError) as error:
                self.lane_errors[lane] = error
                results.append(None)
        return results


def _run_lane(facts: TraceFacts, config: MachineConfig, max_cycles: int,
              kernel: Optional[CKernel] = None) -> PipelineStats:
    """One machine over the shared trace facts, in the process's kernel.

    The compiled kernel (``kernel``, default the process's
    :func:`~repro.uarch.ckernel.active_kernel`) runs the lane when it is
    available; otherwise, and for any lane outside what the C port mirrors
    exactly, :func:`_run_lane_python` does.  Both produce the same
    statistics and raise the same errors; each runs the geometry
    ``ValueError`` checks (:func:`_check_geometry`) before simulating.
    """
    if kernel is None:
        kernel, _ = active_kernel()
    if kernel is not None:
        stats = _run_lane_c(kernel, facts, config, max_cycles)
        if stats is not None:
            LANES_RUN["c"] += 1
            return stats
    LANES_RUN["python"] += 1
    return _run_lane_python(facts, config, max_cycles)


def _run_lane_c(kernel: CKernel, facts: TraceFacts, config: MachineConfig,
                max_cycles: int) -> Optional[PipelineStats]:
    """One lane in the C kernel only, never the Python fallback: its
    statistics, its error, or ``None`` when the kernel declines the lane."""
    _check_geometry(config)
    return kernel.run_lane(facts, config, max_cycles)


def _check_geometry(config: MachineConfig) -> None:
    """Geometry errors both kernels raise before simulating a lane
    (``MachineConfig`` validation rejects these shapes at construction)."""
    predictor_entries = config.predictor_entries
    if predictor_entries <= 0 or predictor_entries & (predictor_entries - 1):
        raise ValueError("predictor entries must be a positive power of two")
    if config.btb_entries % config.btb_associativity:
        raise ValueError("BTB entries must be a multiple of the associativity")
    if config.store_set_entries <= 0:
        raise ValueError("store-set table needs at least one entry")


def _run_lane_python(facts: TraceFacts, config: MachineConfig,
                     max_cycles: int) -> PipelineStats:
    """The fused per-lane kernel: one machine over the shared trace facts.

    This is the reference pipeline's stage sequence (retire → complete →
    issue → rename → fetch → occupancy accounting) flattened into one
    function over flat arrays, with all state in locals.  Every branch mirrors
    ``TimingSimulator`` exactly — the golden-equivalence tests compare the
    two bit for bit — plus the idle-span jump described in the module
    docstring.
    """
    # -- shared trace columns (read-only) ---------------------------------------
    flags_col = facts.flags
    pc_col = facts.pc
    size_col = facts.size
    next_pc_col = facts.next_pc
    ea_col = facts.ea
    kind_col = facts.kind
    latency_col = facts.latency
    src0_col = facts.src0
    src1_col = facts.src1
    dest_col = facts.dest
    needs_dest_col = facts.needs_dest
    is_cond_col = facts.is_cond
    is_handle_col = facts.is_handle
    addr_col = facts.addr
    line_col = facts.line_col(config.icache.line_bytes)
    index_col = facts.index
    ops = facts.ops
    total = facts.total
    _check_geometry(config)

    # -- per-lane models, inlined as local state (cache/predictor state is
    # timing-dependent, so none of it can be shared across lanes; see the
    # module docstring).  Each mirrors its repro.uarch class exactly — the
    # golden-equivalence tests pin the flattened forms to the originals.
    #
    # Hybrid direction predictor (bimodal + gshare + chooser) and BTB.
    predictor_entries = config.predictor_entries
    pred_mask = predictor_entries - 1
    history_mask = (1 << 12) - 1
    bimodal = [2] * predictor_entries
    gshare = [2] * predictor_entries
    chooser = [2] * predictor_entries
    history = 0
    mispredictions = 0
    btb_sets = config.btb_entries // config.btb_associativity
    btb_assoc = config.btb_associativity
    btb_table: List[List[Tuple[int, int]]] = [[] for _ in range(btb_sets)]
    # L1I + L1D + unified L2 tag stores with LRU replacement.
    i_line_bytes = config.icache.line_bytes
    i_num_sets = config.icache.num_sets
    i_assoc = config.icache.associativity
    i_sets: List[List[int]] = [[] for _ in range(i_num_sets)]
    icache_misses = 0
    d_line_bytes = config.dcache.line_bytes
    d_num_sets = config.dcache.num_sets
    d_assoc = config.dcache.associativity
    d_sets: List[List[int]] = [[] for _ in range(d_num_sets)]
    dcache_accesses = 0
    dcache_misses = 0
    l2_line_bytes = config.l2cache.line_bytes
    l2_num_sets = config.l2cache.num_sets
    l2_assoc = config.l2cache.associativity
    l2_sets: List[List[int]] = [[] for _ in range(l2_num_sets)]
    l2_hit = config.l2cache.hit_latency
    memory_latency = config.memory_latency
    # Store-sets predictor: SSIT (pc index -> set id) + LFST (set -> seq).
    store_set_entries = config.store_set_entries
    ssit: Dict[int, int] = {}
    lfst: Dict[int, int] = {}
    next_set_id = 0

    # -- hoisted config scalars ------------------------------------------------
    fetch_width = config.fetch_width
    rename_width = config.rename_width
    issue_width = config.issue_width
    retire_width = config.retire_width
    front_end_depth = config.front_end_depth
    fetch_buffer_limit = fetch_width * front_end_depth
    rob_size = config.rob_size
    iq_size = config.issue_queue_size
    lsq_size = config.lsq_size
    register_read_latency = config.register_read_latency
    scheduler_latency = config.scheduler_latency
    physical_registers = config.physical_registers
    arch_registers = config.architected_registers
    icache_hit = config.icache.hit_latency
    dcache_hit = config.dcache.hit_latency
    redirect_penalty = config.misprediction_redirect_penalty
    ordering_penalty = config.ordering_violation_penalty
    replay_penalty = config.minigraph_replay_penalty
    plain_alu_units = config.plain_alu_units
    alu_pipelines = config.alu_pipelines
    fp_units = config.fp_units
    load_ports = config.load_ports
    store_ports = config.store_ports
    max_memory_handles = config.max_memory_handles_per_cycle
    sliding_window = config.sliding_window_scheduler
    pipeline_future_cap = alu_pipelines if alu_pipelines > 1 else 1
    alu_future_cap = plain_alu_units + alu_pipelines
    if alu_future_cap < 1:
        alu_future_cap = 1
    kind_int, kind_fp, kind_load, kind_store, kind_handle = 0, 1, 2, 3, 4

    # -- per-sequence SoA lanes (sequence number == trace index: the replayed
    # trace has no wrong path, so fetch order is trace order) ------------------
    complete_cycle = [NEVER] * total
    fetch_cycle_arr = [0] * total
    pending_arr = [0] * total
    wake_arr = [0] * total
    dest_phys = [-1] * total
    prev_phys = [-1] * total
    pred_taken = bytearray(total)
    lsq_present = bytearray(total)
    lsq_issued = bytearray(total)
    lsq_completed = bytearray(total)

    # -- renaming / scheduler / fetch state ------------------------------------
    rename_map = {reg: reg for reg in range(arch_registers)}
    free_list = deque(range(arch_registers, physical_registers))
    ready_cycle = {reg: 0 for reg in range(arch_registers)}
    reg_waiters: Dict[int, List[int]] = {}

    front_end: deque = deque()
    rob: deque = deque()
    lsq: deque = deque()
    ready_heap: List[int] = []
    wake_buckets: Dict[int, List[int]] = {}
    complete_buckets: Dict[int, List[int]] = {}
    busy_heap: List[int] = []
    reservations: Dict[int, Dict[str, int]] = {}
    iq_count = 0

    fetch_index = 0
    fetch_stalled_until = 0
    fetch_blocked_on = -1

    # -- statistics accumulators (finalized into PipelineStats at the end) -----
    fetched_slots = 0
    fetch_stall_cycles = 0
    rename_stall_cycles = 0
    issue_slots_used = 0
    branch_lookups = 0
    loads_executed = 0
    stores_executed = 0
    ordering_violations = 0
    minigraph_replays = 0
    sliding_window_conflicts = 0
    stall_rob_full = 0
    stall_iq_full = 0
    stall_lsq_full = 0
    stall_no_physical_register = 0
    rob_occupancy_sum = 0
    iq_occupancy_sum = 0
    registers_in_use_sum = 0
    committed_instructions = 0
    committed_slots = 0
    committed_handles = 0

    retired_entries = 0
    cycle = 0
    watchdog_limit = max_cycles + 1

    while retired_entries < total:
        if cycle > max_cycles:
            raise TimingError(
                f"{facts.program.name}: exceeded {max_cycles} cycles "
                f"({retired_entries}/{total} entries retired); "
                f"the pipeline is probably deadlocked")

        # ---- idle-span jump: if no stage can do work this cycle, charge the
        # per-cycle accounting for the whole quiet span and jump to the next
        # scheduled event.  Eligibility replicates each stage's own guards.
        if not ready_heap and cycle not in wake_buckets \
                and cycle not in complete_buckets:
            head_complete = complete_cycle[rob[0]] if rob else NEVER
            if head_complete == NEVER or head_complete > cycle:
                fetch_called = False
                fetch_stalls = False
                fetch_progress = False
                blocked = fetch_blocked_on >= 0
                stalled = cycle < fetch_stalled_until
                if fetch_index < total or blocked or stalled:
                    fetch_called = True
                    if blocked or stalled:
                        fetch_stalls = True
                    elif fetch_index >= total:
                        fetch_stalls = False
                    elif len(front_end) >= fetch_buffer_limit:
                        fetch_stalls = True
                    else:
                        fetch_progress = True
                if not fetch_progress:
                    rename_counter = 0
                    rename_progress = False
                    if front_end:
                        head = front_end[0]
                        while busy_heap and busy_heap[0] <= cycle:
                            heappop(busy_heap)
                        if fetch_cycle_arr[head] > cycle - front_end_depth:
                            rename_counter = 1    # not yet rename-eligible
                        elif len(rob) >= rob_size:
                            rename_counter = 2
                        elif iq_count + len(busy_heap) >= iq_size:
                            rename_counter = 3
                        elif (flags_col[head] & TF_MEMORY) \
                                and len(lsq) >= lsq_size:
                            rename_counter = 4
                        elif needs_dest_col[head] and not free_list:
                            rename_counter = 5
                        else:
                            rename_progress = True
                    if not rename_progress:
                        candidates = []
                        if rob and head_complete != NEVER:
                            candidates.append(head_complete)
                        if wake_buckets:
                            candidates.append(min(wake_buckets))
                        if complete_buckets:
                            candidates.append(min(complete_buckets))
                        if busy_heap:
                            candidates.append(busy_heap[0])
                        if fetch_stalled_until > cycle:
                            candidates.append(fetch_stalled_until)
                        if front_end:
                            eligible = fetch_cycle_arr[front_end[0]] \
                                + front_end_depth
                            if eligible > cycle:
                                candidates.append(eligible)
                        target = min(candidates) if candidates \
                            else watchdog_limit
                        if target <= cycle:
                            target = cycle + 1
                        elif target > watchdog_limit:
                            target = watchdog_limit
                        span = target - cycle
                        rob_occupancy_sum += len(rob) * span
                        while busy_heap and busy_heap[0] <= cycle:
                            heappop(busy_heap)
                        iq_occupancy_sum += (iq_count + len(busy_heap)) * span
                        registers_in_use_sum += \
                            (physical_registers - len(free_list)) * span
                        if fetch_called and fetch_stalls:
                            fetch_stall_cycles += span
                        if front_end:
                            if rename_counter == 2:
                                stall_rob_full += span
                            elif rename_counter == 3:
                                stall_iq_full += span
                            elif rename_counter == 4:
                                stall_lsq_full += span
                            elif rename_counter == 5:
                                stall_no_physical_register += span
                            rename_stall_cycles += span
                        cycle = target
                        continue

        # ---- retire ---------------------------------------------------------
        if rob:
            seq = rob[0]
            head_complete = complete_cycle[seq]
            if head_complete != NEVER and head_complete <= cycle:
                retired = 0
                while rob and retired < retire_width:
                    seq = rob[0]
                    head_complete = complete_cycle[seq]
                    if head_complete == NEVER or head_complete > cycle:
                        break
                    rob.popleft()
                    previous = prev_phys[seq]
                    if previous >= 0:
                        free_list.append(previous)
                    if (flags_col[seq] & TF_MEMORY) and lsq \
                            and lsq[0] == seq:
                        lsq.popleft()
                        lsq_present[seq] = 0
                    committed_instructions += size_col[seq]
                    committed_slots += 1
                    if is_handle_col[seq]:
                        committed_handles += 1
                    retired += 1
                retired_entries += retired

        # ---- complete -------------------------------------------------------
        finishing = complete_buckets.pop(cycle, None)
        if finishing:
            for seq in finishing:
                flags = flags_col[seq]
                if flags & TF_CONTROL:
                    # Control resolution: train the hybrid direction
                    # predictor and the BTB with the resolved outcome.
                    taken = bool(flags & TF_TAKEN)
                    pc = pc_col[seq]
                    shifted = pc >> 2
                    if is_cond_col[seq]:
                        base = shifted & pred_mask
                        hashed = (shifted ^ history) & pred_mask
                        bimodal_counter = bimodal[base]
                        gshare_counter = gshare[hashed]
                        bimodal_correct = (bimodal_counter >= 2) == taken
                        if bimodal_correct != ((gshare_counter >= 2) == taken):
                            counter = chooser[base]
                            if bimodal_correct:
                                if counter > 0:
                                    chooser[base] = counter - 1
                            elif counter < 3:
                                chooser[base] = counter + 1
                        if taken:
                            if bimodal_counter < 3:
                                bimodal[base] = bimodal_counter + 1
                            if gshare_counter < 3:
                                gshare[hashed] = gshare_counter + 1
                            history = ((history << 1) | 1) & history_mask
                        else:
                            if bimodal_counter > 0:
                                bimodal[base] = bimodal_counter - 1
                            if gshare_counter > 0:
                                gshare[hashed] = gshare_counter - 1
                            history = (history << 1) & history_mask
                        if bool(pred_taken[seq]) != taken:
                            mispredictions += 1
                    if taken:
                        bucket = btb_table[shifted % btb_sets]
                        for position, entry in enumerate(bucket):
                            if entry[0] == pc:
                                del bucket[position]
                                break
                        bucket.insert(0, (pc, next_pc_col[seq]))
                        if len(bucket) > btb_assoc:
                            del bucket[btb_assoc:]
                    if fetch_blocked_on == seq:
                        fetch_blocked_on = -1
                        resume = cycle + redirect_penalty
                        if resume > fetch_stalled_until:
                            fetch_stalled_until = resume
                if flags & TF_MEMORY:
                    lsq_completed[seq] = 1
                    if flags & TF_STORE:
                        set_id = ssit.get((pc_col[seq] >> 2)
                                          % store_set_entries)
                        if set_id is not None and lfst.get(set_id) == seq:
                            del lfst[set_id]

        # ---- issue ----------------------------------------------------------
        woken = wake_buckets.pop(cycle, None)
        if woken or ready_heap:
            # Functional-unit begin_cycle: reset per-cycle port usage, drop
            # stale reservations and cache this cycle's reserved counts.
            plain_used = 0
            pipeline_used = 0
            fp_used = 0
            load_used = 0
            store_used = 0
            memory_handles_issued = 0
            now = None
            if reservations:
                stale = [key for key in reservations if key < cycle]
                for key in stale:
                    del reservations[key]
                now = reservations.get(cycle)
            if now:
                now_alu = now.get(FU_ALU, 0)
                now_pipeline = now.get(FU_ALU_PIPELINE, 0)
                now_load = now.get(FU_LOAD, 0)
                now_store = now.get(FU_STORE, 0)
            else:
                now_alu = now_pipeline = now_load = now_store = 0

            if woken:
                for seq in woken:
                    heappush(ready_heap, seq)
            issued = 0
            deferred: List[int] = []
            while ready_heap and issued < issue_width:
                seq = heappop(ready_heap)
                flags = flags_col[seq]
                if flags & TF_MEMORY and not flags & TF_STORE:
                    # Store-sets scheduling: only *older* in-flight stores
                    # can hold a load back (the LFST may name younger ones).
                    set_id = ssit.get((pc_col[seq] >> 2) % store_set_entries)
                    predicted = None if set_id is None else lfst.get(set_id)
                    if predicted is not None and predicted < seq \
                            and lsq_present[predicted] \
                            and flags_col[predicted] & TF_STORE \
                            and not lsq_completed[predicted]:
                        deferred.append(seq)
                        continue
                kind = kind_col[seq]
                if kind == kind_int:
                    if plain_alu_units - plain_used - now_alu > 0:
                        plain_used += 1
                    elif alu_pipelines - pipeline_used - now_pipeline > 0:
                        pipeline_used += 1
                    else:
                        deferred.append(seq)
                        continue
                    latency = latency_col[seq]
                    output_latency = latency
                elif kind == kind_load:
                    if load_used + now_load >= load_ports:
                        deferred.append(seq)
                        continue
                    load_used += 1
                    address = ea_col[seq]
                    # Data access walks L1D then the unified L2 (inclusive:
                    # a miss installs the line at every level).
                    dcache_accesses += 1
                    tag = address // d_line_bytes
                    entries = d_sets[tag % d_num_sets]
                    if tag in entries:
                        if entries[0] != tag:
                            entries.remove(tag)
                            entries.insert(0, tag)
                        latency = dcache_hit
                    else:
                        dcache_misses += 1
                        entries.insert(0, tag)
                        if len(entries) > d_assoc:
                            del entries[d_assoc:]
                        tag = address // l2_line_bytes
                        entries = l2_sets[tag % l2_num_sets]
                        if tag in entries:
                            if entries[0] != tag:
                                entries.remove(tag)
                                entries.insert(0, tag)
                            latency = dcache_hit + l2_hit
                        else:
                            entries.insert(0, tag)
                            if len(entries) > l2_assoc:
                                del entries[l2_assoc:]
                            latency = dcache_hit + l2_hit + memory_latency
                    loads_executed += 1
                    if flags & TF_HAS_EA:
                        # Ordering check: an older conflicting store that has
                        # not executed means this load issued too early.
                        for other in lsq:
                            if other >= seq:
                                break
                            other_flags = flags_col[other]
                            if not other_flags & TF_STORE \
                                    or lsq_completed[other]:
                                continue
                            has_address = other_flags & TF_HAS_EA
                            if has_address and lsq_issued[other]:
                                continue
                            if has_address and ea_col[other] == address:
                                ordering_violations += 1
                                load_index = (pc_col[seq] >> 2) \
                                    % store_set_entries
                                store_index = (pc_col[other] >> 2) \
                                    % store_set_entries
                                load_set = ssit.get(load_index)
                                store_set = ssit.get(store_index)
                                if load_set is None and store_set is None:
                                    ssit[load_index] = next_set_id
                                    ssit[store_index] = next_set_id
                                    next_set_id += 1
                                elif load_set is None:
                                    ssit[load_index] = store_set
                                elif store_set is None:
                                    ssit[store_index] = load_set
                                else:
                                    winner = load_set if load_set < store_set \
                                        else store_set
                                    ssit[load_index] = winner
                                    ssit[store_index] = winner
                                resume = cycle + ordering_penalty
                                if resume > fetch_stalled_until:
                                    fetch_stalled_until = resume
                                break
                    lsq_issued[seq] = 1
                    output_latency = latency
                elif kind == kind_store:
                    if store_used + now_store >= store_ports:
                        deferred.append(seq)
                        continue
                    store_used += 1
                    stores_executed += 1
                    lsq_issued[seq] = 1
                    # Stores write the cache at retirement; scheduling-wise
                    # the store computes address/data in one cycle.
                    latency = 1
                    output_latency = 1
                elif kind == kind_fp:
                    if fp_used >= fp_units:
                        deferred.append(seq)
                        continue
                    fp_used += 1
                    latency = latency_col[seq]
                    output_latency = latency
                elif kind == kind_handle:
                    op = ops[index_col[seq]]
                    if op.integer_only and alu_pipelines > 0:
                        if alu_pipelines - pipeline_used - now_pipeline <= 0:
                            deferred.append(seq)
                            continue
                        pipeline_used += 1
                    else:
                        if not sliding_window and not op.integer_only:
                            raise TimingError(
                                "integer-memory handles require the "
                                "sliding-window scheduler; config "
                                f"{config.name!r} does not enable it")
                        # can_issue_memory_handle, inlined: first-cycle port
                        # availability plus the sliding-window reservation.
                        ok = memory_handles_issued < max_memory_handles
                        if ok:
                            unit = op.fu0
                            if unit.startswith(FU_ALU_PIPELINE):
                                unit = FU_ALU_PIPELINE
                            elif unit == FU_BRANCH:
                                unit = FU_ALU
                            if unit == FU_LOAD:
                                ok = load_used + now_load < load_ports
                            elif unit == FU_STORE:
                                ok = store_used + now_store < store_ports
                            elif unit == FU_ALU_PIPELINE:
                                ok = alu_pipelines - pipeline_used \
                                    - now_pipeline > 0
                            else:
                                ok = (plain_alu_units - plain_used
                                      - now_alu > 0
                                      or alu_pipelines - pipeline_used
                                      - now_pipeline > 0)
                        if ok:
                            for offset, unit in enumerate(op.fubmp, 1):
                                if unit is None:
                                    continue
                                if unit.startswith(FU_ALU_PIPELINE):
                                    unit = FU_ALU_PIPELINE
                                elif unit == FU_BRANCH:
                                    unit = FU_ALU
                                bucket = reservations.get(cycle + offset)
                                reserved = 0 if bucket is None \
                                    else bucket.get(unit, 0)
                                if unit == FU_LOAD:
                                    capacity = load_ports
                                elif unit == FU_STORE:
                                    capacity = store_ports
                                elif unit == FU_ALU_PIPELINE:
                                    capacity = pipeline_future_cap
                                else:
                                    capacity = alu_future_cap
                                if reserved >= capacity:
                                    ok = False
                                    break
                        if not ok:
                            # A reservation conflict consumes the issue slot
                            # without issuing anything (Section 4.3).
                            issued += 1
                            sliding_window_conflicts += 1
                            deferred.append(seq)
                            continue
                        # issue_memory_handle: consume the first-cycle unit
                        # and reserve the future ones.
                        unit = op.fu0
                        if unit.startswith(FU_ALU_PIPELINE):
                            unit = FU_ALU_PIPELINE
                        elif unit == FU_BRANCH:
                            unit = FU_ALU
                        if unit == FU_LOAD:
                            load_used += 1
                        elif unit == FU_STORE:
                            store_used += 1
                        elif unit == FU_ALU_PIPELINE:
                            pipeline_used += 1
                        elif plain_alu_units - plain_used - now_alu > 0:
                            plain_used += 1
                        else:
                            pipeline_used += 1
                        for offset, unit in enumerate(op.fubmp, 1):
                            if unit is None:
                                continue
                            if unit.startswith(FU_ALU_PIPELINE):
                                unit = FU_ALU_PIPELINE
                            elif unit == FU_BRANCH:
                                unit = FU_ALU
                            bucket = reservations.get(cycle + offset)
                            if bucket is None:
                                reservations[cycle + offset] = {unit: 1}
                            else:
                                bucket[unit] = bucket.get(unit, 0) + 1
                        memory_handles_issued += 1

                    execution_cycles = op.execution_cycles
                    output_latency = op.header_lat
                    extra_memory = 0
                    if op.has_load:
                        address = ea_col[seq]
                        dcache_accesses += 1
                        tag = address // d_line_bytes
                        entries = d_sets[tag % d_num_sets]
                        if tag in entries:
                            if entries[0] != tag:
                                entries.remove(tag)
                                entries.insert(0, tag)
                            mem_latency = dcache_hit
                        else:
                            dcache_misses += 1
                            entries.insert(0, tag)
                            if len(entries) > d_assoc:
                                del entries[d_assoc:]
                            tag = address // l2_line_bytes
                            entries = l2_sets[tag % l2_num_sets]
                            if tag in entries:
                                if entries[0] != tag:
                                    entries.remove(tag)
                                    entries.insert(0, tag)
                                mem_latency = dcache_hit + l2_hit
                            else:
                                entries.insert(0, tag)
                                if len(entries) > l2_assoc:
                                    del entries[l2_assoc:]
                                mem_latency = dcache_hit + l2_hit \
                                    + memory_latency
                        loads_executed += 1
                        if flags & TF_HAS_EA:
                            for other in lsq:
                                if other >= seq:
                                    break
                                other_flags = flags_col[other]
                                if not other_flags & TF_STORE \
                                        or lsq_completed[other]:
                                    continue
                                has_address = other_flags & TF_HAS_EA
                                if has_address and lsq_issued[other]:
                                    continue
                                if has_address and ea_col[other] == address:
                                    ordering_violations += 1
                                    load_index = (pc_col[seq] >> 2) \
                                        % store_set_entries
                                    store_index = (pc_col[other] >> 2) \
                                        % store_set_entries
                                    load_set = ssit.get(load_index)
                                    store_set = ssit.get(store_index)
                                    if load_set is None \
                                            and store_set is None:
                                        ssit[load_index] = next_set_id
                                        ssit[store_index] = next_set_id
                                        next_set_id += 1
                                    elif load_set is None:
                                        ssit[load_index] = store_set
                                    elif store_set is None:
                                        ssit[store_index] = load_set
                                    else:
                                        winner = load_set \
                                            if load_set < store_set \
                                            else store_set
                                        ssit[load_index] = winner
                                        ssit[store_index] = winner
                                    resume = cycle + ordering_penalty
                                    if resume > fetch_stalled_until:
                                        fetch_stalled_until = resume
                                    break
                        lsq_issued[seq] = 1
                        extra_memory = mem_latency - dcache_hit
                        if extra_memory < 0:
                            extra_memory = 0
                        if extra_memory > 0 and op.has_interior_load:
                            # An interior load missed: the whole mini-graph
                            # replays once the miss returns (Section 4.3).
                            minigraph_replays += 1
                            extra_memory += replay_penalty + execution_cycles
                            output_latency = execution_cycles + extra_memory
                        elif extra_memory > 0 and op.out_is_last:
                            output_latency += extra_memory
                    elif op.has_store:
                        stores_executed += 1
                        lsq_issued[seq] = 1
                    latency = execution_cycles + extra_memory
                    # The MGST sequencer frees the scheduler entry only when
                    # the terminal instruction issues.
                    heappush(busy_heap, cycle + execution_cycles)
                else:
                    raise TimingError(
                        f"cannot issue opcode {ops[index_col[seq]].op}")

                # -- finish_issue, inlined --------------------------------
                iq_count -= 1
                finish = cycle + register_read_latency + latency
                complete_cycle[seq] = finish
                bucket = complete_buckets.get(finish)
                if bucket is None:
                    complete_buckets[finish] = [seq]
                else:
                    bucket.append(seq)
                dest = dest_phys[seq]
                if dest >= 0:
                    broadcast = cycle + (output_latency
                                         if output_latency > scheduler_latency
                                         else scheduler_latency)
                    ready_cycle[dest] = broadcast
                    waiters = reg_waiters.pop(dest, None)
                    if waiters:
                        for consumer in waiters:
                            pending_arr[consumer] -= 1
                            if wake_arr[consumer] < broadcast:
                                wake_arr[consumer] = broadcast
                            if pending_arr[consumer] == 0:
                                wake = wake_arr[consumer]
                                wake_bucket = wake_buckets.get(wake)
                                if wake_bucket is None:
                                    wake_buckets[wake] = [consumer]
                                else:
                                    wake_bucket.append(consumer)
                issued += 1
                issue_slots_used += 1
            for seq in deferred:
                heappush(ready_heap, seq)

        # ---- rename ---------------------------------------------------------
        if front_end:
            renamed = 0
            horizon = cycle - front_end_depth
            while front_end and renamed < rename_width:
                seq = front_end[0]
                if fetch_cycle_arr[seq] > horizon:
                    break
                if len(rob) >= rob_size:
                    stall_rob_full += 1
                    break
                while busy_heap and busy_heap[0] <= cycle:
                    heappop(busy_heap)
                if iq_count + len(busy_heap) >= iq_size:
                    stall_iq_full += 1
                    break
                flags = flags_col[seq]
                if flags & TF_MEMORY and len(lsq) >= lsq_size:
                    stall_lsq_full += 1
                    break
                needs_destination = needs_dest_col[seq]
                if needs_destination and not free_list:
                    stall_no_physical_register += 1
                    break
                front_end.popleft()
                # -- rename_one, inlined ----------------------------------
                source0 = src0_col[seq]
                source1 = src1_col[seq]
                physical0 = rename_map.get(source0) if source0 >= 0 else None
                physical1 = rename_map.get(source1) if source1 >= 0 else None
                if needs_destination:
                    physical = free_list.popleft()
                    destination = dest_col[seq]
                    previous = rename_map.get(destination)
                    prev_phys[seq] = -1 if previous is None else previous
                    rename_map[destination] = physical
                    dest_phys[seq] = physical
                    ready_cycle[physical] = FOREVER
                pending = 0
                wake = cycle + 1
                if physical0 is not None:
                    broadcast = ready_cycle.get(physical0, 0)
                    if broadcast >= FOREVER:
                        pending = 1
                        waiters = reg_waiters.get(physical0)
                        if waiters is None:
                            reg_waiters[physical0] = [seq]
                        else:
                            waiters.append(seq)
                    elif broadcast > wake:
                        wake = broadcast
                if physical1 is not None:
                    broadcast = ready_cycle.get(physical1, 0)
                    if broadcast >= FOREVER:
                        pending += 1
                        waiters = reg_waiters.get(physical1)
                        if waiters is None:
                            reg_waiters[physical1] = [seq]
                        else:
                            waiters.append(seq)
                    elif broadcast > wake:
                        wake = broadcast
                if pending:
                    pending_arr[seq] = pending
                    wake_arr[seq] = wake
                else:
                    bucket = wake_buckets.get(wake)
                    if bucket is None:
                        wake_buckets[wake] = [seq]
                    else:
                        bucket.append(seq)
                iq_count += 1
                rob.append(seq)
                if flags & TF_MEMORY:
                    lsq_present[seq] = 1
                    lsq.append(seq)
                    if flags & TF_STORE:
                        set_id = ssit.get((pc_col[seq] >> 2)
                                          % store_set_entries)
                        if set_id is not None:
                            lfst[set_id] = seq
                renamed += 1
            if renamed == 0:
                rename_stall_cycles += 1

        # ---- fetch ----------------------------------------------------------
        if fetch_index < total or fetch_blocked_on >= 0 \
                or cycle < fetch_stalled_until:
            if fetch_blocked_on >= 0 or cycle < fetch_stalled_until:
                fetch_stall_cycles += 1
            elif fetch_index < total:
                if len(front_end) >= fetch_buffer_limit:
                    fetch_stall_cycles += 1
                else:
                    fetched = 0
                    current_line = -1
                    seq = fetch_index
                    while fetched < fetch_width and seq < total:
                        line = line_col[seq]
                        if line != current_line:
                            # L1I access (tag == line), then the unified L2.
                            entries = i_sets[line % i_num_sets]
                            if line in entries:
                                if entries[0] != line:
                                    entries.remove(line)
                                    entries.insert(0, line)
                                latency = icache_hit
                            else:
                                icache_misses += 1
                                entries.insert(0, line)
                                if len(entries) > i_assoc:
                                    del entries[i_assoc:]
                                tag = addr_col[seq] // l2_line_bytes
                                entries = l2_sets[tag % l2_num_sets]
                                if tag in entries:
                                    if entries[0] != tag:
                                        entries.remove(tag)
                                        entries.insert(0, tag)
                                    latency = icache_hit + l2_hit
                                else:
                                    entries.insert(0, tag)
                                    if len(entries) > l2_assoc:
                                        del entries[l2_assoc:]
                                    latency = icache_hit + l2_hit \
                                        + memory_latency
                            if latency > icache_hit:
                                # Instruction-cache miss: charge it and stop
                                # fetching this cycle.
                                resume = cycle + latency
                                if resume > fetch_stalled_until:
                                    fetch_stalled_until = resume
                                if fetched == 0:
                                    fetch_stall_cycles += 1
                                break
                            current_line = line
                        fetch_cycle_arr[seq] = cycle
                        front_end.append(seq)
                        fetched += 1
                        fetched_slots += 1
                        flags = flags_col[seq]
                        seq += 1
                        if flags & TF_CONTROL:
                            branch_lookups += 1
                            here = seq - 1
                            pc = pc_col[here]
                            shifted = pc >> 2
                            # BTB lookup, then the hybrid direction predict.
                            bucket = btb_table[shifted % btb_sets]
                            target = None
                            for position, entry in enumerate(bucket):
                                if entry[0] == pc:
                                    if position:
                                        bucket.insert(0, bucket.pop(position))
                                    target = entry[1]
                                    break
                            if is_cond_col[here]:
                                taken = (gshare[(shifted ^ history)
                                                & pred_mask]
                                         if chooser[shifted & pred_mask] >= 2
                                         else bimodal[shifted
                                                      & pred_mask]) >= 2
                            else:
                                taken = True
                            if taken and target is None:
                                # Without a BTB target the front end cannot
                                # redirect; falls back to not-taken.
                                taken = False
                            pred_taken[here] = 1 if taken else 0
                            actual_taken = bool(flags & TF_TAKEN)
                            target_correct = (not actual_taken) \
                                or target == next_pc_col[here]
                            if taken != actual_taken or not target_correct:
                                fetch_blocked_on = here
                                break
                            if actual_taken:
                                # Correctly predicted taken branches still
                                # end the fetch group.
                                break
                    fetch_index = seq

        # ---- per-cycle occupancy accounting ---------------------------------
        rob_occupancy_sum += len(rob)
        while busy_heap and busy_heap[0] <= cycle:
            heappop(busy_heap)
        iq_occupancy_sum += iq_count + len(busy_heap)
        registers_in_use_sum += physical_registers - len(free_list)
        cycle += 1

    stats = PipelineStats()
    stats.cycles = cycle
    stats.committed_instructions = committed_instructions
    stats.committed_slots = committed_slots
    stats.committed_handles = committed_handles
    stats.fetched_slots = fetched_slots
    stats.fetch_stall_cycles = fetch_stall_cycles
    stats.rename_stall_cycles = rename_stall_cycles
    stats.issue_slots_used = issue_slots_used
    stats.branch_lookups = branch_lookups
    stats.branch_mispredictions = mispredictions
    stats.icache_misses = icache_misses
    stats.dcache_accesses = dcache_accesses
    stats.dcache_misses = dcache_misses
    stats.loads_executed = loads_executed
    stats.stores_executed = stores_executed
    stats.ordering_violations = ordering_violations
    stats.minigraph_replays = minigraph_replays
    stats.sliding_window_conflicts = sliding_window_conflicts
    stats.stall_rob_full = stall_rob_full
    stats.stall_iq_full = stall_iq_full
    stats.stall_lsq_full = stall_lsq_full
    stats.stall_no_physical_register = stall_no_physical_register
    stats.rob_occupancy_sum = rob_occupancy_sum
    stats.iq_occupancy_sum = iq_occupancy_sum
    stats.physical_registers_in_use_sum = registers_in_use_sum
    return stats
