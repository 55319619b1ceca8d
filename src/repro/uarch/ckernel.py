"""Build, cache and call the compiled timing kernel (``_kernel.c``).

``_kernel.c`` is a line-for-line C port of the fused per-lane kernel
(:func:`repro.uarch.batch._run_lane_python`).  It is built on first use with
the system C compiler (``$CC``, else ``cc``) and loaded through
:mod:`ctypes`; nothing is built at install or import time.

**Build cache.**  The shared object lives in a host-level cache,
``default_cache_dir()/kernel/<source hash>-<compiler id>.so`` — not in a
:class:`~repro.api.session.Session`'s artifact store, so an empty store never
triggers a rebuild.  The source hash covers ``_kernel.c``'s bytes (the exact
bytes handed to the compiler, on stdin); the compiler id covers the resolved
compiler binary (path, size, mtime) and the machine architecture, so a load
never spawns a process once the object exists.  Builds write a temporary
file in the cache directory and ``os.replace`` it into place, so concurrent
builders (pool workers starting together) each publish a complete object.

**Fallback.**  Without a working compiler (or a writable cache), the first
timing call prints one line to stderr and every lane runs in the Python
kernel; the two kernels differ only in speed.

**Contract.**  For every lane the C kernel returns the 25
:class:`~repro.uarch.stats.PipelineStats` counters the Python kernel
computes, or the error the Python kernel raises (same type, same message).
Inputs it cannot mirror exactly come back as "unsupported" and the caller
reruns that lane in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple

from ..minigraph.mgt import (
    FU_ALU,
    FU_ALU_PIPELINE,
    FU_BRANCH,
    FU_LOAD,
    FU_STORE,
)
from .config import MachineConfig
from .pipeline import TimingError
from .stats import PipelineStats

#: The C source, shipped as package data.
SOURCE = Path(__file__).with_name("_kernel.c")

#: Must equal ``REPRO_KERNEL_ABI`` in ``_kernel.c``.
ABI = 1

_OK, _WATCHDOG, _INTMEM_HANDLE, _UNISSUABLE, _UNSUPPORTED, _NOMEM = range(6)
_STAT_FIELDS = [field.name for field in fields(PipelineStats)]
_OUT_ERROR_SEQ = len(_STAT_FIELDS)
_OUT_RETIRED = _OUT_ERROR_SEQ + 1
_OUT_COUNT = _OUT_RETIRED + 1
_PARAM_COUNT = 43
_P_MAX_CYCLES = 39
#: Parameter slots that may be zero (or -1: no registers read); every
#: other slot must be positive.
_PARAM_FLOOR = {8: 0, 12: 0, 13: 0, 14: 0, 18: 0, 19: 0, 20: 0, 21: 0,
                40: 0, 41: 0, 42: -1}
_INT64_MAX = (1 << 63) - 1
#: Largest trace the kernel's int32 sequence numbers index.
_MAX_ENTRIES = (1 << 30) - 1

_H_INTEGER_ONLY = 0x01
_H_HAS_LOAD = 0x02
_H_HAS_INTERIOR_LOAD = 0x04
_H_HAS_STORE = 0x08
_H_OUT_IS_LAST = 0x10


@dataclass(frozen=True)
class KernelInfo:
    """Which timing kernel this process runs: ``"c"`` or ``"python"``."""

    name: str
    path: Optional[str] = None       #: the loaded shared object (C only)
    reason: Optional[str] = None     #: why the C kernel is unavailable

    def describe(self) -> str:
        if self.name == "c":
            return f"c ({self.path})"
        return f"python ({self.reason})"


def kernel_cache_dir() -> Path:
    """Host-level build cache for compiled kernels."""
    from ..api.store import default_cache_dir
    return default_cache_dir() / "kernel"


def find_compiler() -> Tuple[Optional[List[str]], str]:
    """``(argv prefix, compiler id)`` for ``$CC`` (default ``cc``).

    The id is derived from the resolved binary's path, size and mtime plus
    the machine architecture — no process is spawned.  ``argv`` is ``None``
    when no compiler is found; the id is then a human-readable reason.
    """
    command = shlex.split(os.environ.get("CC") or "cc")
    resolved = shutil.which(command[0]) if command else None
    if resolved is None:
        named = command[0] if command else "cc"
        return None, f"no C compiler {named!r} found"
    real = os.path.realpath(resolved)
    try:
        status = os.stat(real)
    except OSError as error:
        return None, f"cannot stat C compiler {real!r}: {error.strerror}"
    identity = "\0".join([real, str(status.st_size), str(status.st_mtime_ns),
                          platform.machine(), " ".join(command[1:])])
    return [resolved] + command[1:], \
        hashlib.sha256(identity.encode()).hexdigest()[:16]


def kernel_path(source: bytes, compiler_id: str,
                cache_dir: Optional[Path] = None) -> Path:
    """Cache location of the object built from ``source`` by a compiler."""
    folder = cache_dir if cache_dir is not None else kernel_cache_dir()
    digest = hashlib.sha256(source).hexdigest()[:24]
    return folder / f"{digest}-{compiler_id}.so"


def build(compiler: List[str], source: bytes, target: Path) -> None:
    """Compile ``source`` into ``target`` atomically (temp + ``os.replace``).

    Raises ``OSError`` or :class:`subprocess.CalledProcessError`.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(prefix=target.stem + ".",
                                         suffix=".tmp", dir=target.parent)
    os.close(handle)
    try:
        subprocess.run(compiler + ["-O2", "-shared", "-fPIC", "-x", "c",
                                   "-o", temporary, "-"],
                       input=source, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE)
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


class CKernel:
    """A loaded ``_kernel.c`` object."""

    def __init__(self, path: Path) -> None:
        self.path = path
        library = ctypes.CDLL(str(path))
        if library.repro_kernel_abi() != ABI:
            raise OSError(f"{path}: kernel ABI mismatch")
        run = library.repro_run_lane
        run.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        run.restype = ctypes.c_int
        self._library = library
        self._run = run

    def run_lane(self, facts, config: MachineConfig,
                 max_cycles: int) -> Optional[PipelineStats]:
        """One lane through the C kernel.

        Returns the lane's statistics, raises the Python kernel's error for
        the lane, or returns ``None`` when the lane is outside what the C
        port mirrors exactly (the caller then runs the Python kernel).
        """
        table = _lane_table(facts)
        params = None if table is None \
            else _lane_params(facts, config, max_cycles, table)
        if params is None:
            return None
        # Buffer-protocol views: zero-copy, and while they live no column
        # can be resized under the kernel (which runs without the GIL).
        views = [(ctypes.c_char * (len(column) * column.itemsize))
                 .from_buffer(column) for column in table.columns]
        columns = (ctypes.c_void_p * len(views))(
            *[ctypes.addressof(view) for view in views])
        values = (ctypes.c_int64 * _PARAM_COUNT)(*params)
        out = (ctypes.c_int64 * _OUT_COUNT)()
        status = self._run(columns, values, out)
        del views
        if status == _OK:
            return PipelineStats(**dict(zip(_STAT_FIELDS, out)))
        if status == _WATCHDOG:
            raise TimingError(
                f"{facts.program.name}: exceeded {max_cycles} cycles "
                f"({out[_OUT_RETIRED]}/{facts.total} entries retired); "
                f"the pipeline is probably deadlocked")
        if status == _INTMEM_HANDLE:
            raise TimingError(
                "integer-memory handles require the sliding-window "
                f"scheduler; config {config.name!r} does not enable it")
        if status == _UNISSUABLE:
            raise TimingError(
                "cannot issue opcode "
                f"{facts.ops[facts.index[out[_OUT_ERROR_SEQ]]].op}")
        if status == _NOMEM:
            raise MemoryError("timing kernel: out of memory")
        return None


class _LaneTable:
    """Per-:class:`TraceFacts` kernel inputs: column buffers in slot order.

    Trace and decode columns are the facts' own arrays (read in place); the
    only additions are small per-static-instruction handle tables.
    """

    __slots__ = ("columns", "static_count", "max_register")

    def __init__(self, columns: List[array], static_count: int,
                 max_register: int) -> None:
        self.columns = columns
        self.static_count = static_count
        self.max_register = max_register


_UNIT_CODES = {FU_ALU: 0, FU_BRANCH: 0, FU_LOAD: 2, FU_STORE: 3}


def _unit_code(unit: Optional[str]) -> int:
    if unit is None:
        return -1
    if unit.startswith(FU_ALU_PIPELINE):
        return 1
    return _UNIT_CODES[unit]


#: (column, typecode) in the kernel's ``C_*`` slot order.
_FACT_COLUMNS = (
    ("pc", "Q"), ("next_pc", "Q"), ("ea", "Q"), ("addr", "Q"),
    ("index", "I"), ("size", "H"), ("flags", "B"), ("kind", "b"),
    ("latency", "i"), ("src0", "i"), ("src1", "i"), ("dest", "i"),
    ("needs_dest", "B"), ("is_cond", "B"), ("is_handle", "B"),
)
_ITEM_SIZES = {"Q": 8, "I": 4, "H": 2, "B": 1, "b": 1, "i": 4}


def _lane_table(facts) -> Optional[_LaneTable]:
    """The facts' kernel inputs, built once per facts (``None``: no C)."""
    table = facts.kernel_table
    if table is None:
        table = _build_table(facts)
        facts.kernel_table = table if table is not None else False
    return table or None


def _build_table(facts) -> Optional[_LaneTable]:
    columns: List[array] = []
    for name, typecode in _FACT_COLUMNS:
        column = getattr(facts, name)
        if not isinstance(column, array) or column.typecode != typecode \
                or column.itemsize != _ITEM_SIZES[typecode] \
                or len(column) != facts.total:
            return None
        columns.append(column)
    if facts.total > _MAX_ENTRIES:
        return None
    static_count = len(facts.program.instructions)
    h_flags = array("B", bytes(static_count))
    h_exec = array("i", bytes(4 * static_count))
    h_header = array("i", bytes(4 * static_count))
    h_fu0 = array("b", bytes(static_count))
    h_off = array("i", bytes(4 * static_count))
    h_len = array("i", bytes(4 * static_count))
    units = array("b")
    ops = facts.ops
    for index in facts.handle_indices:
        op = ops[index]
        h_flags[index] = ((_H_INTEGER_ONLY if op.integer_only else 0)
                          | (_H_HAS_LOAD if op.has_load else 0)
                          | (_H_HAS_INTERIOR_LOAD if op.has_interior_load
                             else 0)
                          | (_H_HAS_STORE if op.has_store else 0)
                          | (_H_OUT_IS_LAST if op.out_is_last else 0))
        try:
            h_fu0[index] = _unit_code(op.fu0)
            codes = [_unit_code(unit) for unit in op.fubmp]
        except (KeyError, AttributeError):
            return None
        h_exec[index] = op.execution_cycles
        h_header[index] = op.header_lat
        h_off[index] = len(units)
        h_len[index] = len(codes)
        units.extend(codes)
    units.append(-1)    # never empty, so its buffer has an address
    columns += [h_flags, h_exec, h_header, h_fu0, h_off, h_len, units]
    max_register = max(max(facts.src0, default=-1),
                       max(facts.src1, default=-1),
                       max(facts.dest, default=-1))
    return _LaneTable(columns, static_count, max_register)


def _lane_params(facts, config: MachineConfig, max_cycles: int,
                 table: _LaneTable) -> Optional[List[int]]:
    """The kernel's parameter vector, or ``None`` outside its domain."""
    icache, dcache, l2cache = config.icache, config.dcache, config.l2cache
    params = [
        config.fetch_width, config.rename_width, config.issue_width,
        config.retire_width, config.front_end_depth, config.rob_size,
        config.issue_queue_size, config.lsq_size,
        config.register_read_latency, config.scheduler_latency,
        config.physical_registers, config.architected_registers,
        config.plain_alu_units, config.alu_pipelines, config.fp_units,
        config.load_ports, config.store_ports,
        config.max_memory_handles_per_cycle,
        1 if config.sliding_window_scheduler else 0,
        config.misprediction_redirect_penalty,
        config.ordering_violation_penalty, config.minigraph_replay_penalty,
        config.predictor_entries, config.btb_entries,
        config.btb_associativity, config.store_set_entries,
        icache.line_bytes, icache.num_sets, icache.associativity,
        icache.hit_latency,
        dcache.line_bytes, dcache.num_sets, dcache.associativity,
        dcache.hit_latency,
        l2cache.line_bytes, l2cache.num_sets, l2cache.associativity,
        l2cache.hit_latency,
        config.memory_latency, max_cycles, facts.total, table.static_count,
        table.max_register,
    ]
    # Sizes, latencies and widths must be positive ints small enough that
    # no sum the kernel forms can overflow; anything else runs in Python.
    for position, value in enumerate(params):
        if type(value) is not int:
            return None
        if position == _P_MAX_CYCLES:
            if not 0 <= value < _INT64_MAX >> 1:
                return None
        elif not _PARAM_FLOOR.get(position, 1) <= value < 1 << 30:
            return None
    if config.physical_registers <= config.architected_registers:
        return None
    return params


# -- process-wide loading ------------------------------------------------------

_loaded: Optional[CKernel] = None
_info: Optional[KernelInfo] = None


def load_kernel(cache_dir: Optional[Path] = None
                ) -> Tuple[Optional[CKernel], KernelInfo]:
    """Build (if needed) and load the C kernel from the build cache.

    Returns ``(kernel or None, info)``.  Pure: it does not touch the
    process-wide kernel used by :func:`active_kernel`.
    """
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        return None, KernelInfo("python", reason=f"cannot read {SOURCE}: "
                                f"{error.strerror or error}")
    compiler, compiler_id = find_compiler()
    if compiler is None:
        return None, KernelInfo("python", reason=compiler_id)
    path = kernel_path(source, compiler_id, cache_dir)
    try:
        if not path.exists():
            build(compiler, source, path)
        kernel = CKernel(path)
    except subprocess.CalledProcessError as error:
        detail = (error.stderr or b"").decode(errors="replace").strip()
        first = detail.splitlines()[0] if detail \
            else f"exit {error.returncode}"
        return None, KernelInfo("python", reason=f"{compiler[0]} failed: "
                                f"{first}")
    except OSError as error:
        return None, KernelInfo("python", reason=f"cannot build or load "
                                f"{path}: {error.strerror or error}")
    return kernel, KernelInfo("c", path=str(path))


def kernel_info() -> Optional[KernelInfo]:
    """The process's kernel if a timing call has loaded one, else ``None``
    (never loads)."""
    return _info


def active_kernel() -> Tuple[Optional[CKernel], KernelInfo]:
    """The process's timing kernel, loaded once on first use.

    When the C kernel is unavailable this prints one line to stderr (once
    per process) and returns ``(None, info)``: callers use the Python
    kernel.
    """
    global _loaded, _info
    if _info is None:
        _loaded, _info = load_kernel()
        if _loaded is None:
            print(f"repro: C timing kernel unavailable ({_info.reason}); "
                  f"using the Python kernel", file=sys.stderr)
    return _loaded, _info
