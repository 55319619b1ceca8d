"""Layer tracing from outside the program: wrap public calls, keep spans.

:class:`Tracer` replaces the public entry points of each layer (the table
in :data:`LAYER_CALLS`) with timing wrappers, in the defining module and in
every loaded ``repro`` module that imported the name directly, and puts the
originals back on :meth:`Tracer.close`.  Nothing under ``src/`` changes.

Each wrapped call is one span: name, start, end and the enclosing span.
Spans live in flat arrays in memory and are written once, by
:meth:`Tracer.write`, when the run ends.  A layer's *self time* is the
duration of its spans minus the time their child spans cover, so the
self times of all layers add up to at most the traced wall-clock; the rest
is reported as ``unattributed_s``.

Spans are recorded only on the thread and process that created the tracer
and only inside :meth:`Tracer.window` (the timed region of the workload).
That keeps a daemon's handler threads and forked pool workers out of the
split: their work overlaps the driving thread's wait, which the serve
spans already account for.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (layer span name, defining module, attribute path) of every wrapped call.
#: ``run_program`` is split into ``sim.profile``/``sim.trace`` by its
#: ``mgt=`` argument.  Every target must exist: :meth:`Tracer.install`
#: refuses a tree where one is missing, so a refactor that moves an entry
#: point fails the traced run instead of reporting a layer as zero; update
#: the table with it.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("uarch.timing", "repro.uarch.batch", "BatchedTimingSimulator.run"),
    ("uarch.timing", "repro.uarch.batch", "BatchedTimingSimulator.from_lanes"),
    ("uarch.timing", "repro.uarch.pipeline", "simulate_program"),
    ("sim", "repro.sim.functional", "run_program"),
    ("minigraph.select", "repro.minigraph.selection", "select_minigraphs"),
    ("minigraph.mgt", "repro.minigraph.mgt", "MiniGraphTable.from_selection"),
    ("program.rewrite", "repro.program.rewriter", "rewrite_program"),
    ("api.keys", "repro.api.keys", "content_hash"),
    ("grid.cell_key", "repro.grid.engine", "cell_key"),
    ("grid.plan", "repro.grid.planner", "plan_grid"),
    ("api.store.get", "repro.api.store", "ArtifactStore.get"),
    ("api.store.put", "repro.api.store", "ArtifactStore.put"),
    ("workloads.load", "repro.workloads", "load_benchmark"),
    ("serve.submit", "repro.serve.client", "ServeClient.submit_cells"),
    ("serve.stream", "repro.serve.client", "ServeClient.stream"),
    ("serve.poll", "repro.serve.client", "ServeClient.poll"),
)

#: Every span name a run can report self time for.
SPAN_NAMES: Tuple[str, ...] = (
    "uarch.timing", "sim.profile", "sim.trace", "minigraph.select",
    "minigraph.mgt", "program.rewrite", "api.keys", "grid.cell_key",
    "grid.plan", "api.store.get", "api.store.put", "workloads.load",
    "serve.submit", "serve.stream", "serve.poll")


class MissingEntryPoint(Exception):
    """A :data:`LAYER_CALLS` target is not in this tree."""


class Tracer:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._active = False
        self._names: List[str] = list(SPAN_NAMES)
        self._name_ids = {name: index for index, name in enumerate(self._names)}
        # Span columns: name id, parent span (-1 = none), start, end.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Stack of [span index, start, time covered by children].
        self._stack: List[List[Any]] = []
        self.self_time: Dict[str, float] = {name: 0.0 for name in self._names}
        self.calls: Dict[str, int] = {name: 0 for name in self._names}
        #: Work counters gathered from call results (lanes, instructions...).
        self.counts: Dict[str, float] = {}
        #: Wall-clock seconds spent inside :meth:`window`.
        self.window_seconds = 0.0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _recording(self) -> bool:
        return (self._active and threading.get_ident() == self._thread
                and os.getpid() == self._pid)

    def _enter(self, name: str) -> None:
        index = len(self.span_name)
        self.span_name.append(self._name_ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([index, start, 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        index, start, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def window(self) -> Iterator[None]:
        """The timed region: spans are recorded only inside it."""
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.window_seconds += time.perf_counter() - start
            self._active = False

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, layer: str, original: Callable) -> Callable:
        tracer = self
        hook = _RESULT_HOOKS.get(original.__qualname__)
        if layer == "serve.stream":
            def stream(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    if not tracer._recording():
                        try:
                            yield next(iterator)
                        except StopIteration:
                            return
                        continue
                    tracer._enter(layer)
                    try:
                        row = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(layer)
                    yield row
            return stream

        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return original(*args, **kwargs)
            name = layer
            if layer == "sim":
                name = "sim.trace" if kwargs.get("mgt") is not None \
                    else "sim.profile"
            before = _before(original.__qualname__)
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name)
            if hook is not None:
                hook(tracer, args, kwargs, result, before)
            return result
        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every :data:`LAYER_CALLS` target.

        Raises :class:`MissingEntryPoint`, wrapping nothing, when a target
        cannot be imported or found.
        """
        targets = []
        missing = []
        for layer, module_name, path in LAYER_CALLS:
            owner_name, _, attr = path.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            raw = owner.__dict__.get(attr)
            if raw is None:
                missing.append(f"{module_name}.{path}")
                continue
            targets.append((layer, owner, owner_name, attr, raw))
        if missing:
            raise MissingEntryPoint(
                "traced entry points not found (update tracer.LAYER_CALLS): "
                + ", ".join(missing))
        for layer, owner, owner_name, attr, raw in targets:
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
                self._patch(owner, attr, raw, wrapped)
            elif owner_name:
                self._patch(owner, attr, raw, self._wrap(layer, raw))
            else:
                wrapped = self._wrap(layer, raw)
                # Rebind the name in every loaded module that imported it
                # directly (``from .keys import content_hash``).
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") \
                            and getattr(other, attr, None) is raw:
                        self._patch(other, attr, raw, wrapped)
        return self

    def _patch(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def close(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        return sum(self.self_time.values())

    def write(self, path: str) -> None:
        """Write every span as gzip'd TSV: id, parent, name, start, end."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            for index in range(len(self.span_name)):
                handle.write(
                    f"{index}\t{self.span_parent[index]}\t"
                    f"{self._names[self.span_name[index]]}\t"
                    f"{self.span_start[index] - origin:.9f}\t"
                    f"{self.span_end[index] - origin:.9f}\n")


# -- result hooks: work counts measured where the work happens ------------------


def _before(qualname: str) -> Any:
    if qualname == "select_minigraphs":
        from repro.minigraph.registry import FRONTEND_STATS
        return FRONTEND_STATS.snapshot()
    return None


def _timing_run(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("uarch.passes")
    tracer.count("uarch.lanes", len(result))
    tracer.count("uarch.insts", sum(stats.committed_instructions
                                    for stats in result if stats is not None))


def _simulate_program(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("uarch.passes")
    tracer.count("uarch.lanes")
    tracer.count("uarch.insts", result.committed_instructions)


def _run_program(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("sim.insts", result.instructions_executed)


def _select(tracer: Tracer, args, kwargs, result, before) -> None:
    from repro.minigraph.registry import FRONTEND_STATS
    delta = FRONTEND_STATS.delta_since(before)
    tracer.count("minigraph.candidates", result.candidate_count)
    tracer.count("minigraph.memo_hits", delta.block_memo_hits)
    tracer.count("minigraph.memo_lookups",
                 delta.block_memo_hits + delta.block_memo_misses)


def _store_get(tracer: Tracer, args, kwargs, result, before) -> None:
    from repro.api.store import MISS
    if result is not MISS:
        tracer.count("api.store.hits")


def _poll(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("serve.queue_wait_s", result.get("queued_seconds") or 0.0)


_RESULT_HOOKS: Dict[str, Callable] = {
    "BatchedTimingSimulator.run": _timing_run,
    "simulate_program": _simulate_program,
    "run_program": _run_program,
    "select_minigraphs": _select,
    "ArtifactStore.get": _store_get,
    "ServeClient.poll": _poll,
}


def layer_metrics(tracer: Tracer, *, disk_bytes: int, rows: int,
                  resumed_rows: int) -> Dict[str, float]:
    """The ``per_layer`` metric values of one traced run, but for
    ``trace_overhead_frac``: that compares with the untraced run of the
    same work, which ``run.py`` scales by host speed first."""
    self_time, calls, counts = tracer.self_time, tracer.calls, tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    timing_s = self_time["uarch.timing"]
    sim_s = self_time["sim.profile"] + self_time["sim.trace"]
    get_calls = calls["api.store.get"]
    return {
        "uarch.timing_s": timing_s,
        "uarch.lanes": counts.get("uarch.lanes", 0),
        "uarch.passes": counts.get("uarch.passes", 0),
        "uarch.sim_insts_per_s": ratio(counts.get("uarch.insts", 0), timing_s),
        "sim.profile_s": self_time["sim.profile"],
        "sim.trace_s": self_time["sim.trace"],
        "sim.calls": calls["sim.profile"] + calls["sim.trace"],
        "sim.insts_per_s": ratio(counts.get("sim.insts", 0), sim_s),
        "minigraph.select_s": self_time["minigraph.select"],
        "minigraph.select_calls": calls["minigraph.select"],
        "minigraph.candidates": counts.get("minigraph.candidates", 0),
        "minigraph.memo_hit_rate": ratio(counts.get("minigraph.memo_hits", 0),
                                         counts.get("minigraph.memo_lookups", 0)),
        "minigraph.mgt_s": self_time["minigraph.mgt"],
        "program.rewrite_s": self_time["program.rewrite"],
        "api.keys_s": self_time["api.keys"],
        "api.keys_calls": calls["api.keys"],
        "grid.cell_key_s": self_time["grid.cell_key"],
        "grid.cell_key_calls": calls["grid.cell_key"],
        "grid.plan_s": self_time["grid.plan"],
        "api.store.get_s": self_time["api.store.get"],
        "api.store.put_s": self_time["api.store.put"],
        "api.store.get_calls": get_calls,
        "api.store.put_calls": calls["api.store.put"],
        "api.store.hit_rate": ratio(counts.get("api.store.hits", 0), get_calls),
        "api.store.disk_bytes": disk_bytes,
        "workloads.load_s": self_time["workloads.load"],
        # Request round-trips: the submit plus the end-of-job poll.
        "serve.submit_s": self_time["serve.submit"] + self_time["serve.poll"],
        "serve.queue_wait_s": counts.get("serve.queue_wait_s", 0.0),
        "serve.stream_s": self_time["serve.stream"],
        "serve.resumed_frac": ratio(resumed_rows, rows),
        "unattributed_s": tracer.window_seconds - tracer.attributed_seconds,
    }
