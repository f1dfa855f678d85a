"""Benchmark-side span tracing around each layer's public methods.

:func:`instrument` wraps the public methods listed in :data:`LAYERS` at
class level for the duration of a ``with`` block.  Every call becomes one
span: a name, host start/end (``perf_counter_ns``), simulated start/end
(read from the session :class:`~repro.nvm.clock.Clock`, never charged),
the enclosing span and the id of the benchmark op it ran under (-1
outside the op loop).

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Self and total
times are folded into per-name aggregates as each span closes, so memory
stays flat however long the run; the full spans of a sample of ops are
kept as well and written out at the end.  The wrappers
read clocks only, so a traced run issues the same device traffic and
charges the same simulated time as an untraced one — the benchmark checks
this on every traced run.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: layer -> [(module, class, public methods wrapped)].  The layer names
#: are the per-layer metric prefixes.
LAYERS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "nvm": [
        ("repro.nvm.device", "NvmDevice",
         ("read", "write", "read_block", "write_block", "fill", "clflush",
          "fence", "persist_all")),
        ("repro.nvm.device", "AddressSpace",
         ("read", "write", "read_block", "write_block")),
        ("repro.nvm.persist", "PersistDomain",
         ("flush", "commit_epoch", "fence", "persist", "discard")),
    ],
    "runtime": [
        ("repro.runtime.vm", "EspressoVM",
         ("new", "new_array", "new_string", "pnew", "pnew_array",
          "pnew_string", "klass_of", "get_field", "set_field",
          "array_length", "array_get", "array_set", "array_copy",
          "read_string", "instance_of", "checkcast")),
    ],
    "core": [
        ("repro.core.persistent_heap", "PersistentHeap",
         ("allocate_instance", "allocate_array", "flush_words", "fence",
          "set_root", "get_root", "collect")),
        ("repro.core.heap_manager", "HeapManager",
         ("create_heap", "load_heap", "unload_heap", "set_root",
          "get_root")),
    ],
    "pjhlib": [
        ("repro.pjhlib.collections", "PjhHashmap",
         ("put", "get", "get_raw", "remove", "remove_raw", "size",
          "contains_key")),
        ("repro.pjhlib.collections", "PjhString", ("__init__",)),
        ("repro.pjhlib.collections", "PjhLong", ("__init__",)),
        ("repro.pjhlib.txn", "PjhTransaction",
         ("begin", "log_slot", "commit", "abort", "recover")),
    ],
    "store": [
        ("repro.fleet.store", "ShardStore",
         ("create", "reattach", "put", "get", "delete", "size", "items")),
    ],
    "pjo": [
        ("repro.pjo.provider", "PjoEntityManager",
         ("create_schema", "persist", "find", "find_by", "find_all",
          "count", "query", "merge", "remove", "clear")),
        ("repro.jpa.entity_manager", "EntityTransaction",
         ("begin", "commit", "rollback")),
    ],
    "h2": [
        ("repro.h2.pjo_backend", "DBPersistableBackend",
         ("ensure_table", "persist_in_table", "update_field", "retrieve",
          "delete", "count", "begin", "commit", "rollback")),
    ],
    "tpcc": [
        ("repro.tpcc.transactions", "TpccApplication",
         ("populate", "new_order", "payment", "order_status", "delivery",
          "consistency_snapshot")),
    ],
}

#: Span name of the benchmark's own per-op span (its self time is the
#: benchmark loop's overhead).
OP_SPAN = "bench:op"


class SpanRecorder:
    """Span aggregates for one traced run, plus the full spans of a sample
    of ops.

    Every span is folded into per-name totals as it closes (calls, host
    and simulated self and total ns), separately for spans inside and
    outside the op loop.  The spans of every ``sample_every``-th op are
    also kept whole — name, parent, op id, host and simulated start/end —
    in flat typed arrays, and :meth:`save` writes them out at the end.
    """

    def __init__(self, sample_every: int = 100) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.sample_every = sample_every
        # Per (name id, inside ops?) slot: calls, host self/total ns,
        # simulated self/total ns.
        self._calls: List[int] = []
        self._host_self: List[float] = []
        self._host_total: List[float] = []
        self._sim_self: List[float] = []
        self._sim_total: List[float] = []
        # The kept spans (sampled ops only).
        self.kept = {key: array(code) for key, code in (
            ("name", "i"), ("parent", "i"), ("op", "i"),
            ("host_start_ns", "q"), ("host_end_ns", "q"),
            ("sim_start_ns", "d"), ("sim_end_ns", "d"))}
        # Open frames: [slot, host start, sim start, children host ns,
        # children sim ns, kept index].  The root frame absorbs top-level
        # durations.
        self._stack: List[list] = [[-1, 0, 0.0, 0.0, 0.0, -1]]
        self._op_id = -1
        self._slot_base = 1  # 1 outside ops, 0 inside
        self._keep = False
        #: The session clock spans read simulated time from.
        self.clock = None
        #: PjhHashmap entries yielded by ``items()`` inside ops.
        self.rows_scanned = 0
        self.spans = 0
        #: Host durations are scaled by ``host_clock.factor`` as spans
        #: close (a ``hostclock.ProbeClock``; None: unscaled).
        self.host_clock = None

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.extend((0, 0))
            for column in (self._host_self, self._host_total,
                           self._sim_self, self._sim_total):
                column.extend((0.0, 0.0))
        return nid

    @property
    def op_id(self) -> int:
        return self._op_id

    @op_id.setter
    def op_id(self, value: int) -> None:
        """Enter op *value* (-1: leave the op loop)."""
        self._op_id = value
        self._slot_base = 0 if value >= 0 else 1
        self._keep = value >= 0 and value % self.sample_every == 0

    def open(self, nid: int) -> list:
        sim0 = self.clock.now_ns
        kept = -1
        if self._keep:
            kept = self._keep_open(nid, sim0)
        frame = [2 * nid + self._slot_base, 0, sim0, 0.0, 0.0, kept]
        self._stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        host1 = perf_counter_ns()
        sim1 = self.clock.now_ns
        stack = self._stack
        stack.pop()
        host = host1 - frame[1]
        if self.host_clock is not None:
            host *= self.host_clock.factor
        sim = sim1 - frame[2]
        parent = stack[-1]
        parent[3] += host
        parent[4] += sim
        slot = frame[0]
        self._calls[slot] += 1
        self._host_self[slot] += host - frame[3]
        self._host_total[slot] += host
        self._sim_self[slot] += sim - frame[4]
        self._sim_total[slot] += sim
        self.spans += 1
        if frame[5] >= 0:
            self.kept["host_start_ns"][frame[5]] = frame[1]
            self.kept["host_end_ns"][frame[5]] = host1
            self.kept["sim_end_ns"][frame[5]] = sim1

    def _keep_open(self, nid: int, sim0: float) -> int:
        kept = self.kept
        index = len(kept["name"])
        kept["name"].append(nid)
        kept["parent"].append(self._stack[-1][5])
        kept["op"].append(self._op_id)
        kept["host_start_ns"].append(0)
        kept["host_end_ns"].append(0)
        kept["sim_start_ns"].append(sim0)
        kept["sim_end_ns"].append(0.0)
        return index

    # -- results -------------------------------------------------------
    def by_name(self, inside_ops: bool = True) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, host and simulated self and total ns."""
        out = {}
        for nid, span_name in enumerate(self.names):
            slot = 2 * nid + (0 if inside_ops else 1)
            if self._calls[slot]:
                out[span_name] = {
                    "calls": self._calls[slot],
                    "host_self_ns": self._host_self[slot],
                    "host_total_ns": self._host_total[slot],
                    "sim_self_ns": self._sim_self[slot],
                    "sim_total_ns": self._sim_total[slot],
                }
        return out

    def save(self, path: Path) -> None:
        """Write the kept spans (one ``.npz``; names as JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {key: np.frombuffer(column, dtype=np.dtype(column.typecode))
                   for key, column in self.kept.items()}
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            sample_every=np.array(self.sample_every),
                            **columns)


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def _span_wrapper(fn, nid: int, rec: SpanRecorder):
    open_span, close_span = rec.open, rec.close

    def traced(*args, **kwargs):
        frame = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(frame)

    traced.__wrapped__ = fn
    return traced


def _counting_items(fn, rec: SpanRecorder):
    """``PjhHashmap.items`` is a generator: count the rows it yields in
    ops instead of spanning it (its work interleaves with the caller's)."""

    def items(*args, **kwargs):
        for row in fn(*args, **kwargs):
            if rec.op_id >= 0:
                rec.rows_scanned += 1
            yield row

    return items


@contextmanager
def instrument(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the span wrappers; restore every original on exit."""
    saved = []
    try:
        for layer, targets in LAYERS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                for method in methods:
                    static = inspect.getattr_static(cls, method)
                    saved.append((cls, method, cls.__dict__.get(method)))
                    nid = rec.intern(f"{layer}:{class_name}.{method}")
                    if isinstance(static, classmethod):
                        setattr(cls, method, classmethod(
                            _span_wrapper(static.__func__, nid, rec)))
                    else:
                        setattr(cls, method,
                                _span_wrapper(static, nid, rec))
        from repro.pjhlib.collections import PjhHashmap
        saved.append((PjhHashmap, "items", PjhHashmap.__dict__["items"]))
        PjhHashmap.items = _counting_items(PjhHashmap.__dict__["items"], rec)
        yield rec
    finally:
        for cls, method, original in reversed(saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
