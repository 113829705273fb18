"""Span tracer that measures each layer from outside, by wrapping its
public entry points.

Nothing in ``src/`` knows about this module.  :func:`instrument`
replaces a fixed list of class attributes (buffer fixes, disk transfers,
heap scans, serializer calls, model operations, the replay executors, the
sharded facade) with timing wrappers and :func:`Instrumentation.remove`
puts the originals back, so one process can alternate traced and
untraced repetitions.

Every wrapped call is a *span*: name, start, end, parent span, operation
id and thread.  A span's self time is its duration minus the time its
child spans cover; it is computed online with one stack per thread.
Spans on serving worker threads have the enclosing ``serving.run`` span
as parent, so the serving layer's self time is its wall time minus the
model calls the workers made (ticket hand-off, scheduling, accounting).
A call into the layer that is already on top of the stack (``fix_view``
calling ``fix``, ``decode_flat`` calling ``_decode_flat_part``) is not a
new span, so nothing is counted twice.

Spans of the coarse layers (benchmark, serving, sharding, models) are
kept in memory and written out at the end; the fine-grained storage and
nf2 spans are far too many to keep one by one, so they are folded into
per-name aggregates (calls, total and self seconds) as they close.  The
self times of all spans, kept or folded, add up to the root span.

Counts are taken at the same boundaries: pages fixed, I/O calls and
pages transferred, heap records scanned, tuples built.  They are kept
per metrics collector so they can be compared exactly with the engines'
own counters (see :meth:`Tracer.engine_totals`).

The aggregates and counts are plain dictionaries updated without a
lock: the serving executor runs one operation at a time in ticket
order, so no two threads ever update them at the same time.  Only
the adoption of a worker span by its anchor takes the lock.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from time import perf_counter

#: Layers whose spans are kept one by one (the rest are aggregated).
RECORDED_LAYERS = frozenset({"benchmark", "serving", "sharding", "models"})

#: Model operations timed per name (``models.<op>.calls``/``.self_s``).
MODEL_OPS = (
    "fetch_full",
    "fetch_full_by_key",
    "fetch_refs",
    "fetch_roots",
    "update_roots",
    "scan_all",
)

#: Replica entry points the sharded facade calls besides ``MODEL_OPS``.
REPLICA_OPS = ("fetch_refs_grouped", "fetch_ref_pairs", "scan_partition")

#: Counter names compared with the engines' own ``MetricsCollector``.
ENGINE_FIELDS = ("page_fixes", "read_calls", "write_calls", "pages_read", "pages_written")


class Tracer:
    """Span stacks, kept spans, per-name aggregates and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Kept spans: (id, parent id, name, start, end, self, op id, thread).
        self.spans: list[tuple] = []
        #: name -> [calls, total_s, self_s], over every span of that name.
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: Plain counters (records scanned, tuples built, ...).
        self.counts: dict[str, int] = defaultdict(int)
        #: id(collector) -> [collector, {field: count seen by wrappers}].
        self.per_collector: dict[int, list] = {}
        #: id(collector) -> {field: value accumulated across resets}.
        self.reset_totals: dict[int, dict] = {}
        #: Operation id stamped on every span (set as operations are taken).
        self.op_id = -1
        self.min_self_s = 0.0
        # Frames of spans that adopt spans opened on other threads.
        self._anchors: list[list] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, layer: str, anchor: bool = False) -> list | None:
        """Open a span; None when ``layer`` is already on top (no new span)."""
        stack = self._stack()
        if stack and stack[-1][1] == layer:
            return None
        if stack:
            parent = stack[-1]
        elif self._anchors:
            parent = self._anchors[-1]
        else:
            parent = None
        frame = [name, layer, 0.0, next(self._ids), parent, perf_counter(), anchor]
        stack.append(frame)
        if anchor:
            self._anchors.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        name, layer, child, span_id, parent, start, anchor = frame
        if anchor:
            self._anchors.remove(frame)
        duration = end - start
        self_s = duration - child
        if parent is not None:
            if stack:
                parent[2] += duration
            else:  # adopted by an anchor span on another thread
                with self._lock:
                    parent[2] += duration
        aggregate = self.aggregates[name]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += self_s
        if self_s < self.min_self_s:
            self.min_self_s = self_s
        if layer.partition(".")[0] in RECORDED_LAYERS:
            self.spans.append(
                (
                    span_id,
                    parent[3] if parent is not None else 0,
                    name,
                    start,
                    end,
                    self_s,
                    self.op_id,
                    threading.current_thread().name,
                )
            )

    def span(self, name: str, anchor: bool = False) -> "_SpanContext":
        """Context manager for a span the benchmark opens around its own calls."""
        return _SpanContext(self, name, anchor)

    # -- counts ----------------------------------------------------------------

    def count_engine(self, collector, field: str, amount: int) -> None:
        entry = self.per_collector.get(id(collector))
        if entry is None:
            entry = self.per_collector[id(collector)] = [collector, defaultdict(int)]
        entry[1][field] += amount

    def note_reset(self, collector) -> None:
        """Fold a collector's counters into its running total before a reset."""
        totals = self.reset_totals.setdefault(id(collector), defaultdict(int))
        for field in ENGINE_FIELDS:
            totals[field] += getattr(collector, field)
        if id(collector) not in self.per_collector:
            self.per_collector[id(collector)] = [collector, defaultdict(int)]

    def engine_totals(self) -> tuple[dict, dict]:
        """(seen by wrappers, counted by the engines) over every collector.

        The engine side is each collector's lifetime total: what it held
        at every reset plus what it holds now.
        """
        seen: dict[str, int] = defaultdict(int)
        counted: dict[str, int] = defaultdict(int)
        for key, (collector, fields) in self.per_collector.items():
            totals = self.reset_totals.get(key, {})
            for field in ENGINE_FIELDS:
                seen[field] += fields[field]
                counted[field] += totals.get(field, 0) + getattr(collector, field)
        return dict(seen), dict(counted)

    def mark(self) -> dict:
        """A copy of the aggregates and counts, for windowed deltas."""
        return {
            "aggregates": {name: list(values) for name, values in self.aggregates.items()},
            "counts": dict(self.counts),
            "engine": self.engine_totals()[0],
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "anchor", "frame")

    def __init__(self, tracer: Tracer, name: str, anchor: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.anchor = anchor

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer.enter(self.name, self.name, self.anchor)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.frame is not None:
            self.tracer.exit(self.frame)


# -- wrappers ----------------------------------------------------------------


def _timed(tracer: Tracer, fn, name: str, layer: str, anchor: bool = False, count=None):
    """Wrap ``fn`` in a span; ``count(args, result)`` runs after a success."""
    enter = tracer.enter
    leave = tracer.exit

    def wrapper(*args, **kwargs):
        frame = enter(name, layer, anchor)
        try:
            result = fn(*args, **kwargs)
        finally:
            if frame is not None:
                leave(frame)
        if count is not None:
            count(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_generator(tracer: Tracer, fn, name: str, layer: str, record_key: str):
    """Wrap a generator function: each resume is a span, each item a record."""
    enter = tracer.enter
    leave = tracer.exit
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        counts[name + ".calls"] += 1
        while True:
            frame = enter(name, layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if frame is not None:
                    leave(frame)
            counts[record_key] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """The set of patched attributes; :meth:`remove` restores them all."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: type, attr: str, name: str, layer: str, **kwargs) -> None:
        self.patch(owner, attr, _timed(self.tracer, owner.__dict__[attr], name, layer, **kwargs))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _defining_class(cls: type, attr: str) -> type | None:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    return None


def instrument(tracer: Tracer) -> Instrumentation:
    """Patch every layer boundary the benchmark measures."""
    from repro.benchmark.queries import QuerySuite
    from repro.benchmark.snapshots import SnapshotStore
    from repro.benchmark.workload import WorkloadExecutor
    from repro.models.nsm import NSMModel
    from repro.models.registry import MODEL_CLASSES
    from repro.nf2 import serializer
    from repro.nf2.serializer import NF2Serializer
    from repro.nf2.values import NestedTuple
    from repro.serving.server import ServingExecutor
    from repro.sharding.model import ShardedModel
    from repro.storage.buffer import BufferManager
    from repro.storage.disk import SimulatedDisk
    from repro.storage.heap import HeapFile
    from repro.storage.longobj import LongObjectStore
    from repro.storage.metrics import MetricsCollector

    inst = Instrumentation(tracer)
    count_engine = tracer.count_engine
    counts = tracer.counts

    # benchmark: replay executors and the snapshot store.
    inst.wrap(QuerySuite, "run", "benchmark.replay", "benchmark.replay")
    inst.wrap(WorkloadExecutor, "run", "benchmark.replay", "benchmark.replay")

    def count_clone(args, result):
        counts["benchmark.clone_count"] += 1

    inst.wrap(SnapshotStore, "clone", "benchmark.clone", "benchmark.clone", count=count_clone)

    # serving: the executor adopts the spans of its worker threads.
    inst.wrap(ServingExecutor, "run", "serving.run", "serving", anchor=True)

    # sharding: the facade's operations; replica calls are model spans.
    for op in MODEL_OPS:
        inst.wrap(ShardedModel, op, f"sharding.{op}", "sharding")

    # models: every concrete model's operations, at their defining class.
    wrapped: set[tuple[type, str]] = set()
    for cls in MODEL_CLASSES.values():
        for op in MODEL_OPS + REPLICA_OPS:
            owner = _defining_class(cls, op)
            if owner is None or (owner, op) in wrapped:
                continue
            wrapped.add((owner, op))
            inst.wrap(owner, op, f"models.{op}", "models")

    # models.examined_per_match: records a value selection scans per match.
    select = NSMModel.__dict__["_select"]

    def selecting(self, heap, schema, key_attr, keys):
        before = counts["storage.heap.scan_records"]
        out = select(self, heap, schema, key_attr, keys)
        counts["models.select.examined"] += counts["storage.heap.scan_records"] - before
        counts["models.select.matched"] += len(out)
        return out

    inst.patch(NSMModel, "_select", selecting)

    # storage.buffer: the fix primitives (fix_view/session_fix call fix).
    def count_fix(args, result):
        count_engine(args[0].metrics, "page_fixes", 1)

    def count_fix_many(args, result):
        count_engine(args[0].metrics, "page_fixes", len(args[1]))

    inst.wrap(BufferManager, "fix", "storage.buffer.fix", "storage.buffer", count=count_fix)
    inst.wrap(
        BufferManager, "fix_many", "storage.buffer.fix", "storage.buffer", count=count_fix_many
    )
    inst.wrap(BufferManager, "new_page", "storage.buffer.fix", "storage.buffer", count=count_fix)
    for attr in ("unfix", "flush", "clear"):
        inst.wrap(BufferManager, attr, f"storage.buffer.{attr}", "storage.buffer")

    # storage.disk: every transfer goes through read_pages/write_pages.
    def count_read(args, result):
        if result:
            count_engine(args[0].metrics, "read_calls", 1)
            count_engine(args[0].metrics, "pages_read", len(result))

    inst.wrap(SimulatedDisk, "read_pages", "storage.disk.read", "storage.disk", count=count_read)
    write_pages = SimulatedDisk.__dict__["write_pages"]

    def writing(self, items):
        items = list(items)
        frame = tracer.enter("storage.disk.write", "storage.disk")
        try:
            write_pages(self, items)
        finally:
            if frame is not None:
                tracer.exit(frame)
        if items:
            count_engine(self.metrics, "write_calls", 1)
            count_engine(self.metrics, "pages_written", len(items))

    inst.patch(SimulatedDisk, "write_pages", writing)

    # storage.heap and storage.longobj.
    for attr in ("scan", "scan_pages"):
        inst.patch(
            HeapFile,
            attr,
            _timed_generator(
                tracer, HeapFile.__dict__[attr], "storage.heap.scan", "storage.heap",
                "storage.heap.scan_records",
            ),
        )
    inst.wrap(HeapFile, "read_many", "storage.heap.read_many", "storage.heap")
    for attr in ("read", "insert", "update"):
        inst.wrap(HeapFile, attr, f"storage.heap.{attr}", "storage.heap")
    for attr in ("read", "read_directory"):
        inst.wrap(LongObjectStore, attr, "storage.longobj.read", "storage.longobj")
    for attr in ("store", "replace", "patch_section"):
        inst.wrap(LongObjectStore, attr, "storage.longobj.write", "storage.longobj")

    # nf2: decode and encode entry points (the models also call the
    # flat-part decoder directly, so it is a boundary too).
    decoders = ("decode_flat", "decode_atom", "decode_nested", "decode_subtuple_list")
    for attr in decoders + ("_decode_flat_part",):
        inst.wrap(NF2Serializer, attr, "nf2.decode", "nf2.decode")
    for attr in ("encode_flat", "encode_nested", "encode_subtuple_list"):
        inst.wrap(NF2Serializer, attr, "nf2.encode", "nf2.encode")

    # nf2.tuples_built: validated (__init__) and trusted (_from_trusted)
    # constructions; the decoder calls the latter through a module alias.
    init = NestedTuple.__dict__["__init__"]
    trusted = NestedTuple.__dict__["_from_trusted"].__func__

    def counting_init(self, *args, **kwargs):
        counts["nf2.tuples_built"] += 1
        init(self, *args, **kwargs)

    def counting_trusted(cls, schema, atoms, subs):
        counts["nf2.tuples_built"] += 1
        return trusted(cls, schema, atoms, subs)

    inst.patch(NestedTuple, "__init__", counting_init)
    inst.patch(NestedTuple, "_from_trusted", classmethod(counting_trusted))
    inst.patch(serializer, "_from_trusted", NestedTuple._from_trusted)

    # Engine counters: fold each collector's values in before it is zeroed.
    reset = MetricsCollector.__dict__["reset"]

    def folding_reset(self):
        if hasattr(self, "read_calls"):
            tracer.note_reset(self)
        reset(self)

    inst.patch(MetricsCollector, "reset", folding_reset)
    return inst
