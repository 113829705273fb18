"""The three benchmark workloads: set-up, measured phase, output digest.

Each workload is a closed loop driven from one process.  ``setup``
generates the extension, compiles the inputs from the seed and builds
(snapshot build + clone) every model and shard replica; ``measure``
runs the measured phase through the program's own entry points and
returns per-operation latencies, timed from outside the program as the
executor takes each operation from the sequence the benchmark handed
it; ``digest`` hashes the paper counters the phase produced.

The sizes below are part of the benchmark's definition: changing one
changes every number it reports.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import asdict
from time import perf_counter

from repro.benchmark.config import DEFAULT_CONFIG
from repro.benchmark.queries import QUERY_NAMES
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import (
    PRESET_WORKLOADS,
    WorkloadSpec,
    WorkloadTrace,
    compile_trace,
)
from repro.models.registry import MEASURED_MODELS
from repro.serving import ServingExecutor, make_client_traces, make_scheduler
from tracing import MODEL_OPS

#: paper-queries: the query campaign at FAST_CONFIG scale.  DSM's large
#: relation (1044 pages) stays larger than the 240-page buffer, NSM's
#: Station, Platform and Connection relations (182 pages) fit in it, so
#: NSM's navigation by value selection stays the main cost.
PAPER_CONFIG = DEFAULT_CONFIG.with_changes(
    n_objects=300,
    buffer_pages=240,
    q1a_sample=40,
    q1b_sample=2,
    q2a_sample=10,
)

#: oid-navigate: OID access only, working set larger than the buffer.
OID_MODELS = ("DSM", "DASDBS-DSM", "NSM+index", "DASDBS-NSM")
OID_CONFIG = DEFAULT_CONFIG.with_changes(
    n_objects=1500, buffer_pages=300, backend="file"
)
OID_OPS_PER_MODEL = 2000

#: ticket-serving: 8 sessions, 2 workers, 4 range shards, I/O scheduler.
TICKET_MODELS = ("DASDBS-NSM", "DSM")
TICKET_CONFIG = DEFAULT_CONFIG.with_changes(
    n_objects=1500,
    buffer_pages=600,
    backend="file",
    io_scheduler=True,
    shards=4,
    shard_policy="range",
)
TICKET_SESSIONS = 8
TICKET_OPS_PER_SESSION = 500
TICKET_WORKERS = 2


class TimedOps(tuple):
    """A trace's operations; the first iteration stamps the clock as each
    operation is taken and once when it runs dry, so ``stamps[i+1] -
    stamps[i]`` is the time the executor spent on operation *i*.  Later
    iterations (``WorkloadTrace.op_counts`` after the replay) are plain."""

    def __new__(cls, items, on_take=None):
        self = super().__new__(cls, items)
        self.stamps = None
        self.on_take = on_take
        return self

    def __iter__(self):
        if self.stamps is not None:
            yield from tuple.__iter__(self)
            return
        stamps = self.stamps = []
        on_take = self.on_take
        for item in tuple.__iter__(self):
            if on_take is not None:
                on_take()
            stamps.append(perf_counter())
            yield item
        stamps.append(perf_counter())

    def latencies_ms(self) -> list[float]:
        stamps = self.stamps or []
        return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


class StampedOps(tuple):
    """A trace's operations; indexing stamps ``(clock, session)`` into a
    log shared by all sessions (the serving executor takes each granted
    operation with ``trace.ops[index]``)."""

    def __new__(cls, items, session: int, log: list, on_take=None):
        self = super().__new__(cls, items)
        self.session = session
        self.log = log
        self.on_take = on_take
        return self

    def __getitem__(self, index):
        if self.on_take is not None:
            self.on_take()
        self.log.append((perf_counter(), self.session))
        return tuple.__getitem__(self, index)


class PrebuiltRunner(BenchmarkRunner):
    """A runner whose ``build_model`` hands out models built in set-up,
    so snapshot builds and clones stay out of the measured phase."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.prebuilt = {}

    def build_model(self, name: str):
        return self.prebuilt.pop(name)

    def prebuild(self, name: str) -> None:
        self.prebuilt[name] = BenchmarkRunner.build_model(self, name)


class Workload:
    """Shared shape of a workload; subclasses fill in the three phases."""

    name = ""

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.runner: PrebuiltRunner | None = None

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def _on_take(self):
        """Callback numbering operations for the tracer's spans, if tracing."""
        tracer = self.tracer
        if tracer is None:
            return None

        def take() -> None:
            tracer.op_id += 1

        return take

    def setup(self, workdir: str) -> None:
        raise NotImplementedError

    def measure(self) -> dict:
        """Run the measured phase; returns ops, latencies, digest payload."""
        raise NotImplementedError

    def close(self) -> None:
        """Close the engines of models set-up built but the phase did not use."""
        if self.runner is None:
            return
        for model in self.runner.prebuilt.values():
            model.engine.close()
        self.runner.prebuilt.clear()


def _hit_ratio(raws) -> float:
    fixes = sum(r.page_fixes for r in raws)
    return round(sum(r.buffer_hits for r in raws) / fixes, 3) if fixes else 0.0


def _time_model_calls(model, latencies: list, on_take=None) -> None:
    """Time every completed call of the model's operations, the calls
    the query suite makes (instance attributes shadowing the methods;
    the model's code is untouched).
    Calls a model refuses as unsupported are not operations."""
    for op in MODEL_OPS:
        method = getattr(model, op)

        def timed(*args, _method=method, **kwargs):
            if on_take is not None:
                on_take()
            start = perf_counter()
            result = _method(*args, **kwargs)
            latencies.append((perf_counter() - start) * 1000.0)
            return result

        setattr(model, op, timed)


class PaperQueries(Workload):
    """BenchmarkRunner.run_models over the measured models, queries 1a-3b.

    The suite draws its samples and roots itself, so an operation here
    is one model call it makes (a 1a/1b retrieval, a 1c scan, one
    navigation step or root update of queries 2 and 3), timed at the
    model's boundary.
    """

    name = "paper-queries"  # about 2600 model calls per repetition

    def setup(self, workdir: str) -> None:
        config = PAPER_CONFIG.with_changes(query_seed=self.seed)
        self.runner = PrebuiltRunner(config)
        with self.span("benchmark.generate"):
            self.runner.stations
        with self.span("benchmark.build"):
            for name in MEASURED_MODELS:
                self.runner.prebuild(name)
        self.latencies: list[float] = []
        for model in self.runner.prebuilt.values():
            _time_model_calls(model, self.latencies, self._on_take())
        dsm_pages = max(self.runner.prebuilt["DSM"].relation_pages().values())
        if dsm_pages <= config.buffer_pages:
            raise RuntimeError(
                f"DSM relation ({dsm_pages} pages) must exceed the buffer "
                f"({config.buffer_pages} pages)"
            )

    def measure(self) -> dict:
        runs = self.runner.run_models(MEASURED_MODELS, QUERY_NAMES, jobs=1)
        cells = {
            model: {
                "pages": run.relation_pages,
                "cells": {
                    query: (asdict(result.raw) if result is not None else None)
                    for query, result in run.results.items()
                },
            }
            for model, run in runs.items()
        }
        raws = {
            model: [r.raw for r in run.results.values() if r is not None]
            for model, run in runs.items()
        }
        return {
            "ops": len(self.latencies),
            "latencies_ms": self.latencies,
            "digest_payload": cells,
            "raws": [raw for model_raws in raws.values() for raw in model_raws],
            "engines": [],
            "info": {
                "queries": len(QUERY_NAMES),
                "hit_ratio": {model: _hit_ratio(r) for model, r in raws.items()},
            },
        }


class OidNavigate(Workload):
    """One client replays a Zipf(1.0) OID trace through run_trace."""

    name = "oid-navigate"  # 8000 operations per repetition

    def setup(self, workdir: str) -> None:
        config = OID_CONFIG.with_changes(backend_path=workdir)
        self.runner = PrebuiltRunner(config)
        spec = WorkloadSpec(
            name="oid-navigate",
            point_weight=0.55,
            navigate_weight=0.30,
            scan_weight=0.0,
            update_weight=0.15,
            skew="zipf",
            zipf_theta=1.0,
            warm=True,
            n_ops=OID_OPS_PER_MODEL,
            seed=self.seed,
        )
        with self.span("benchmark.generate"):
            self.runner.stations
            self.trace = compile_trace(spec, config.n_objects)
        with self.span("benchmark.build"):
            for name in OID_MODELS:
                self.runner.prebuild(name)

    def measure(self) -> dict:
        latencies: list[float] = []
        results = {}
        engines = []
        for name in OID_MODELS:
            engines.append(self.runner.prebuilt[name].engine)
            ops = TimedOps(self.trace.ops, self._on_take())
            trace = WorkloadTrace(self.trace.spec, self.trace.n_objects, ops)
            results[name] = self.runner.run_trace(name, trace)
            latencies.extend(ops.latencies_ms())
        return {
            "ops": len(OID_MODELS) * len(self.trace.ops),
            "latencies_ms": latencies,
            "digest_payload": {name: asdict(r.raw) for name, r in results.items()},
            "raws": [r.raw for r in results.values()],
            "engines": engines,
            "info": {
                "op_mix": self.trace.op_counts(),
                "hit_ratio": {name: round(r.hit_rate, 3) for name, r in results.items()},
            },
        }


class TicketServing(Workload):
    """8 ticket-inventory sessions served on 2 workers over 4 shards."""

    name = "ticket-serving"  # 8000 operations per repetition

    def setup(self, workdir: str) -> None:
        config = TICKET_CONFIG.with_changes(backend_path=workdir)
        self.runner = PrebuiltRunner(config)
        self.spec = PRESET_WORKLOADS["ticket-inventory"].with_changes(
            n_ops=TICKET_OPS_PER_SESSION, seed=self.seed
        )
        with self.span("benchmark.generate"):
            self.runner.stations
            self.traces = make_client_traces(self.spec, config.n_objects, TICKET_SESSIONS)
        with self.span("benchmark.build"):
            for name in TICKET_MODELS:
                self.runner.prebuild(name)

    def measure(self) -> dict:
        latencies: list[float] = []
        payload = {}
        raws = []
        engines = []
        hit_ratio = {}
        errors = retries = 0
        for name in TICKET_MODELS:
            model = self.runner.prebuilt.pop(name)
            engines.extend(model.engine.engines)
            log: list[tuple[float, int]] = []
            traces = [
                WorkloadTrace(t.spec, t.n_objects, StampedOps(t.ops, i, log, self._on_take()))
                for i, t in enumerate(self.traces)
            ]
            executor = ServingExecutor(
                model,
                traces,
                scheduler=make_scheduler("round-robin", seed=self.spec.seed),
                workers=TICKET_WORKERS,
            )
            try:
                start = perf_counter()
                serving = executor.run()
                end = perf_counter()
                report = model.sharding_report()
            finally:
                model.engine.close()
            latencies.extend(_session_latencies_ms(log, start, end))
            stats = serving.stats
            errors += stats.errors
            retries += stats.retries
            raws.append(serving.result.raw)
            hit_ratio[name] = round(serving.result.hit_rate, 3)
            payload[name] = {
                "shards": [asdict(s) for s in report.per_shard],
                "hops": report.cross_shard_hops,
                "p50": repr(stats.latency_p50_ms),
                "p99": repr(stats.latency_p99_ms),
                "makespan": repr(stats.makespan_ms),
            }
        return {
            "ops": len(TICKET_MODELS) * sum(len(t.ops) for t in self.traces),
            "latencies_ms": latencies,
            "digest_payload": payload,
            "raws": raws,
            "engines": engines,
            "serving_errors": errors,
            "serving_retries": retries,
            "hops": sum(p["hops"] for p in payload.values()),
            "info": {
                "op_mix": _sum_counts(t.op_counts() for t in self.traces),
                "hit_ratio": hit_ratio,
            },
        }


def _session_latencies_ms(log, start: float, end: float) -> list[float]:
    """Closed-loop request latency: each request is timed from its
    session's previous completion (or the run's start), so the wait
    behind other sessions' operations is included.  Operations run one
    at a time in grant order, so an operation completes when the next
    one is taken, and the last one when the run returns."""
    ready: dict[int, float] = {}
    out = []
    for position, (_, session) in enumerate(log):
        done = log[position + 1][0] if position + 1 < len(log) else end
        out.append((done - ready.get(session, start)) * 1000.0)
        ready[session] = done
    return out


def _sum_counts(counters) -> dict:
    out: dict[str, int] = {}
    for counts in counters:
        for kind, n in counts.items():
            out[kind] = out.get(kind, 0) + n
    return out


WORKLOADS = {cls.name: cls for cls in (PaperQueries, OidNavigate, TicketServing)}


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of a counter payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
