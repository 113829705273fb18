#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-queries --seed 1 --seconds 30 --trace 0

The run repeats *set-up + measured phase* until ``--seconds`` have been
used (at least once) and reports medians over the repetitions.  Every
repetition's paper counters are hashed and checked against the digests
pinned in ``digests.json``; when ``--seed`` has no pinned digest, one
extra repetition on a pinned seed checks the counters instead.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``run_s``,
``op_p50_ms``, ``op_tail_ms``, ``peak_rss_mb``), measured with no
tracing installed.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (see ``tracing.py``), the
traced ``run_s`` and the tracing overhead; it writes the kept spans and
the per-layer table to ``.perfbench_out/``.  A traced repetition also
checks that the wrappers' counts equal the engines' own counters, that
its counters equal the untraced ones, and that the self times of all
spans add up to the traced ``run_s``.

The exit code is 0 when every check passed, 1 when one failed (the JSON
line is still printed) and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Percentile reported as op_tail_ms: the highest of p50, p90, p99,
#: p99.9, ... that leaves at least ten samples beyond it in the fewest
#: samples a run can have, one repetition (2600 to 8000 operations).
TAIL_PERCENTILE = 99.0

#: Tolerance of the traced run's attribution check: the self times of
#: all spans must add up to the traced run_s within this share (+1 ms).
SELF_SUM_TOLERANCE = 0.01

def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def pin_to_one_cpu() -> None:
    """Keep the whole process, worker threads included, on the CPU it
    started on.

    The serving workers hand the engine to each other on every
    operation.  On a shared 2-vCPU virtual machine the same
    ticket-serving work measured 1.6 s in one run and 3.7 s in another
    while single-threaded set-up time stayed flat: a hand-off to a
    thread parked on the other vCPU can wait until the hypervisor runs
    that vCPU again.  On one CPU the woken worker runs as soon as the
    notifying one blocks; with the interpreter lock only one of them
    executes Python at a time anyway.
    """
    try:
        with open("/proc/self/stat") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no affinity control here: run unpinned


def load_pins() -> dict:
    path = HERE / "digests.json"
    with open(path) as handle:
        return json.load(handle)


class Rep:
    """Outcome of one repetition (set-up + measured phase)."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0
        self.total_s = 0.0
        self.ops = 0
        self.failed = 0
        self.error: str | None = None
        self.out: dict = {}
        self.digest: str | None = None
        self.layers: dict | None = None


def run_rep(workload_cls, seed: int, index: int, tracer=None) -> Rep:
    """One repetition from scratch; ``tracer`` instruments it when given."""
    from repro.benchmark.snapshots import DEFAULT_STORE
    from workloads import digest

    rep = Rep()
    workdir = OUT / f"run-{os.getpid()}" / f"rep{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    DEFAULT_STORE.clear()
    instrumentation = None
    if tracer is not None:
        from tracing import instrument

        instrumentation = instrument(tracer)
    workload = workload_cls(seed, tracer)
    started = perf_counter()
    marks = {}
    try:
        if tracer is not None:
            marks["setup"] = tracer.mark()
        workload.setup(str(workdir))
        measured = perf_counter()
        if tracer is not None:
            marks["run"] = tracer.mark()
            with tracer.span("benchmark.run"):
                rep.out = workload.measure()
        else:
            rep.out = workload.measure()
        finished = perf_counter()
        if tracer is not None:
            marks["end"] = tracer.mark()
        rep.setup_s = measured - started
        rep.run_s = finished - measured
        rep.ops = rep.out["ops"]
        rep.failed = rep.out.get("serving_errors", 0)
        rep.digest = digest(rep.out["digest_payload"])
    except Exception:
        rep.error = traceback.format_exc()
        rep.ops = rep.ops or 1
        rep.failed = rep.ops
    finally:
        try:
            workload.close()
        finally:
            if instrumentation is not None:
                instrumentation.remove()
        DEFAULT_STORE.clear()
        shutil.rmtree(workdir, ignore_errors=True)
    rep.total_s = perf_counter() - started
    if tracer is not None and rep.error is None:
        rep.layers = layer_metrics(tracer, marks, rep)
    rep.out.pop("engines", None)
    rep.out.pop("digest_payload", None)
    return rep


def _window(tracer_marks: dict, start: str, end: str):
    first, last = tracer_marks[start], tracer_marks[end]
    aggregates = {}
    for name, values in last["aggregates"].items():
        before = first["aggregates"].get(name, [0, 0.0, 0.0])
        aggregates[name] = [v - b for v, b in zip(values, before)]
    counts = {
        name: value - first["counts"].get(name, 0)
        for name, value in last["counts"].items()
    }
    engine = {
        name: value - first["engine"].get(name, 0)
        for name, value in last["engine"].items()
    }
    return aggregates, counts, engine


def layer_metrics(tracer, marks: dict, rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition, plus its checks."""
    from tracing import ENGINE_FIELDS, MODEL_OPS

    setup_agg, setup_counts, _ = _window(marks, "setup", "run")
    agg, counts, engine = _window(marks, "run", "end")

    def total(name: str) -> float:
        return setup_agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(prefix: str) -> float:
        return sum(
            (v[2] for name, v in agg.items() if name == prefix or name.startswith(prefix + ".")),
            0.0,
        )

    def calls(name: str) -> int:
        return agg.get(name, [0, 0.0, 0.0])[0]

    raws = rep.out["raws"]
    fixes = sum(r.page_fixes for r in raws)
    hits = sum(r.buffer_hits for r in raws)
    submitted = coalesced = 0
    for engine_obj in rep.out["engines"]:
        scheduler = getattr(engine_obj, "io_scheduler", None)
        if scheduler is not None:
            submitted += scheduler.submitted_runs
            coalesced += scheduler.coalesced_runs
    matched = counts.get("models.select.matched", 0)
    metrics = {
        "benchmark.generate_s": total("benchmark.generate"),
        "benchmark.clone_count": setup_counts.get("benchmark.clone_count", 0),
        "benchmark.clone_s": total("benchmark.build"),
        "benchmark.replay_self_s": self_s("benchmark.replay"),
        "benchmark.runner_self_s": self_s("benchmark.run"),
        "serving.self_s": self_s("serving"),
        "serving.retries": rep.out.get("serving_retries", 0),
        "serving.errors": rep.out.get("serving_errors", 0),
        "sharding.self_s": self_s("sharding"),
        "sharding.cross_shard_hops": rep.out.get("hops", 0),
    }
    for op in MODEL_OPS:
        metrics[f"models.{op}.calls"] = calls(f"models.{op}")
        metrics[f"models.{op}.self_s"] = self_s(f"models.{op}")
    metrics.update(
        {
            "models.examined_per_match": (
                counts.get("models.select.examined", 0) / matched if matched else 0.0
            ),
            "storage.buffer.fix_calls": calls("storage.buffer.fix"),
            "storage.buffer.fixes": engine.get("page_fixes", 0),
            "storage.buffer.self_s": self_s("storage.buffer"),
            "storage.buffer.hit_ratio": hits / fixes if fixes else 0.0,
            "storage.buffer.evictions": sum(r.evictions for r in raws),
            "storage.heap.scan_s": self_s("storage.heap.scan"),
            "storage.heap.scan_records": counts.get("storage.heap.scan_records", 0),
            "storage.heap.read_many_s": self_s("storage.heap.read_many"),
            "storage.longobj.read_s": self_s("storage.longobj.read"),
            "storage.disk.io_s": self_s("storage.disk"),
            "storage.disk.read_calls": engine.get("read_calls", 0),
            "storage.disk.write_calls": engine.get("write_calls", 0),
            "storage.disk.pages_read": engine.get("pages_read", 0),
            "storage.disk.pages_written": engine.get("pages_written", 0),
            "storage.iosched.coalesce_ratio": (
                submitted / coalesced if coalesced else 1.0
            ),
            "nf2.decode_calls": calls("nf2.decode"),
            "nf2.decode_s": self_s("nf2.decode"),
            "nf2.encode_calls": calls("nf2.encode"),
            "nf2.encode_s": self_s("nf2.encode"),
            "nf2.tuples_built": counts.get("nf2.tuples_built", 0),
        }
    )
    # Attribution checks.
    seen, counted = tracer.engine_totals()
    self_sum = sum(v[2] for v in agg.values())
    checks = {
        "engine_counts_equal": seen == counted,
        "seen": seen,
        "counted": counted,
        "self_sum_s": self_sum,
        "self_sum_ok": abs(self_sum - rep.run_s) <= SELF_SUM_TOLERANCE * rep.run_s + 0.001,
        "min_self_s": tracer.min_self_s,
        "no_negative_self": tracer.min_self_s >= -1e-4,
        "measured_window_equal": all(
            engine.get(field, 0) == sum(getattr(r, field) for r in raws)
            for field in ENGINE_FIELDS
        ),
    }
    return {"metrics": metrics, "checks": checks, "aggregates": agg, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC.name}/repro; nothing to measure",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    pins = load_pins().get(args.workload, {})
    pin_to_one_cpu()

    start = perf_counter()
    untraced: list[Rep] = []
    traced: list[Rep] = []
    while True:
        if args.trace:
            from tracing import Tracer

            rep = run_rep(workload_cls, args.seed, len(untraced) + len(traced))
            untraced.append(rep)
            if rep.error is None:
                rep = run_rep(workload_cls, args.seed, len(untraced) + len(traced), Tracer())
                traced.append(rep)
            last = untraced[-1].total_s + (traced[-1].total_s if traced else 0.0)
        else:
            rep = run_rep(workload_cls, args.seed, len(untraced))
            untraced.append(rep)
            last = rep.total_s
        if rep.error is not None:
            break
        if perf_counter() - start + last > args.seconds:
            break

    reps = untraced + traced
    problems: list[str] = []
    for rep in reps:
        if rep.error is not None:
            problems.append("repetition raised:\n" + rep.error)

    # Output check: pinned digest for this seed, or a canary repetition
    # on a pinned seed when this one has none.
    digests = {rep.digest for rep in reps if rep.digest is not None}
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the counter digest: {sorted(digests)}")
        for rep in reps:
            rep.failed = rep.ops
    elif traced:
        log("traced and untraced repetitions produced the same counter digest")
    pinned = pins.get(str(args.seed))
    if pinned is not None:
        for rep in reps:
            if rep.digest is not None and rep.digest != pinned:
                problems.append(
                    f"counter digest {rep.digest} != pinned {pinned} (seed {args.seed})"
                )
                rep.failed = rep.ops
        log(f"counter digest checked against the pin for seed {args.seed}")
    elif pins and not problems:
        canary_seed = sorted(int(s) for s in pins)[args.seed % len(pins)]
        canary = run_rep(workload_cls, canary_seed, len(reps))
        reps.append(canary)
        expected = pins[str(canary_seed)]
        if canary.error is not None:
            problems.append("canary repetition raised:\n" + canary.error)
        elif canary.digest != expected:
            problems.append(
                f"canary digest {canary.digest} != pinned {expected} (seed {canary_seed})"
            )
            canary.failed = canary.ops
        log(f"seed {args.seed} has no pin; canary repetition on pinned seed {canary_seed} checked")
    else:
        problems.append(f"no pinned digests for workload {args.workload!r}")

    metrics: dict[str, dict] = {}
    good = [rep for rep in untraced if rep.error is None]
    if good:
        info = good[0].out["info"]
        log(
            f"workload={args.workload} seed={args.seed} reps={len(good)} "
            f"info={json.dumps(info, sort_keys=True)}"
        )
    if args.trace == 0 and good:
        latencies = sorted(x for rep in good for x in rep.out["latencies_ms"])
        q = TAIL_PERCENTILE
        beyond = len(latencies) - math.ceil(q / 100.0 * len(latencies))
        if beyond < 10:
            problems.append(f"only {beyond} samples beyond p{q:g}; need at least 10")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(r.setup_s for r in good), "unit": "s"},
            "run_s": {"value": statistics.median(r.run_s for r in good), "unit": "s"},
            "op_p50_ms": {"value": percentile(latencies, 50.0), "unit": "ms"},
            "op_tail_ms": {"value": percentile(latencies, q), "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        log(
            f"op_tail_ms is p{q:g} over {len(latencies)} samples ({beyond} beyond); "
            f"run_s per rep {[round(r.run_s, 3) for r in good]}; "
            f"setup_s per rep {[round(r.setup_s, 3) for r in good]}"
        )
    elif args.trace == 1 and traced and all(r.layers for r in traced):
        metrics = traced_metrics(args, good, traced, problems)

    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for problem in problems:
        log("CHECK FAILED: " + problem)
    if good:
        log(f"failed_frac={failed / max(1, attempted):.6f} ({failed} of {attempted} operations)")
    correct = not problems and bool(metrics)
    attempted = max(1, attempted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else attempted,
        "metrics": metrics,
    }
    shutil.rmtree(OUT / f"run-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


def traced_metrics(args, untraced: list[Rep], traced: list[Rep], problems: list[str]) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    for rep in traced:
        checks = rep.layers["checks"]
        if not checks["engine_counts_equal"]:
            problems.append(
                f"wrapper counts {checks['seen']} != engine counters {checks['counted']}"
            )
        if not checks["measured_window_equal"]:
            problems.append(
                "measured-phase wrapper counts differ from the phase's counter snapshots"
            )
        if not checks["self_sum_ok"]:
            problems.append(
                f"span self times add up to {checks['self_sum_s']:.4f} s, "
                f"traced run_s is {rep.run_s:.4f} s"
            )
        if not checks["no_negative_self"]:
            problems.append(f"a span has negative self time ({checks['min_self_s']:.6f} s)")
    names = list(traced[0].layers["metrics"])
    metrics = {}
    for name in names:
        value = statistics.median(rep.layers["metrics"][name] for rep in traced)
        metrics[name] = {"value": value, "unit": unit_of(name)}
    traced_run = statistics.median(rep.run_s for rep in traced)
    untraced_run = statistics.median(rep.run_s for rep in untraced) if untraced else float("nan")
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run - untraced_run, "unit": "s"}
    log(
        f"tracing overhead: traced run_s {traced_run:.3f} s - untraced run_s "
        f"{untraced_run:.3f} s = {traced_run - untraced_run:.3f} s; span self times add up to "
        f"{traced[-1].layers['checks']['self_sum_s']:.4f} s of {traced[-1].run_s:.4f} s"
    )
    write_trace_files(args, traced, metrics)
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_match")):
        return "ratio"
    return "count"


def write_trace_files(args, traced: list[Rep], metrics: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    layers = {
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
        "aggregates_per_rep": [rep.layers["aggregates"] for rep in traced],
        "checks_per_rep": [rep.layers["checks"] for rep in traced],
    }
    with open(f"{stem}.layers.json", "w") as handle:
        json.dump(layers, handle, indent=1, sort_keys=True)
    fields = ("id", "parent", "name", "start", "end", "self_s", "op", "thread")
    with open(f"{stem}.spans.jsonl", "w") as handle:
        for rep_index, rep in enumerate(traced):
            for span in rep.layers.get("spans", ()):
                record = dict(zip(fields, span))
                record["rep"] = rep_index
                handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
