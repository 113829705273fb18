"""The seven benchmark queries (paper Section 2.2).

Query 1 — database scans:

* **1a** retrieve a single Station given its OID (averaged over a
  sample, cold buffer per retrieval),
* **1b** retrieve a single Station given its key value (a value
  selection: relation scan),
* **1c** retrieve all Stations, normalised per object.

Query 2 — navigation: "randomly select an object (given its OID), find
the identifiers of the objects it refers to ..., fetch these
child-objects, find the identifiers of the objects they refer to ...,
and retrieve the atomic attributes of these grand-children."  Only the
needed parts are projected.  **2a** runs one loop, **2b** runs
``config.effective_loops`` loops (300 for 1500 objects) against a warm
buffer and normalises per loop.

Query 3 — **3a/3b** are 2a/2b followed by an update of the root records
of the grand-children (atomic attributes only; structure unchanged).

All results are :class:`QueryResult` values holding the raw metric deltas
and the paper's normalisation (per object for query 1, per loop for
queries 2/3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.workload import navigate
from repro.errors import UnsupportedOperationError
from repro.models.base import StorageModel
from repro.storage.metrics import MetricsSnapshot, ScaledMetrics

#: Query names in table-column order.
QUERY_NAMES = ("1a", "1b", "1c", "2a", "2b", "3a", "3b")


@dataclass(frozen=True)
class QueryResult:
    """Metrics of one query execution."""

    query: str
    model: str
    raw: MetricsSnapshot
    divisor: float
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def normalized(self) -> ScaledMetrics:
        """Counters normalised the way the paper's tables report them."""
        return self.raw.scaled(self.divisor)


class QuerySuite:
    """Runs the benchmark queries against one loaded storage model."""

    def __init__(self, model: StorageModel, config: BenchmarkConfig) -> None:
        self.model = model
        self.config = config
        self.engine = model.engine

    # -- plumbing ------------------------------------------------------------

    def _measure(
        self, query: str, divisor: float, body: Callable[[], dict[str, Any]]
    ) -> QueryResult:
        """Cold-start the buffer, run ``body``, flush, snapshot."""
        self.engine.restart_buffer()
        self.engine.reset_metrics()
        extras = body()
        self.engine.flush()
        raw = self.engine.metrics.snapshot()
        return QueryResult(query, self.model.name, raw, divisor, extras)

    def run(self, query: str) -> QueryResult | None:
        """Run a query by name; None if the model does not support it."""
        runner = getattr(self, "q" + query)
        try:
            return runner()
        except UnsupportedOperationError:
            return None

    def run_all(self, queries: Sequence[str] = QUERY_NAMES) -> dict[str, QueryResult | None]:
        return {query: self.run(query) for query in queries}

    # -- query 1: scans ----------------------------------------------------------

    def q1a(self) -> QueryResult:
        """Retrieve single objects by OID; cold buffer per retrieval."""
        if not self.model.supports_oid_access:
            raise UnsupportedOperationError(
                f"{self.model.name} stores no object identifiers (query 1a)"
            )
        rng = random.Random(self.config.query_seed)
        sample = [
            rng.randrange(self.model.n_objects)
            for _ in range(min(self.config.q1a_sample, self.model.n_objects))
        ]

        def body() -> dict[str, Any]:
            for oid in sample:
                self.engine.restart_buffer()
                self.model.fetch_full(self.model.ref_of(oid))
            return {"sample_size": len(sample)}

        return self._measure("1a", len(sample), body)

    def q1b(self) -> QueryResult:
        """Retrieve single objects by key value; cold buffer each."""
        rng = random.Random(self.config.query_seed + 1)
        sample = [
            rng.randrange(self.model.n_objects)
            for _ in range(min(self.config.q1b_sample, self.model.n_objects))
        ]

        def body() -> dict[str, Any]:
            for oid in sample:
                self.engine.restart_buffer()
                self.model.fetch_full_by_key(self.model.key_of(oid))
            return {"sample_size": len(sample)}

        return self._measure("1b", len(sample), body)

    def q1c(self) -> QueryResult:
        """Retrieve all objects; normalised per object."""

        def body() -> dict[str, Any]:
            count = self.model.scan_all()
            return {"objects": count}

        return self._measure("1c", self.model.n_objects, body)

    # -- query 2: navigation ----------------------------------------------------------

    def _run_navigation(
        self, query: str, loops: int, update: bool, independent: bool = False
    ) -> QueryResult:
        """Navigation loops; ``independent`` cold-starts every loop.

        Queries 2a/3a are single-loop queries; one random root has a
        huge variance (the paper's 2a root "happened to have 4 children
        and 12 grand-children", below average).  We therefore average
        several independent single loops, each against a cold buffer,
        which estimates the expected single-loop cost the analytical
        model predicts.  2b/3b share one warm buffer across all loops,
        exactly as in the paper.
        """
        rng = random.Random(self.config.query_seed + 2)
        roots = [rng.randrange(self.model.n_objects) for _ in range(loops)]

        def body() -> dict[str, Any]:
            visited = 0
            for index, root in enumerate(roots):
                if independent and index > 0:
                    self.engine.restart_buffer()
                grand = navigate(self.model, root)[1]
                visited += len(grand)
                if update and grand:
                    self.model.update_roots(grand, {"Name": f"updated-{index}"})
            return {"loops": loops, "grandchildren": visited}

        return self._measure(query, loops, body)

    def q2a(self) -> QueryResult:
        return self._run_navigation(
            "2a", self.config.q2a_sample, update=False, independent=True
        )

    def q2b(self) -> QueryResult:
        return self._run_navigation("2b", self.config.effective_loops, update=False)

    # -- query 3: navigation + update ------------------------------------------------------

    def q3a(self) -> QueryResult:
        return self._run_navigation(
            "3a", self.config.q2a_sample, update=True, independent=True
        )

    def q3b(self) -> QueryResult:
        return self._run_navigation("3b", self.config.effective_loops, update=True)
