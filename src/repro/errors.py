"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish storage-level from model-level problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(ReproError):
    """A relation schema or attribute definition is invalid."""


class SerializationError(ReproError):
    """A nested tuple cannot be encoded or decoded."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class PageOverflowError(StorageError):
    """A record does not fit into the free space of a page."""


class InvalidAddressError(StorageError):
    """A page id, record id, or object address does not exist."""


class BufferError_(StorageError):
    """Buffer-manager protocol violation (e.g. unfix without fix)."""


class BufferFullError(BufferError_):
    """All buffer frames are fixed; no victim can be evicted."""


class StorageFaultError(StorageError):
    """An injected (or detected) storage-level fault.

    Base class of everything the fault-injection layer raises and of
    the integrity failures the recovery layer detects (checksum
    mismatches, torn pages).
    """


class TransientIOError(StorageFaultError):
    """A retryable I/O failure (injected transient read error).

    The serving layer treats these like ``EIO``-then-fine devices: the
    operation is retried under a bounded deterministic backoff before
    the error is surfaced.
    """


class SimulatedCrash(StorageFaultError):
    """A numbered crash point fired: the process "lost power" here.

    Raised by :class:`~repro.fault.backend.FaultyBackend` when its
    :class:`~repro.fault.plan.FaultPlan` reaches the armed crash point.
    Everything volatile (buffer frames, unflushed journal records) is
    gone; whatever the backend already persisted — including a
    page-granular prefix of the in-flight write — survives for
    :meth:`~repro.storage.StorageEngine.recover` to reconcile.
    """


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state."""


class MetricsError(StorageError):
    """Invalid use of the I/O accounting layer (bad counter arguments)."""


class ServingError(ReproError):
    """Multi-session serving layer misuse or scheduling failure."""


class RetryExhaustedError(ServingError):
    """A bounded retry loop gave up; the last failure is the cause."""


class ModelError(ReproError):
    """A storage model was used in an unsupported way."""


class UnsupportedOperationError(ModelError):
    """The storage model does not support the requested operation.

    For example, plain NSM stores no physical object identifiers, so
    query 1a (retrieve by OID) is *not relevant* for it — exactly as in
    the paper, Section 3.3.
    """


class BenchmarkError(ReproError):
    """Benchmark configuration or execution failure."""


class ConfigError(BenchmarkError):
    """A benchmark configuration is invalid or combines incompatible knobs.

    Raised at configuration time (``BenchmarkConfig.__post_init__``) for
    refused knob compositions — e.g. ``io_scheduler`` with fault
    injection, or sharding with faults/reclustering — so callers can
    distinguish "you asked for an unsupported combination" from runtime
    benchmark failures while still catching :class:`BenchmarkError`.
    """


class ShardingError(ReproError):
    """Sharded engine misuse (bad router arguments, unprepared scans)."""
