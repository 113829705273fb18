"""Key-predicate pushdown: ``HeapFile.select_int`` against a scan-and-decode.

The kernel evaluates an ``i32`` key predicate on the fixed frame and
copies only the matching records.  It must return exactly what the
plain path returns — a full :meth:`HeapFile.scan` filtered through
:meth:`NF2Serializer.decode_atom` — and charge exactly the same
counters, on heaps with tombstones, in-place updates and empty pages,
over the memory, checksummed file and zero-copy mmap backends.
"""

import random

import pytest

from repro.errors import StorageError
from repro.models.nsm import NSM_CONNECTION
from repro.nf2.serializer import NF2Serializer
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine

SERIALIZER = NF2Serializer()
SCHEMA = NSM_CONNECTION
SEEDS = (1, 7, 93)
N_KEYS = 30


def encode(rng: random.Random) -> bytes:
    row = NestedTuple(
        SCHEMA,
        {
            "RootKey": rng.randrange(N_KEYS),
            "ParentKey": rng.randrange(4),
            "LineNr": rng.randrange(100),
            "KeyConnection": rng.randrange(-5, N_KEYS),
            "OidConnection": rng.randrange(N_KEYS),
            "DepartureTimes": "x" * rng.randrange(20),
        },
    )
    return SERIALIZER.encode_flat(row)


def make_engine(backend: str, tmp_path) -> StorageEngine:
    if backend == "memory":
        return StorageEngine(buffer_pages=8)
    engine = StorageEngine(
        buffer_pages=8,
        backend=backend,
        backend_path=str(tmp_path / f"{backend}.pages"),
    )
    if backend == "file":
        engine.enable_checksums()
    return engine


def build_heap(engine: StorageEngine, seed: int):
    """A multi-page heap with tombstones, updates and two empty pages."""
    rng = random.Random(seed)
    heap = engine.new_heap("t")
    rids = [heap.insert(encode(rng)) for _ in range(160)]
    deleted = set(rng.sample(rids, 25))
    # Every record of one middle page: a page of tombstones only.
    emptied = rids[len(rids) // 2].page_id
    deleted.update(rid for rid in rids if rid.page_id == emptied)
    for rid in deleted:
        heap.delete(rid)
    live = [rid for rid in rids if rid not in deleted]
    for rid in rng.sample(live, 20):
        heap.update(rid, encode(rng))  # same size: in place
    # A formatted page with no slots at all, last in page order.
    page_id = heap.segment.allocate_page()
    engine.buffer.view_of(page_id)
    engine.buffer.unfix(page_id, dirty=True)
    engine.flush()
    engine.restart_buffer()
    return heap


def reference(heap, attr: str, keys) -> list:
    return [
        (rid, blob)
        for rid, blob in heap.scan()
        if SERIALIZER.decode_atom(SCHEMA, blob, attr) in keys
    ]


def measured(engine: StorageEngine, run):
    """``run()`` from a cold buffer, with its counter delta and the
    page ids it checksum-verified."""
    engine.restart_buffer()
    buffer = engine.buffer
    verify = type(buffer)._verify_read
    verified = []

    def counting(page_id, data):
        verified.append(page_id)
        verify(buffer, page_id, data)

    buffer._verify_read = counting
    try:
        before = engine.metrics.snapshot()
        out = run()
        return out, engine.metrics.snapshot() - before, verified
    finally:
        del buffer._verify_read


KEY_SETS = {
    "empty": lambda rng: set(),
    "all": lambda rng: set(range(-5, N_KEYS)),
    "none": lambda rng: {-100, 10**6},
    "some": lambda rng: set(rng.sample(range(N_KEYS), 7)),
}


@pytest.mark.parametrize("backend", ("memory", "file", "mmap"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("attr", ("RootKey", "KeyConnection", "OidConnection"))
@pytest.mark.parametrize("key_set", sorted(KEY_SETS))
def test_kernel_matches_scan_and_decode(tmp_path, backend, seed, attr, key_set):
    with make_engine(backend, tmp_path) as engine:
        heap = build_heap(engine, seed)
        keys = KEY_SETS[key_set](random.Random(seed))
        pos = SERIALIZER.int_offset(SCHEMA, attr)
        want, want_delta, want_verified = measured(
            engine, lambda: reference(heap, attr, keys)
        )
        got, got_delta, got_verified = measured(
            engine, lambda: heap.select_int(pos, keys)
        )
        assert got == want
        assert all(type(record) is bytes for _, record in got)
        assert got_delta == want_delta
        assert got_delta.page_fixes == heap.n_pages
        assert got_verified == want_verified
        if key_set == "empty" or key_set == "none":
            assert got == []
        if key_set == "all":
            assert len(got) == heap.count_records()
        if backend == "file":
            assert got_verified  # misses were checksum-verified
        if backend == "mmap":
            frames = engine.buffer._frames.values()
            assert any(isinstance(frame.data, memoryview) for frame in frames)


def test_too_short_record_raises(tmp_path):
    with make_engine("memory", tmp_path) as engine:
        heap = build_heap(engine, 1)
        pos = SERIALIZER.int_offset(SCHEMA, "RootKey")
        short = heap.insert(b"\x00" * (pos + 3))
        with pytest.raises(StorageError, match="needs"):
            heap.select_int(pos, {0})
        heap.delete(short)  # a deleted short record is never read
        assert heap.select_int(pos, {0}) == reference(heap, "RootKey", {0})

