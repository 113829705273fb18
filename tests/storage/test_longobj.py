"""Unit tests for the long-object store (header/data page split)."""

import struct

import pytest

from repro.errors import BufferFullError, InvalidAddressError, StorageError
from repro.nf2.serializer import DASDBS_FORMAT
from repro.storage import StorageEngine
from repro.storage.constants import PAGE_HEADER_SIZE
from repro.storage.longobj import LongObjectAddress, LongObjectStore


@pytest.fixture
def store():
    engine = StorageEngine(buffer_pages=100)
    return LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)


def cold(store):
    """Flush + drop the buffer and reset metrics: next access is cold."""
    store.buffer.clear()
    store.segment.disk.metrics.reset()


SECTIONS = [b"R" * 150, b"P" * 1000, b"S" * 3400]


class TestStoreAndRead:
    def test_roundtrip_all_sections(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        assert store.read(addr) == SECTIONS

    def test_roundtrip_after_cold_restart(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        assert store.read(addr) == SECTIONS

    def test_single_section_read(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        assert store.read(addr, [1]) == [SECTIONS[1]]

    def test_section_subsets(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        assert store.read(addr, [0, 2]) == [SECTIONS[0], SECTIONS[2]]

    def test_empty_sections_allowed(self, store):
        addr = store.store([b"", b"abc", b""], n_subtuples=1)
        assert store.read(addr) == [b"", b"abc", b""]

    def test_no_sections_rejected(self, store):
        with pytest.raises(StorageError):
            store.store([], n_subtuples=0)

    def test_unknown_section_rejected(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        with pytest.raises(InvalidAddressError):
            store.read(addr, [7])

    def test_bad_address_rejected(self, store):
        store.store(SECTIONS, n_subtuples=13)
        data_page = store.segment.page_ids[-1]  # a data page, not a header
        with pytest.raises(InvalidAddressError):
            store.read_directory(LongObjectAddress((data_page,)))

    def test_pages_exclusive_per_object(self, store):
        a = store.store(SECTIONS, n_subtuples=13)
        b = store.store(SECTIONS, n_subtuples=13)
        pages_a = set(a.header_page_ids) | set(store.read_directory(a).data_page_ids)
        pages_b = set(b.header_page_ids) | set(store.read_directory(b).data_page_ids)
        assert pages_a.isdisjoint(pages_b)


class TestIOAccounting:
    def test_full_read_two_calls(self, store):
        """DASDBS reads header pages and data pages in separate calls."""
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        store.read(addr)
        snap = store.segment.disk.metrics.snapshot()
        assert snap.read_calls == 2
        # 1 header + ceil(4550/2012) = 3 data pages
        assert snap.pages_read == 4

    def test_partial_read_fewer_pages(self, store):
        """Equation 5: only the data pages of requested sections load."""
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        store.read(addr, [0])  # root section: first data page only
        snap = store.segment.disk.metrics.snapshot()
        assert snap.read_calls == 2
        assert snap.pages_read == 2  # header + one data page

    def test_prefix_sections_one_data_page(self, store):
        """Root + Platform sections of a benchmark-like object share the
        first data page — 'the header page and a single data page'."""
        addr = store.store([b"R" * 150, b"P" * 900, b"S" * 3400], n_subtuples=13)
        cold(store)
        store.read(addr, [0, 1])
        assert store.segment.disk.metrics.snapshot().pages_read == 2

    def test_pages_of(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        header, data = store.pages_of(addr)
        assert header == 1
        assert data == 3

    def test_directory_forces_header_pages(self, store):
        """Thousands of sub-tuple entries push the directory past one page."""
        addr = store.store([b"x" * 100], n_subtuples=300)  # 32+12+2400 B directory
        header, _ = store.pages_of(addr)
        assert header == 2

    def test_pages_for_sections(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        assert store.pages_for_sections(addr, [0]) == 1
        assert store.pages_for_sections(addr, [0, 1]) == 1
        assert store.pages_for_sections(addr, [0, 1, 2]) == 3


class TestUpdates:
    def test_replace_same_sizes(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        new_sections = [b"r" * 150, b"p" * 1000, b"s" * 3400]
        store.replace(addr, new_sections)
        assert store.read(addr) == new_sections

    def test_replace_dirties_all_pages(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        store.buffer.flush()
        store.segment.disk.metrics.reset()
        store.replace(addr, SECTIONS)
        store.buffer.flush()
        assert store.segment.disk.metrics.snapshot().pages_written == 4

    def test_replace_size_change_rejected(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        with pytest.raises(StorageError):
            store.replace(addr, [b"too short", SECTIONS[1], SECTIONS[2]])

    def test_patch_section_deferred(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        store.buffer.flush()
        store.segment.disk.metrics.reset()
        store.patch_section(addr, 0, b"Q" * 150)
        assert store.segment.disk.metrics.snapshot().pages_written == 0
        store.buffer.flush()
        assert store.segment.disk.metrics.snapshot().pages_written == 1
        assert store.read(addr, [0]) == [b"Q" * 150]

    def test_patch_section_write_through_pool(self, store):
        """Section 5.3: the change-attribute page pool writes immediately."""
        addr = store.store(SECTIONS, n_subtuples=13)
        store.buffer.flush()
        store.segment.disk.metrics.reset()
        store.patch_section(addr, 0, b"W" * 150, write_through=True)
        snap = store.segment.disk.metrics.snapshot()
        assert snap.write_calls == 1
        assert snap.pages_written == 1

    def test_patch_wrong_size_rejected(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        with pytest.raises(StorageError):
            store.patch_section(addr, 0, b"tiny")

    def test_patch_section_spanning_pages(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        new_sight = b"Z" * 3400  # spans two data pages
        store.patch_section(addr, 2, new_sight)
        assert store.read(addr, [2]) == [new_sight]


# -- the read kernel against its two fix_many calls ----------------------------

#: (sections, n_subtuples): the benchmark-like object, empty sections
#: between full ones, a section spanning three pages, a directory
#: spilling onto a second header page, and an object with no data.
KERNEL_CASES = {
    "benchmark": ([b"R" * 150, b"P" * 1000, b"S" * 3400], 13),
    "empty-sections": ([b"", b"a" * 40, b"", b"b" * 2100, b""], 2),
    "spanning": ([bytes(range(256)) * 20 + b"tail"], 4),
    "multi-page-header": ([b"h" * 100, b"i" * 2500, b"j" * 7], 300),
    "no-data": ([b"", b""], 0),
}
SUBSETS = (None, [0], [1], [0, 1], [2, 0], [1, 1])


def make_store(backend: str, tmp_path):
    if backend == "memory":
        engine = StorageEngine(buffer_pages=32)
    else:
        engine = StorageEngine(
            buffer_pages=32, backend=backend, backend_path=str(tmp_path / f"{backend}.pages")
        )
    store = LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)
    if backend == "file":
        # Guard the object pages too, so every miss is checksum-verified.
        engine.buffer.enable_checksums(store.segment)
    return engine, store


def two_fix_many_calls(store, address, data_ids: list[int]) -> None:
    """What a read must charge: header pages, then the needed data pages."""
    for page_ids in (list(address.header_page_ids), data_ids):
        store.buffer.fix_many(page_ids)
        for pid in page_ids:
            store.buffer.unfix(pid)


def measured(engine, run, cold: bool):
    """``run()`` with its counter delta and the checksum-verified pages."""
    if cold:
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


@pytest.mark.parametrize("backend", ("memory", "file", "mmap"))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_read_returns_sections_with_the_charges_of_two_fix_many_calls(tmp_path, backend, case):
    sections, n_subtuples = KERNEL_CASES[case]
    engine, store = make_store(backend, tmp_path)
    with engine:
        address = store.store(sections, n_subtuples)
        store.store([b"neighbour" * 300], 5)  # pages around the object
        engine.flush()
        directory = store.read_directory(address)
        payload = store.payload_per_page
        for subset in SUBSETS:
            if subset is not None and max(subset) >= len(sections):
                continue
            wanted = range(len(sections)) if subset is None else subset
            indexes = sorted(
                {
                    index
                    for sid in wanted
                    if sections[sid]
                    for index in range(
                        directory.section_offsets[sid] // payload,
                        (directory.section_offsets[sid] + len(sections[sid]) - 1) // payload + 1,
                    )
                }
            )
            data_ids = [directory.data_page_ids[i] for i in indexes]
            for cold in (True, False):
                _, want_delta, want_verified = measured(
                    engine, lambda: two_fix_many_calls(store, address, data_ids), cold
                )
                got, got_delta, got_verified = measured(
                    engine, lambda: store.read(address, subset), cold
                )
                assert got == [sections[sid] for sid in wanted]
                assert all(type(section) is bytes for section in got)
                assert got_delta == want_delta
                assert got_verified == want_verified
                assert store.buffer.fixed_pages() == []
                if backend == "file" and cold:
                    assert got_verified  # misses were checksum-verified
        if case == "multi-page-header":
            assert len(address.header_page_ids) == 2
        if backend == "mmap":
            frames = engine.buffer._frames.values()
            assert any(isinstance(frame.data, memoryview) for frame in frames)


# -- errors leave no page fixed -------------------------------------------------


def corrupt_root(store, address, offset: int, value: int) -> None:
    """Overwrite one u32 of the object directory (bytes after the page header)."""
    root = address.root_page_id
    store.buffer.fix(root)
    data = store.buffer.page_data(root)
    struct.pack_into("<I", data, PAGE_HEADER_SIZE + offset, value)
    store.buffer.unfix(root, dirty=True)


#: Directory layout: u16 magic, u16 sections, u32 data pages, u32 size,
#: then the data page ids and one (offset, length) pair per section.
CORRUPTIONS = {
    "n_data_pages": (4, 60_000, StorageError, "corrupt object directory on page {root}"),
    "section-length": (12 + 4 * 3 + 8 * 2 + 4, 10**6, StorageError, "on page {root}"),
    "section-offset": (12 + 4 * 3, 10**6, StorageError, "on page {root}"),
    "data-page-id": (12, 10**6, StorageError, None),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@pytest.mark.parametrize("cold", (True, False), ids=("cold", "warm"))
def test_corrupt_directory_raises_a_typed_error_and_leaves_nothing_fixed(store, kind, cold):
    offset, value, error, message = CORRUPTIONS[kind]
    address = store.store(SECTIONS, n_subtuples=13)
    corrupt_root(store, address, offset, value)
    if cold:
        store.buffer.clear()
    if message is not None:
        message = message.format(root=address.root_page_id)
    with pytest.raises(error, match=message):
        store.read(address)
    assert store.buffer.fixed_pages() == []
    if kind != "data-page-id":
        with pytest.raises(error):
            store.read_directory(address)
        assert store.buffer.fixed_pages() == []


def test_dsm_root_page_with_huge_page_count_names_the_root_page():
    """Regression: a directory claiming 60000 data pages used to escape
    as a raw ``struct.error`` from ``unpack_from``."""
    from repro.benchmark.config import BenchmarkConfig
    from repro.benchmark.generator import generate_stations
    from repro.models.dsm import DSMModel

    model = DSMModel(StorageEngine(buffer_pages=64))
    model.load(generate_stations(BenchmarkConfig(n_objects=40)))
    oid, (_, address) = next(
        (oid, entry) for oid, entry in enumerate(model._handles) if entry[0] == "long"
    )
    corrupt_root(model.long_store, address, 4, 60_000)
    for call in (lambda: model.fetch_full(oid), lambda: model.fetch_roots([oid])):
        with pytest.raises(StorageError, match=f"page {address.root_page_id}"):
            call()
        assert model.engine.buffer.fixed_pages() == []


@pytest.mark.parametrize(
    "call",
    (
        lambda store, address: store.read(address, [3]),
        lambda store, address: store.read(address, [-1]),
        lambda store, address: store.read(LongObjectAddress((store.segment.page_ids[-1],))),
        lambda store, address: store.read_directory(
            LongObjectAddress((store.segment.page_ids[-1],))
        ),
    ),
    ids=("section-3", "section-minus-1", "read-data-page", "directory-of-data-page"),
)
def test_address_errors_leave_nothing_fixed(store, call):
    address = store.store(SECTIONS, n_subtuples=13)
    with pytest.raises(InvalidAddressError):
        call(store, address)
    assert store.buffer.fixed_pages() == []


def test_full_buffer_during_read_leaves_nothing_fixed():
    engine = StorageEngine(buffer_pages=5)
    store = LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)
    address = store.store([b"x" * 7000], n_subtuples=1)  # 1 header + 4 data pages
    engine.flush()
    pinned = engine.new_segment("pinned")
    others = [pinned.allocate_page(), pinned.allocate_page()]  # fixed, never unfixed
    with pytest.raises(BufferFullError):
        store.read(address)
    assert sorted(engine.buffer.fixed_pages()) == others
