"""Session-interleaving fuzzer: K pin holders on one shared buffer.

A seeded generator drives K sessions through random fix / unfix / read
/ update traffic against **one** shared buffer (small enough to force
eviction pressure) through the plain ``fix``/``unfix`` API.  The test
tracks which pages each session holds fixed and checks after every
step that none of them was evicted.  Updates write unique tokens,
mirrored into a shadow byte model, so a lost update — one session's
write vanishing under another's traffic — is caught byte-for-byte,
both on every read and in the final flushed disk image.

Seeds follow the layer convention: the fixed default set always runs,
``REPRO_FUZZ_SEEDS=...`` extends it (see ``conftest.py``).
"""

import random

from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk

PAGE_SIZE = 128
N_PAGES = 24
CAPACITY = 8
SESSIONS = 3
STEPS = 400


def build(seed):
    """A disk with deterministic initial page contents, plus its buffer."""
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    rng = random.Random(seed * 31 + 17)
    pages = []
    for _ in range(N_PAGES):
        pid = disk.allocate()
        disk.write_page(pid, bytes(rng.randrange(256) for _ in range(PAGE_SIZE)))
        pages.append(pid)
    disk.metrics.reset()
    return disk, BufferManager(disk, capacity=CAPACITY), pages


def test_session_interleaving_against_shadow_model(fuzz_seed):
    rng = random.Random(fuzz_seed)
    disk, buf, pages = build(fuzz_seed)

    # Shadow state: what every page must hold at the end, and the pins
    # each session holds.
    expected = {pid: bytearray(disk.read_page(pid)) for pid in pages}
    held = {sid: {} for sid in range(SESSIONS)}  # session -> {pid: count}
    token = 0

    def pinned_pages():
        return {pid for counts in held.values() for pid in counts}

    for _ in range(STEPS):
        sid = rng.randrange(SESSIONS)
        mine = held[sid]
        # Keep fix-heavy traffic from pinning the whole tiny buffer.
        can_fix = len(pinned_pages()) < CAPACITY - 1
        choices = ["fix", "read", "update"] if can_fix else []
        if mine:
            choices += ["unfix", "unfix"]
        if not choices:
            continue
        op = rng.choice(choices)
        if op == "fix":
            pid = rng.choice(pages)
            buf.fix(pid)
            mine[pid] = mine.get(pid, 0) + 1
        elif op == "unfix":
            pid = rng.choice(list(mine))
            buf.unfix(pid)
            if mine[pid] == 1:
                del mine[pid]
            else:
                mine[pid] -= 1
        elif op == "read":
            pid = rng.choice(pages)
            data = buf.fix(pid)
            # A resident page must always show the shadow-model bytes:
            # any divergence here is a lost or phantom update.
            assert bytes(data) == bytes(expected[pid]), f"page {pid} diverged"
            buf.unfix(pid)
        else:  # update
            pid = rng.choice(pages)
            offset = rng.randrange(PAGE_SIZE - 2)
            token = (token + 1) % 65536
            data = buf.fix(pid)
            data[offset] = token >> 8
            data[offset + 1] = token & 0xFF
            expected[pid][offset] = token >> 8
            expected[pid][offset + 1] = token & 0xFF
            buf.unfix(pid, dirty=True)
        # Checked at every step: frames some session holds fixed are
        # never evicted out from under it.
        for pid in pinned_pages():
            assert buf.is_resident(pid), f"pinned page {pid} was evicted"

    # Disconnect every session (release its remaining pins), then flush:
    # the final disk image must equal the shadow byte model exactly.
    for counts in held.values():
        for pid, count in counts.items():
            for _ in range(count):
                buf.unfix(pid)
    assert not buf.fixed_pages()
    buf.flush()
    for pid in pages:
        assert disk.read_page(pid) == bytes(expected[pid]), f"page {pid} lost an update"


def test_interleaving_is_deterministic_per_seed(fuzz_seed):
    """The fuzzer itself must be reproducible: same seed, same final
    state — otherwise a failing seed could not be replayed."""

    def final_state(run):
        rng = random.Random(fuzz_seed)
        disk, buf, pages = build(fuzz_seed)
        for step in range(120):
            sid = rng.randrange(SESSIONS)
            pid = pages[rng.randrange(len(pages))]
            data = buf.fix(pid)
            if rng.random() < 0.5:
                data[step % PAGE_SIZE] = (sid * 37 + step) % 256
                buf.unfix(pid, dirty=True)
            else:
                buf.unfix(pid)
        buf.flush()
        return [disk.read_page(pid) for pid in pages], disk.metrics.snapshot()

    assert final_state(0) == final_state(1)
