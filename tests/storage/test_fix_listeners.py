"""The buffer manager's fix-listener list.

Regression suite for the old single-slot listener limitation: the
statistics collector and the serving layer's per-session fix
attribution must be able to observe the same replay, each through its
own entry in the list.
"""

import pytest

from repro.errors import BufferError_
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk


def make():
    disk = SimulatedDisk(page_size=128)
    return disk, BufferManager(disk, capacity=4)


class TestFixListenerList:
    def test_both_listeners_fire_in_registration_order(self):
        """The single-slot regression: two observers of one replay."""
        disk, buf = make()
        pid = disk.allocate()
        fired = []
        buf.add_fix_listener(lambda p: fired.append(("stats", p)))
        buf.add_fix_listener(lambda p: fired.append(("serving", p)))
        buf.fix(pid)
        buf.unfix(pid)
        assert fired == [("stats", pid), ("serving", pid)]

    def test_listeners_fire_on_every_fix_path(self):
        disk, buf = make()
        a, b = disk.allocate(), disk.allocate()
        fresh = 17
        fired = []
        buf.add_fix_listener(fired.append)
        buf.fix(a)                      # miss
        buf.fix(a)                      # hit
        buf.fix_many([a, b])            # batched hit + miss
        buf.new_page(fresh)             # fresh page
        assert fired == [a, a, a, b, fresh]
        for _ in range(3):
            buf.unfix(a)
        buf.unfix(b)
        buf.unfix(fresh)

    def test_duplicate_registration_rejected(self):
        disk, buf = make()
        listener = lambda p: None
        buf.add_fix_listener(listener)
        with pytest.raises(BufferError_):
            buf.add_fix_listener(listener)

    def test_remove_unregistered_rejected(self):
        disk, buf = make()
        with pytest.raises(BufferError_):
            buf.remove_fix_listener(lambda p: None)

    def test_remove_restores_single_dispatch(self):
        disk, buf = make()
        pid = disk.allocate()
        fired = []
        keep, drop = fired.append, lambda p: fired.append(-p)
        buf.add_fix_listener(keep)
        buf.add_fix_listener(drop)
        buf.remove_fix_listener(drop)
        assert buf.fix_listeners == (keep,)
        buf.fix(pid)
        buf.unfix(pid)
        assert fired == [pid]

    def test_no_listeners_means_no_dispatch(self):
        disk, buf = make()
        assert buf._notify_fix is None
        listener = lambda p: None
        buf.add_fix_listener(listener)
        assert buf._notify_fix is listener  # zero-overhead single path
        buf.remove_fix_listener(listener)
        assert buf._notify_fix is None
