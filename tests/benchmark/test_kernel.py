"""The operation kernel: ``navigate``, ``execute_op`` and ``observe_op``.

Both replay loops (flat ``WorkloadExecutor`` and the serving layer) and
query 2 run their operations through these three functions, so their
semantics are pinned here directly, on every storage model.
"""

import pytest

from repro.benchmark.workload import (
    Operation,
    WorkloadExecutor,
    WorkloadSpec,
    compile_trace,
    execute_op,
    navigate,
    observe_op,
)
from repro.errors import BenchmarkError


def _targets(station) -> list[int]:
    """OIDs a station references, in storage order, de-duplicated."""
    oids = [
        connection["OidConnection"]
        for platform in station.subtuples("Platform")
        for connection in platform.subtuples("Connection")
    ]
    return list(dict.fromkeys(oids))


def _root_with_grandchildren(stations) -> int:
    for oid, station in enumerate(stations):
        if any(_targets(stations[child]) for child in _targets(station)):
            return oid
    raise AssertionError("extension has no two-level navigation")  # pragma: no cover


class Recorder:
    """Stands in for both observers; logs every call in order."""

    def __init__(self, tag: str, log: list) -> None:
        self.tag = tag
        self.log = log

    def record_operation(self, oids):
        self.log.append((self.tag, "operation", list(oids)))

    def record_scan(self):
        self.log.append((self.tag, "scan"))

    note_operation = record_operation
    note_scan = record_scan

    def page_fixed(self, page_id):
        pass


class TestNavigate:
    def test_levels_follow_the_stored_references(self, loaded_model, small_stations):
        model = loaded_model
        root = _root_with_grandchildren(small_stations)
        children, grand = navigate(model, root)
        expected_children = _targets(small_stations[root])
        assert sorted(map(model.oid_of, children)) == sorted(expected_children)
        expected_grand = {
            target
            for child in expected_children
            for target in _targets(small_stations[child])
        }
        assert sorted(map(model.oid_of, grand)) == sorted(expected_grand)

    def test_levels_are_deduplicated(self, loaded_model, small_stations):
        model = loaded_model
        children, grand = navigate(model, _root_with_grandchildren(small_stations))
        assert len(children) == len(set(children))
        assert len(grand) == len(set(grand))

    def test_childless_root_fetches_no_second_level(self, loaded_model, small_stations):
        model = loaded_model
        leaves = [oid for oid, s in enumerate(small_stations) if not _targets(s)]
        assert leaves, "extension has no childless station"
        for leaf in leaves:
            assert navigate(model, leaf) == ([], [])


class TestExecuteOp:
    def test_point_touches_only_its_target(self, loaded_model):
        model = loaded_model
        model.engine.reset_metrics()
        assert execute_op(model, Operation("point", 5), 0) == (5,)
        assert model.engine.metrics.snapshot().page_fixes > 0

    def test_navigate_reports_root_then_children_then_grandchildren(
        self, loaded_model, small_stations
    ):
        model = loaded_model
        root = _root_with_grandchildren(small_stations)
        touched = execute_op(model, Operation("navigate", root), 0)
        children, grand = navigate(model, root)
        assert touched == [
            root, *map(model.oid_of, children), *map(model.oid_of, grand)
        ]

    def test_scan_touches_no_single_object(self, loaded_model):
        model = loaded_model
        model.engine.reset_metrics()
        assert execute_op(model, Operation("scan"), 0) is None
        assert model.engine.metrics.snapshot().page_fixes > 0

    def test_update_rewrites_the_root_name(self, loaded_model):
        model = loaded_model
        assert execute_op(model, Operation("update", 3), 17) == (3,)
        assert model.fetch_full_by_key(model.key_of(3))["Name"] == "workload-17"
        untouched = model.fetch_full_by_key(model.key_of(4))["Name"]
        assert untouched != "workload-17"

    def test_update_is_idempotent(self, loaded_model):
        model = loaded_model
        execute_op(model, Operation("update", 3), 9)
        first = model.fetch_full_by_key(model.key_of(3))
        execute_op(model, Operation("update", 3), 9)
        assert model.fetch_full_by_key(model.key_of(3)) == first

    def test_unknown_kind_rejected(self, loaded_model):
        with pytest.raises(BenchmarkError):
            execute_op(loaded_model, Operation("bogus", 0), 0)


class TestObserveOp:
    def test_operation_feeds_stats_then_online(self):
        log: list = []
        observe_op([1, 2, 3], Recorder("stats", log), Recorder("online", log))
        assert log == [
            ("stats", "operation", [1, 2, 3]),
            ("online", "operation", [1, 2, 3]),
        ]

    def test_scan_feeds_the_scan_hooks(self):
        log: list = []
        observe_op(None, Recorder("stats", log), Recorder("online", log))
        assert log == [("stats", "scan"), ("online", "scan")]

    def test_either_observer_may_be_absent(self):
        log: list = []
        observe_op((4,), None, Recorder("online", log))
        observe_op((5,), Recorder("stats", log), None)
        observe_op(None, None, None)
        assert log == [("online", "operation", [4]), ("stats", "operation", [5])]


class TestFlatReplayUsesTheKernel:
    def test_observers_see_exactly_the_kernel_results(self, small_stations):
        from tests.conftest import build_loaded_model

        spec = WorkloadSpec(n_ops=25, seed=11)
        trace = compile_trace(spec, len(small_stations))

        direct = build_loaded_model("DASDBS-NSM", small_stations)
        expected = []
        for index, op in enumerate(trace.ops):
            touched = execute_op(direct, op, index)
            expected.append(
                ("stats", "scan") if touched is None
                else ("stats", "operation", list(touched))
            )

        log: list = []
        replayed = build_loaded_model("DASDBS-NSM", small_stations)
        WorkloadExecutor(replayed, trace, stats=Recorder("stats", log)).run()
        assert log == expected
