"""Session latching on a sharded engine arms every shard, not just one.

The serving layer arms latching through ``engine.buffer``; on a sharded
deployment that is the :class:`~repro.sharding.ShardedBuffer` facade,
which must broadcast the call to every per-shard buffer manager.
"""

from repro.benchmark.workload import WorkloadSpec
from repro.serving import ServingExecutor, make_client_traces
from tests.sharding.conftest import PARITY_CONFIG, build_sharded


def test_serving_arms_the_latch_of_every_shard(parity_stations):
    facade = build_sharded(
        PARITY_CONFIG, parity_stations, "DASDBS-NSM", n_shards=4, policy="range"
    )
    buffers = [engine.buffer for engine in facade.engine.engines]
    try:
        assert not facade.engine.buffer.latching
        assert not any(buffer.latching for buffer in buffers)
        spec = WorkloadSpec(name="latch", n_ops=8, seed=5)
        traces = make_client_traces(spec, facade.n_objects, 3)
        ServingExecutor(facade, traces, workers=2).run()
        assert [buffer.latching for buffer in buffers] == [True] * 4
        assert facade.engine.buffer.latching
    finally:
        facade.engine.close()


def test_facade_latching_is_false_until_all_shards_are_armed(parity_stations):
    facade = build_sharded(
        PARITY_CONFIG, parity_stations, "NSM", n_shards=4, policy="hash"
    )
    try:
        facade.engine.engines[0].buffer.enable_latching()
        assert not facade.engine.buffer.latching
        facade.engine.buffer.enable_latching()
        facade.engine.buffer.enable_latching()  # idempotent
        assert facade.engine.buffer.latching
    finally:
        facade.engine.close()
