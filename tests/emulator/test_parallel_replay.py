"""Sharded multi-core replay: determinism, parity, and the merge rules.

The batched columnar loop and the sharded replayer are performance
paths, not semantic ones: replaying dia or javanote through the
per-event reference interpreter (event objects), the batched loop, or
sharded (process pool) must produce bit-identical fingerprints, with
the data plane on or off.
"""

import dataclasses
import os

import pytest

from repro.emulator.columnar import ColumnarTrace, write_ctrace
from repro.emulator.parallel import (
    AggregateReplayResult,
    ClientReplay,
    ReplayShard,
    ShardedReplayer,
    replicate,
)
from repro.emulator.replay import TraceReplayer
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.rpc.batch import DataPlaneConfig

from tests.emulator.reference_replay import ReferenceReplayer

APPS = ["dia", "javanote"]


def trace_for(app_name):
    return cached_trace(app_name, MEMORY_WORKLOADS[app_name])


def config_with_plane(label):
    plane = (DataPlaneConfig.enabled() if label == "on"
             else DataPlaneConfig.off())
    return dataclasses.replace(memory_emulator_config(), data_plane=plane)


@pytest.fixture(scope="module")
def fingerprints():
    """Reference ("serial") / batched ("columnar") fingerprints per
    (app, plane) — replays dominate test time, so compute each once."""
    table = {}
    for app in APPS:
        trace = trace_for(app)
        columnar = ColumnarTrace.from_trace(trace)
        for label in ("off", "on"):
            config = config_with_plane(label)
            table[(app, label, "serial")] = (
                ReferenceReplayer(trace, config).run().fingerprint())
            table[(app, label, "columnar")] = (
                TraceReplayer(columnar, config).run().fingerprint())
    return table


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("plane", ["off", "on"])
class TestColumnarParity:
    def test_columnar_replay_matches_serial(self, fingerprints,
                                            app_name, plane):
        assert (fingerprints[(app_name, plane, "columnar")]
                == fingerprints[(app_name, plane, "serial")])


@pytest.mark.parametrize("app_name", APPS)
class TestShardedParity:
    def test_shards_match_serial_and_pool_matches_inline(
            self, fingerprints, app_name):
        columnar = ColumnarTrace.from_trace(trace_for(app_name))
        config = config_with_plane("off")
        shards = replicate(columnar, config, clients=2)
        inline = ShardedReplayer(shards, workers=1).run()
        pooled = ShardedReplayer(shards, workers=2).run()
        assert inline.workers == 1
        # Two workers for two shards, unless the host itself is smaller
        # (the clamp then records itself as report metadata).
        assert pooled.workers == min(2, os.cpu_count() or 1)
        assert pooled.requested_workers == 2
        assert inline.fingerprint() == pooled.fingerprint()
        serial_fp = fingerprints[(app_name, "off", "serial")]
        for aggregate in (inline, pooled):
            assert [c.result.fingerprint() for c in aggregate.clients] \
                == [serial_fp] * len(shards)


class TestShardMechanics:
    def test_duplicate_client_ids_rejected(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        shard = ReplayShard("twin", trace, config)
        with pytest.raises(ValueError, match="duplicate"):
            ShardedReplayer([shard, shard])

    def test_replicate_ids_are_stable_and_ordered(self):
        shards = replicate(trace_for("dia"), config_with_plane("off"),
                           clients=3)
        assert [s.client_id for s in shards] == [
            "client-0000", "client-0001", "client-0002"]

    def test_path_shards_load_inside_the_worker(self, tmp_path):
        trace = trace_for("dia")
        path = tmp_path / "dia.ctrace"
        write_ctrace(trace, path)
        config = config_with_plane("off")
        by_path = ShardedReplayer(
            [ReplayShard("c0", str(path), config)], workers=1).run()
        in_memory = ShardedReplayer(
            [ReplayShard("c0", trace, config)], workers=1).run()
        assert by_path.fingerprint() == in_memory.fingerprint()
        assert by_path.total_events == len(trace)

    def test_merge_orders_clients_by_id_not_completion(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        shards = [ReplayShard(cid, trace, config)
                  for cid in ("client-b", "client-a")]
        aggregate = ShardedReplayer(shards, workers=1).run()
        assert [c.client_id for c in aggregate.clients] == [
            "client-a", "client-b"]

    def test_aggregate_counters_sum_over_clients(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        aggregate = ShardedReplayer(
            replicate(trace, config, clients=2), workers=1).run()
        single = TraceReplayer(trace, config).run()
        assert aggregate.total_events == 2 * len(trace)
        assert aggregate.events_processed == 2 * single.events_processed
        assert aggregate.completed_clients == 2
        assert aggregate.oom_clients == 0
        assert aggregate.wall_time_s > 0.0
        assert aggregate.events_per_second > 0.0

    def test_fingerprint_ignores_wall_clock(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        aggregate = ShardedReplayer(
            replicate(trace, config, clients=1), workers=1).run()
        twin = AggregateReplayResult(
            clients=[ClientReplay(c.client_id, c.events, c.result)
                     for c in aggregate.clients],
            workers=99, wall_time_s=aggregate.wall_time_s + 123.0)
        assert twin.fingerprint() == aggregate.fingerprint()

    def test_workers_clamped_to_cpu_count_with_warning(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        shards = replicate(trace, config, clients=2)
        cpus = os.cpu_count() or 1
        replayer = ShardedReplayer(shards, workers=cpus + 7)
        assert replayer.workers == min(cpus, len(shards))
        assert replayer.requested_workers == cpus + 7
        assert any("clamped" in w for w in replayer.warnings)

    def test_workers_clamped_to_shard_count_with_warning(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        replayer = ShardedReplayer(
            [ReplayShard("only", trace, config)], workers=1000)
        assert replayer.workers == 1
        assert any("clamped" in w for w in replayer.warnings)
        aggregate = replayer.run()
        assert aggregate.requested_workers == 1000
        assert aggregate.warnings == replayer.warnings

    def test_unclamped_run_carries_no_warnings(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        aggregate = ShardedReplayer(
            replicate(trace, config, clients=2), workers=1).run()
        assert aggregate.warnings == []
        assert aggregate.requested_workers == 1

    def test_empty_aggregate_rates_are_zero(self):
        empty = AggregateReplayResult()
        assert empty.events_per_second == 0.0
        assert empty.total_events == 0
        assert empty.fingerprint()  # stable digest of nothing
