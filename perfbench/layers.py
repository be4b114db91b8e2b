"""Which layer entry points the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Per-op metrics are means
over the traced ops (the traced loop runs whole cycles of the
workload's cases, so every case weighs the same); ratios state their
base in :data:`PER_LAYER`'s comment column.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.graph import ExecutionGraph
from repro.core.monitor import ExecutionMonitor
from repro.core.partitioner import IncrementalPartitioner
from repro.emulator.fleet import FleetEmulator
from repro.emulator.parallel import ShardedReplayer
from repro.emulator.replay import TraceReplayer
from repro.platform.migration import Migrator
from repro.platform.platform import DistributedPlatform
from repro.rpc import marshal
from repro.rpc.channel import RpcChannel
from repro.rpc.retry import ReliableDelivery
from repro.vm import context as vm_context
from repro.vm.gc import MarkSweepCollector
from repro.vm.vm import VirtualMachine

from tracing import SpanTracer

#: (metric name, unit, meaning).  The order is the print order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("emulator.recorder.busy_s", "s", "set-up: recording the traces"),
    ("emulator.columnar.convert_s", "s", "set-up: row to columnar"),
    ("emulator.replay.calls", "count/op", "TraceReplayer.run calls"),
    ("emulator.replay.events", "ev/op", "trace events replayed"),
    ("emulator.replay.self_s", "s/op", "replay loop self time"),
    ("emulator.replay.faulty_events_per_s", "ev/s",
     "events/s of replays with faults or a link profile"),
    ("core.graph.record_interaction.calls", "count/op", "counted only"),
    ("core.graph.add_cpu.calls", "count/op", "counted only"),
    ("core.monitor.snapshot.calls", "count/op", ""),
    ("core.monitor.snapshot.busy_s", "s/op", ""),
    ("core.partitioner.calls", "count/op", "IncrementalPartitioner epochs"),
    ("core.partitioner.busy_s", "s/op", ""),
    ("core.partitioner.cold_runs", "count/op", "ReevalStats"),
    ("core.partitioner.warm_hits", "count/op", "ReevalStats"),
    ("core.partitioner.reuse_hits", "count/op", "ReevalStats"),
    ("core.partitioner.fallbacks", "count/op", "ReevalStats taxonomy"),
    ("core.partitioner.warm_ratio", "ratio", "warm_hits / epochs"),
    ("core.policy.cache_hit_ratio", "ratio", "cache_hits / epochs"),
    ("core.policy.refusals", "count/op", ""),
    ("rpc.batch.batches", "count/op", "DataPlaneStats"),
    ("rpc.batch.ops_per_batch", "ratio", "ops / batches"),
    ("rpc.batch.rtts_saved", "count/op", "DataPlaneStats"),
    ("rpc.cache.hit_ratio", "ratio", "hits / remote reads (lookups)"),
    ("rpc.marshal.calls", "count/op",
     "deep_size/args_size sizing and WireCodec encode/decode"),
    ("rpc.marshal.busy_s", "s/op", ""),
    ("rpc.marshal.bytes", "B/op", "bytes sized or encoded"),
    ("rpc.channel.calls", "count/op", "RpcChannel call/get_field/set_field"),
    ("rpc.channel.busy_s", "s/op", ""),
    ("rpc.channel.queue_wait_s", "s/op", "virtual; worker-pool waits"),
    ("rpc.retry.retries", "count/op", ""),
    ("rpc.retry.timeouts", "count/op", ""),
    ("rpc.retry.duplicates_suppressed", "count/op", ""),
    ("rpc.retry.retry_ratio", "ratio",
     "retries / ReliableDelivery exchanges"),
    ("net.mobility.link_changes", "count/op", "MobilityReport"),
    ("net.mobility.trend_fires", "count/op", "MobilityReport"),
    ("net.mobility.handoffs", "count/op", "MobilityReport"),
    ("platform.migration.calls", "count/op", "Migrator.apply_placement"),
    ("platform.migration.busy_s", "s/op", ""),
    ("platform.migration.bytes", "B/op", "MigrationOutcome.moved_bytes"),
    ("vm.run.self_s", "s/op",
     "guest execution inside DistributedPlatform.run, minus wrapped layers"),
    ("vm.gc.cycles", "count/op", "MarkSweepCollector.collect"),
    ("vm.gc.busy_s", "s/op", ""),
    ("emulator.fleet.drive_s", "s/op", "ShardedReplayer.run inside the op"),
    ("emulator.fleet.schedule_s", "s/op",
     "FleetEmulator.run self time: placement and serving simulation"),
    ("emulator.fleet.distinct_profiles", "count", "FleetResult"),
    ("emulator.fleet.replays_per_client", "ratio",
     "shards replayed / clients"),
    ("emulator.fleet.evictions", "count/op", ""),
    ("emulator.fleet.rebalances", "count/op", ""),
    ("emulator.fleet.mean_admission_wait_s", "s", "virtual"),
    ("emulator.fleet.p50_completion_s", "s", "virtual client completion"),
    ("emulator.fleet.p99_completion_s", "s", "virtual client completion"),
    ("emulator.fleet.fairness_ratio", "ratio", "p99 / p50 completion"),
    ("virtual.cpu_client_s", "s/op", "virtual"),
    ("virtual.cpu_surrogate_s", "s/op", "virtual"),
    ("virtual.comm_s", "s/op", "virtual"),
    ("virtual.migration_s", "s/op", "virtual"),
    ("virtual.gc_pause_s", "s/op", "virtual"),
    ("virtual.monitoring_s", "s/op", "virtual"),
    ("virtual.fault_s", "s/op", "virtual"),
    ("virtual.remote_interactions", "count/op", "virtual"),
    ("virtual.migration_bytes", "B/op", "virtual"),
    ("trace.overhead_ratio", "ratio", "traced op_ms_p50 / untraced"),
    ("trace.child_self_ratio", "ratio",
     "sum of layer self times inside ops / op wall; at most 1"),
]

PER_LAYER_NAMES = [name for name, _, _ in PER_LAYER]
_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _on_replay(tracer, args, result, seconds) -> None:
    replayer = args[0]
    tracer.add("replay.events", result.events_processed)
    config = replayer.config
    if config.faults is not None or config.link_profile is not None:
        tracer.add("replay.faulty_events", result.events_processed)
        tracer.add("replay.faulty_s", seconds)


def _on_sized(tracer, args, result, seconds) -> None:
    tracer.add("marshal.bytes", result)


def _on_encoded(tracer, args, result, seconds) -> None:
    tracer.add("marshal.bytes", len(result))


def _on_migrated(tracer, args, result, seconds) -> None:
    tracer.add("migration.bytes", result.moved_bytes)


def _on_cpu(tracer, args, result, seconds) -> None:
    site = "client" if args[0].name == "client" else "surrogate"
    tracer.add(f"vm.cpu_{site}_s", result)


def install(tracer: SpanTracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    wrap = tracer.wrap
    wrap(TraceReplayer, "run", "emulator.replay", on_result=_on_replay)
    wrap(ExecutionGraph, "record_interaction",
         "core.graph.record_interaction", mode="count")
    wrap(ExecutionGraph, "add_cpu", "core.graph.add_cpu", mode="count")
    wrap(ExecutionMonitor, "snapshot", "core.monitor.snapshot")
    wrap(IncrementalPartitioner, "partition", "core.partitioner")
    # The execution context imported the sizing helpers by name, so the
    # wrappers go where it looks them up.
    wrap(vm_context, "deep_size", "rpc.marshal", mode="timed",
         on_result=_on_sized)
    wrap(vm_context, "args_size", "rpc.marshal", mode="timed",
         on_result=_on_sized)
    wrap(marshal.WireCodec, "encode", "rpc.marshal", mode="timed",
         on_result=_on_encoded)
    wrap(marshal.WireCodec, "decode", "rpc.marshal", mode="timed")
    for method in ("call", "get_field", "set_field"):
        wrap(RpcChannel, method, "rpc.channel")
    wrap(ReliableDelivery, "exchange", "rpc.retry.exchange", mode="count")
    wrap(Migrator, "apply_placement", "platform.migration",
         on_result=_on_migrated)
    wrap(DistributedPlatform, "run", "vm.run")
    wrap(MarkSweepCollector, "collect", "vm.gc", mode="timed")
    # Live runs split guest CPU by site only here (the platform report
    # has no per-site CPU); the emulator reports it in its result.
    wrap(VirtualMachine, "charge_cpu", "vm.charge_cpu", mode="count",
         on_result=_on_cpu)
    wrap(FleetEmulator, "run", "emulator.fleet")
    wrap(ShardedReplayer, "run", "emulator.fleet.drive")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(setup: SpanTracer, traced: SpanTracer, outcomes: list,
            op_seconds: List[float], overhead_ratio: float) -> Dict[str, dict]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    ops = max(1, len(outcomes))
    calls, busy, self_time, sums = (traced.calls, traced.busy,
                                    traced.self_time, traced.sums)

    def counter(key: str) -> float:
        return sum(o.counters.get(key, 0) for o in outcomes)

    def virtual(key: str) -> float:
        return sum(o.virtual.get(key, 0.0) for o in outcomes)

    epochs = counter("partitioner.epochs")
    child_self = sum(value for name, value in self_time.items()
                     if name != "op")
    values = {
        "emulator.recorder.busy_s": setup.busy["emulator.recorder"],
        "emulator.columnar.convert_s": setup.busy["emulator.columnar"],
        "emulator.replay.calls": calls["emulator.replay"] / ops,
        "emulator.replay.events": sums["replay.events"] / ops,
        "emulator.replay.self_s": self_time["emulator.replay"] / ops,
        "emulator.replay.faulty_events_per_s": _ratio(
            sums["replay.faulty_events"], sums["replay.faulty_s"]),
        "core.graph.record_interaction.calls":
            calls["core.graph.record_interaction"] / ops,
        "core.graph.add_cpu.calls": calls["core.graph.add_cpu"] / ops,
        "core.monitor.snapshot.calls": calls["core.monitor.snapshot"] / ops,
        "core.monitor.snapshot.busy_s": busy["core.monitor.snapshot"] / ops,
        "core.partitioner.calls": calls["core.partitioner"] / ops,
        "core.partitioner.busy_s": busy["core.partitioner"] / ops,
        "core.partitioner.cold_runs": counter("partitioner.cold_runs") / ops,
        "core.partitioner.warm_hits": counter("partitioner.warm_hits") / ops,
        "core.partitioner.reuse_hits":
            counter("partitioner.reuse_hits") / ops,
        "core.partitioner.fallbacks": counter("partitioner.fallbacks") / ops,
        "core.partitioner.warm_ratio": _ratio(
            counter("partitioner.warm_hits"), epochs),
        "core.policy.cache_hit_ratio": _ratio(
            counter("policy.cache_hits"), epochs),
        "core.policy.refusals": counter("policy.refusals") / ops,
        "rpc.batch.batches": counter("batch.batches") / ops,
        "rpc.batch.ops_per_batch": _ratio(counter("batch.ops"),
                                          counter("batch.batches")),
        "rpc.batch.rtts_saved": counter("batch.rtts_saved") / ops,
        "rpc.cache.hit_ratio": _ratio(counter("cache.hits"),
                                      counter("cache.lookups")),
        "rpc.marshal.calls": calls["rpc.marshal"] / ops,
        "rpc.marshal.busy_s": busy["rpc.marshal"] / ops,
        "rpc.marshal.bytes": sums["marshal.bytes"] / ops,
        "rpc.channel.calls": calls["rpc.channel"] / ops,
        "rpc.channel.busy_s": busy["rpc.channel"] / ops,
        "rpc.channel.queue_wait_s": virtual("queue_wait_s") / ops,
        "rpc.retry.retries": counter("retry.retries") / ops,
        "rpc.retry.timeouts": counter("retry.timeouts") / ops,
        "rpc.retry.duplicates_suppressed":
            counter("retry.duplicates_suppressed") / ops,
        "rpc.retry.retry_ratio": _ratio(counter("retry.retries"),
                                        calls["rpc.retry.exchange"]),
        "net.mobility.link_changes": counter("mobility.link_changes") / ops,
        "net.mobility.trend_fires": counter("mobility.trend_fires") / ops,
        "net.mobility.handoffs": counter("mobility.handoffs") / ops,
        "platform.migration.calls": calls["platform.migration"] / ops,
        "platform.migration.busy_s": busy["platform.migration"] / ops,
        "platform.migration.bytes": sums["migration.bytes"] / ops,
        "vm.run.self_s": self_time["vm.run"] / ops,
        "vm.gc.cycles": calls["vm.gc"] / ops,
        "vm.gc.busy_s": busy["vm.gc"] / ops,
        "emulator.fleet.drive_s": busy["emulator.fleet.drive"] / ops,
        "emulator.fleet.schedule_s": self_time["emulator.fleet"] / ops,
        "emulator.fleet.distinct_profiles":
            counter("fleet.distinct_profiles") / ops,
        "emulator.fleet.replays_per_client":
            counter("fleet.replays_per_client") / ops,
        "emulator.fleet.evictions": counter("fleet.evictions") / ops,
        "emulator.fleet.rebalances": counter("fleet.rebalances") / ops,
        "emulator.fleet.mean_admission_wait_s":
            virtual("fleet_mean_admission_wait_s") / ops,
        "emulator.fleet.p50_completion_s":
            virtual("fleet_p50_completion_s") / ops,
        "emulator.fleet.p99_completion_s":
            virtual("fleet_p99_completion_s") / ops,
        "emulator.fleet.fairness_ratio":
            virtual("fleet_fairness_ratio") / ops,
        "trace.overhead_ratio": overhead_ratio,
        "trace.child_self_ratio": _ratio(child_self, sum(op_seconds)),
    }
    for key in ("cpu_client_s", "cpu_surrogate_s", "comm_s", "migration_s",
                "gc_pause_s", "monitoring_s", "fault_s",
                "remote_interactions", "migration_bytes"):
        values[f"virtual.{key}"] = virtual(key) / ops
    for site in ("client", "surrogate"):
        values[f"virtual.cpu_{site}_s"] += sums[f"vm.cpu_{site}_s"] / ops
    missing = set(PER_LAYER_NAMES) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {name: {"value": values[name], "unit": _UNITS[name]}
            for name in PER_LAYER_NAMES}
