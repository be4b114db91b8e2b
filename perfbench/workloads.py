"""The benchmark's four workloads: inputs, ops and output checks.

Every workload turns ``--seed`` into generated inputs (app constructor
seeds, fault seeds, fleet client mixes) and exposes a list of *cases*:
one distinct input each, run by one op.  An op is one call a user of the
library would make — ``TraceReplayer(...).run()``, a fresh
``DistributedPlatform(...).run(app)``, or ``FleetEmulator(...).run()``.

Each case's check turns the op's raw result, outside the timed region,
into an :class:`Outcome`: the value the determinism check compares (a
fingerprint, or the ``PlatformReport`` fields), the events it really
simulated, its virtual-time split, the per-layer counters read from the
public result objects, and the problems its own output checks found.
Nothing here reads the host clock; timing is the runner's job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps import Biomer, Dia, JavaNote, Tracer, Voxel
from repro.config import EnhancementFlags, VMConfig
from repro.core.policy import CpuPartitionPolicy, OffloadPolicy
from repro.emulator import (
    ColumnarTrace,
    EmulatorConfig,
    FaultSpec,
    FleetConfig,
    FleetEmulator,
    ReplayShard,
    RetryPolicy,
    TraceReplayer,
    record_application,
)
from repro.emulator.events import AllocEvent, FreeEvent
from repro.experiments.common import (
    CHAI_GC,
    CLIENT_6MB,
    CPU_OFFLOAD_EVENT_FRACTION,
    SURROGATE_SAME_SPEED,
    cpu_emulator_config,
    memory_emulator_config,
)
from repro.net.mobility import NAMED_PROFILES, MobilityConfig
from repro.platform.platform import DistributedPlatform
from repro.rpc.batch import DataPlaneConfig
from repro.units import MB

#: Loss-only fault configs exercise the retry ladder, not surrogate
#: death: with the default four retries a 5% loss rate declares the
#: surrogate dead on a few seeds (five drops in a row), and the 6 MB
#: memory scenarios then run out of heap by design.  Surrogate loss is
#: exercised on purpose by the ``crash`` configs of ``adaptive``.
LOSS_RETRY = RetryPolicy(max_retries=6)
LOSS_RATE = 0.05

#: Section 5.2 re-evaluation point for apps the paper does not name.
DEFAULT_OFFLOAD_FRACTION = 0.25

#: Global re-placement period (virtual seconds) for ``adaptive``.
REEVALUATE_EVERY_S = 3.0


@dataclass
class Outcome:
    """What one op produced, as far as the benchmark is concerned."""

    key: str
    events: int
    problems: List[str] = field(default_factory=list)
    #: Virtual-time split (deterministic for a given input).
    virtual: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counters read from the public result objects.
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Case:
    """One distinct input, the op that runs it and the op's checks.

    ``run`` is the timed op: the one library call, returning its raw
    result.  ``check`` turns that result into an :class:`Outcome`
    (fingerprint, counters, output checks) outside the timed region.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    #: Row-trace twin of the op, for the row-vs-columnar parity check.
    parity: Optional[Callable[[], str]] = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- inputs ------------------------------------------------------------------


def app_seeds(seed: int) -> Dict[str, int]:
    """The apps' constructor ``seed=`` arguments, drawn from ``seed``."""
    rng = random.Random(f"perfbench-apps:{seed}")
    return {name: rng.randrange(1, 1 << 30)
            for name in ("javanote", "dia", "biomer", "voxel", "tracer")}


def app_factories(seed: int) -> Dict[str, Callable[[], object]]:
    """The five bundled apps with constructor seeds drawn from ``seed``.

    Voxel and Tracer are sized down from their section 5.2 defaults so
    one set-up records all five traces in a few seconds; the three
    memory apps keep the section 5.1 sizes that make a 6 MB heap run
    out.
    """
    seeds = app_seeds(seed)
    return {
        "javanote": lambda: JavaNote(seed=seeds["javanote"]),
        "dia": lambda: Dia(seed=seeds["dia"]),
        "biomer": lambda: Biomer(seed=seeds["biomer"]),
        "voxel": lambda: Voxel(regions=800, seed=seeds["voxel"]),
        "tracer": lambda: Tracer(batches=1200, seed=seeds["tracer"]),
    }


def fault_seed(seed: int, label: str) -> int:
    return random.Random(f"perfbench-faults:{seed}:{label}").randrange(1 << 30)


def memory_peak_event(trace) -> int:
    """Index of the event at which live allocated bytes peak."""
    live = 0
    sizes: Dict[int, int] = {}
    peak, at = -1, 0
    for index, event in enumerate(trace.events):
        if isinstance(event, AllocEvent):
            sizes[event.oid] = event.size
            live += event.size
        elif isinstance(event, FreeEvent):
            live -= sizes.pop(event.oid, 0)
        if live > peak:
            peak, at = live, index
    return at


def cpu_config(app: str, events: int) -> EmulatorConfig:
    """Section 5.2: 3.5x surrogate, re-evaluation after a share of the run."""
    fraction = CPU_OFFLOAD_EVENT_FRACTION.get(app, DEFAULT_OFFLOAD_FRACTION)
    return dataclasses.replace(
        cpu_emulator_config(offload_at_event=int(events * fraction)),
        partition_policy=CpuPartitionPolicy(),
        flags=EnhancementFlags(True, True),
    )


# -- emulator outcomes -------------------------------------------------------


def session_counters(reeval, refusals: int, dp) -> Dict[str, float]:
    """Partitioner-session, policy and data-plane counters of one op."""
    return {
        "partitioner.epochs": reeval.epochs,
        "partitioner.cold_runs": reeval.cold_runs,
        "partitioner.warm_hits": reeval.warm_hits,
        "partitioner.reuse_hits": reeval.reuse_hits,
        "partitioner.fallbacks": (
            reeval.fallback_not_ready + reeval.fallback_node_churn
            + reeval.fallback_seed_change + reeval.fallback_shrunk_winner
            + reeval.fallback_budget + reeval.fallback_forced),
        "policy.cache_hits": reeval.cache_hits,
        "policy.refusals": refusals,
        "batch.ops": dp.ops if dp else 0,
        "batch.batches": dp.batches if dp else 0,
        "batch.rtts_saved": dp.rtts_saved if dp else 0,
        "cache.hits": dp.cache.hits if dp else 0,
        "cache.lookups": dp.cache.lookups if dp else 0,
    }


def replay_outcome(result) -> Outcome:
    """Outcome of one ``TraceReplayer.run()``; every replay must complete."""
    problems = []
    if not result.completed or result.oom:
        problems.append("replay did not complete")
    faults = result.faults
    mobility = result.mobility
    counters = session_counters(result.reeval, result.refusals,
                                result.data_plane)
    counters.update({
        "retry.retries": faults.retries if faults else 0,
        "retry.timeouts": faults.timeouts if faults else 0,
        "retry.duplicates_suppressed":
            faults.duplicates_suppressed if faults else 0,
        "mobility.link_changes": mobility.link_changes if mobility else 0,
        "mobility.trend_fires": mobility.trend_fires if mobility else 0,
        "mobility.handoffs": mobility.handoffs if mobility else 0,
    })
    virtual = {
        "completion_s": result.total_time,
        "overhead_s": (result.comm_time + result.migration_time
                       + result.fault_time),
        "cpu_client_s": result.cpu_time_client,
        "cpu_surrogate_s": result.cpu_time_surrogate,
        "comm_s": result.comm_time,
        "migration_s": result.migration_time,
        "gc_pause_s": result.gc_pause_time,
        "monitoring_s": result.monitoring_time,
        "fault_s": result.fault_time,
        "remote_interactions": result.remote_interactions,
        "migration_bytes": result.migration_bytes,
    }
    return Outcome(key=_sha(result.fingerprint()),
                   events=result.events_processed, problems=problems,
                   virtual=virtual, counters=counters)


def replay_case(label: str, columnar: ColumnarTrace, row,
                config: EmulatorConfig) -> Case:
    def parity() -> str:
        return _sha(TraceReplayer(row, config).run().fingerprint())

    return Case(label=label,
                run=lambda: TraceReplayer(columnar, config).run(),
                check=replay_outcome, parity=parity)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Base: ``prepare()`` builds ``cases`` and records ``inputs``."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases: List[Case] = []
        #: Every generated input, by name: row traces and fault specs.
        self.inputs: Dict[str, object] = {}

    def prepare(self, span=None) -> None:
        raise NotImplementedError

    def input_digests(self) -> Dict[str, str]:
        """SHA-256 of every generated input (seed-dependence checks)."""
        return {name: _trace_digest(value) if hasattr(value, "events")
                else _sha(str(value))
                for name, value in self.inputs.items()}

    def _record(self, factories, names, span) -> Dict[str, tuple]:
        """Record and convert the named apps' traces."""
        traces = {}
        for name in names:
            with span("emulator.recorder") if span else nullcontext():
                row = record_application(factories[name]())
            with span("emulator.columnar") if span else nullcontext():
                columnar = ColumnarTrace.from_trace(row)
            traces[name] = (row, columnar)
        return traces


def _trace_digest(row) -> str:
    digest = hashlib.sha256()
    for event in row.events:
        digest.update(repr(event.to_row()).encode("utf-8"))
    return digest.hexdigest()


class ReplayWorkload(Workload):
    """Columnar replays of the five traces under the 5.1 and 5.2 configs."""

    name = "replay"

    def prepare(self, span=None) -> None:
        factories = app_factories(self.seed)
        traces = self._record(factories, list(factories), span)
        cases = []
        for name, (row, columnar) in traces.items():
            self.inputs[name] = row
            cases.append(replay_case(f"{name}/memory", columnar, row,
                                     memory_emulator_config()))
            cases.append(replay_case(f"{name}/cpu", columnar, row,
                                     cpu_config(name, len(row))))
        self.cases = cases


class AdaptiveWorkload(Workload):
    """The same traces under configs that decide and react."""

    name = "adaptive"

    def prepare(self, span=None) -> None:
        factories = app_factories(self.seed)
        traces = self._record(factories, list(factories), span)
        memory = memory_emulator_config()
        replace = dataclasses.replace(
            memory, single_shot=False,
            reevaluate_every=REEVALUATE_EVERY_S,
            flags=EnhancementFlags(False, True),
        )
        roam = NAMED_PROFILES["wavelan-wan-roam"]
        handoff = MobilityConfig(mode="handoff")
        plan = []
        for name in ("javanote", "biomer"):
            plan.append((name, "replace", replace))
        plan.append(("dia", "replace-dp", dataclasses.replace(
            replace, data_plane=DataPlaneConfig.enabled())))
        for name in ("javanote", "biomer", "dia"):
            plan.append((name, "loss", dataclasses.replace(
                memory, retry=LOSS_RETRY,
                faults=FaultSpec(seed=fault_seed(self.seed, f"{name}/loss"),
                                 loss_rate=LOSS_RATE))))
        plan.append(("dia", "loss-dp", dataclasses.replace(
            memory, retry=LOSS_RETRY, data_plane=DataPlaneConfig.enabled(),
            faults=FaultSpec(seed=fault_seed(self.seed, "dia/loss-dp"),
                             loss_rate=LOSS_RATE))))
        for name in ("dia", "biomer"):
            row = traces[name][0]
            plan.append((name, "crash", dataclasses.replace(
                memory, faults=FaultSpec(
                    seed=fault_seed(self.seed, f"{name}/crash"),
                    crash_at_event=memory_peak_event(row)))))
        for name in ("dia", "voxel", "tracer"):
            row = traces[name][0]
            plan.append((name, "roam", cpu_config(name, len(row))
                         .with_profile(roam, handoff)))
        for name, (row, _) in traces.items():
            self.inputs[name] = row
        for name, label, config in plan:
            if config.faults is not None:
                self.inputs[f"{name}/{label}"] = config.faults.canonical()
            row, columnar = traces[name]
            self.cases.append(replay_case(f"{name}/{label}", columnar, row,
                                          config))


# -- live prototype ------------------------------------------------------------


def live_platform(data_plane=None, faults=None) -> DistributedPlatform:
    """Section 5.1 prototype: 6 MB client, same-speed surrogate."""
    return DistributedPlatform(
        client_config=VMConfig(device=CLIENT_6MB, gc=CHAI_GC,
                               monitoring_event_cost=0.0),
        surrogate_config=VMConfig(device=SURROGATE_SAME_SPEED, gc=CHAI_GC,
                                  monitoring_event_cost=0.0),
        offload_policy=OffloadPolicy.initial(),
        data_plane=data_plane,
        faults=faults,
        retry=LOSS_RETRY if faults is not None else None,
    )


def live_outcome(ran) -> Outcome:
    """Outcome of one live run, given ``(platform, report)``."""
    platform, report = ran
    problems = []
    if report.offload_count < 1:
        problems.append("live run never offloaded")
    counters = platform.monitor.counters
    remote = platform.monitor.remote
    events = (counters.interaction_events + counters.objects_created
              + counters.objects_freed)
    gc_pause = sum(vm.collector.stats.total_pause_seconds
                   for vm in platform.runtime.vms())
    cpu = platform.monitor.graph.total_cpu()
    fault_s = report.faults["fault_time_s"] if report.faults else 0.0
    # Both §5.1 devices run at reference speed, so reference CPU seconds
    # are virtual seconds; whatever else the clock advanced is the
    # remote-execution overhead (comm, migration, retries, queueing).
    overhead = report.elapsed - cpu - gc_pause
    if overhead <= 0.0:
        problems.append("live overhead is not positive")
    dp = platform.data_plane.stats if platform.data_plane else None
    pools = platform.channel.stats()["pools"]
    faults = report.faults or {}
    migration_s = sum(event.migration_seconds
                      for event in platform.engine.performed_events)
    queue_wait_s = sum(p["queue_wait_s"] for p in pools.values())
    virtual = {
        "completion_s": report.elapsed,
        "overhead_s": overhead,
        "comm_s": overhead - migration_s - fault_s - queue_wait_s,
        "migration_s": migration_s,
        "gc_pause_s": gc_pause,
        "fault_s": fault_s,
        "remote_interactions": remote.remote_invocations
                               + remote.remote_accesses,
        "migration_bytes": report.migrated_bytes,
        "queue_wait_s": queue_wait_s,
    }
    counters_out = session_counters(platform.engine.reeval_stats,
                                    report.refusal_count, dp)
    counters_out.update({
        "retry.retries": faults.get("retries", 0),
        "retry.timeouts": faults.get("timeouts", 0),
        "retry.duplicates_suppressed": faults.get("duplicates_suppressed", 0),
    })
    key = _sha(json.dumps(dataclasses.asdict(report), sort_keys=True))
    return Outcome(key=key, events=events, problems=problems,
                   virtual=virtual, counters=counters_out)


class LiveWorkload(Workload):
    """Prototype runs of dia, javanote and biomer in the 5.1 scenario."""

    name = "live"

    def prepare(self, span=None) -> None:
        factories = app_factories(self.seed)
        variants = {
            "off": lambda name: {},
            "dp": lambda name: {"data_plane": DataPlaneConfig.enabled()},
            "loss": lambda name: {"faults": FaultSpec(
                seed=fault_seed(self.seed, f"live/{name}"),
                loss_rate=LOSS_RATE)},
        }
        for variant, make_kwargs in variants.items():
            for name in ("dia", "javanote", "biomer"):
                kwargs = make_kwargs(name)
                if "faults" in kwargs:
                    self.inputs[f"{name}/{variant}"] = \
                        kwargs["faults"].canonical()
                self.cases.append(Case(
                    label=f"{name}/{variant}",
                    run=self._op(factories[name], kwargs),
                    check=live_outcome))
        self.inputs["app_seeds"] = app_seeds(self.seed)

    @staticmethod
    def _op(factory, kwargs) -> Callable[[], tuple]:
        def run() -> tuple:
            platform = live_platform(**kwargs)
            return platform, platform.run(factory())
        return run


# -- fleet ---------------------------------------------------------------------

#: (app, client heap) profiles the fleet's clients are drawn from.
FLEET_PROFILES = (
    ("dia", 6 * MB), ("dia", 8 * MB),
    ("voxel", 6 * MB), ("voxel", 8 * MB),
    ("tracer", 6 * MB), ("tracer", 8 * MB),
)
FLEET_CLIENTS = 2400
FLEET_CONFIG = FleetConfig(
    surrogates=8,
    admission_cap=6,
    bursts_per_client=3,
    think_time_s=20.0,
    heap_capacity=24 * MB,
    eviction_watermark=0.85,
    rebalance_threshold=3,
    rebalance_patience=2,
)


class FleetWorkload(Workload):
    """N clients from several (app, heap) profiles on M shared surrogates."""

    name = "fleet"

    def prepare(self, span=None) -> None:
        factories = app_factories(self.seed)
        apps = sorted({app for app, _ in FLEET_PROFILES})
        traces = self._record(factories, apps, span)
        configs = []
        for app, heap in FLEET_PROFILES:
            columnar = traces[app][1]
            configs.append((app, heap, columnar,
                            memory_emulator_config().with_heap(heap)))
        rng = random.Random(f"perfbench-fleet:{self.seed}")
        shards = []
        mix = []
        for index in range(FLEET_CLIENTS):
            app, heap, columnar, config = configs[
                rng.randrange(len(configs))]
            mix.append(f"{app}@{heap // MB}")
            shards.append(ReplayShard(client_id=f"client-{index:05d}",
                                      trace=columnar, config=config))
        for app in apps:
            self.inputs[app] = traces[app][0]
        self.inputs["mix"] = ",".join(mix)
        self.shards = shards
        self.cases = [Case(
            label="fleet",
            run=lambda: FleetEmulator(shards, FLEET_CONFIG, workers=1).run(),
            check=self._outcome)]

    def _outcome(self, result) -> Outcome:
        problems = []
        if result.rejected_clients:
            problems.append(f"{result.rejected_clients} clients rejected")
        if result.completed_clients != len(self.shards):
            problems.append("not every fleet client completed")
        completions = [o.completion_s for o in result.outcomes
                       if o.completed]
        waits = [o.completion_s - o.demand_s for o in result.outcomes
                 if o.completed]
        virtual = {
            "completion_s": sum(completions) / max(1, len(completions)),
            "overhead_s": sum(waits) / max(1, len(waits)),
            "fleet_p50_completion_s": result.p50_completion_s,
            "fleet_p99_completion_s": result.p99_completion_s,
            "fleet_fairness_ratio": result.fairness_ratio,
            "fleet_mean_admission_wait_s": result.mean_admission_wait_s,
        }
        counters = {
            "fleet.distinct_profiles": result.distinct_profiles,
            "fleet.replays_per_client": (
                len({(id(s.trace), id(s.config)) for s in self.shards})
                / len(self.shards)),
            "fleet.evictions": result.total_evictions,
            "fleet.rebalances": result.rebalances,
            "fleet.clients": len(result.outcomes),
        }
        return Outcome(key=result.fingerprint(),
                       events=result.replayed_events, problems=problems,
                       virtual=virtual, counters=counters)


WORKLOADS = {
    cls.name: cls
    for cls in (ReplayWorkload, AdaptiveWorkload, LiveWorkload,
                FleetWorkload)
}
