"""Trace replay: the emulator's execution engine.

Replaying a trace re-executes the recorded event schedule under a
chosen device pair, link, heap size, policy, and enhancement flags.
Distributed execution is serial (the paper's assumption): after an
offload, execution simply moves between the two emulated VMs, and time
stretches for every interaction that crosses them.

The replayer runs the *same* AIDE modules as the prototype — the
execution graph is rebuilt incrementally during replay, the real
:class:`~repro.core.partitioner.Partitioner` evaluates the real
candidate generator, and triggering comes from an emulated collector
with Chai's trigger conditions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..config import DeviceProfile, EnhancementFlags, GCConfig, JORNADA, PC_SURROGATE
from ..core.graph import ExecutionGraph, object_node_id
from ..core.hints import ColdStartSeed
from ..core.partitioner import (
    IncrementalPartitioner,
    PartitionDecision,
    Partitioner,
    ReevalStats,
)
from ..core.policy import (
    EvaluationContext,
    MemoryTrigger,
    OffloadPolicy,
    PartitionPolicy,
)
from ..core.reaction import ReactionController, ReactionSite
from ..core.recorder import GraphRecorder
from ..errors import ConfigurationError
from ..net.faults import FaultReport, FaultSchedule, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from ..net.wavelan import WAVELAN_11MBPS
from ..rpc.batch import DataPlaneConfig, DataPlaneStats, RpcCoalescer
from ..rpc.cache import RemoteReadCache
from ..rpc.retry import RetryPolicy
from ..vm.gc import GCReport, default_pause_model
from .columnar import (
    ColumnarTrace,
    FLAG_STATELESS,
    FLAG_STATIC,
    FLAG_WRITE,
    TAG_ACCESS,
    TAG_ALLOC,
    TAG_FREE,
    TAG_INVOKE,
    TAG_WORK,
)
from .timemodel import (
    migration_cost,
    migration_payload,
    pipelined_migration_cost,
    pipelined_migration_payload,
    remote_access_cost,
    remote_invoke_cost,
)
from .traces import Trace

CLIENT = "client"
SURROGATE = "surrogate"
MAIN = "<main>"
INT_ARRAY = "int[]"


@dataclass(frozen=True)
class EmulatorConfig:
    """Everything a replay run is parameterised by."""

    client: DeviceProfile = JORNADA
    surrogate: DeviceProfile = PC_SURROGATE
    link: LinkModel = WAVELAN_11MBPS
    gc: GCConfig = field(default_factory=GCConfig)
    policy: OffloadPolicy = field(default_factory=OffloadPolicy.initial)
    #: Override the partitioning policy (e.g. a CPU policy for the
    #: section 5.2 experiments); defaults to the memory policy derived
    #: from ``policy``.
    partition_policy: Optional[PartitionPolicy] = None
    flags: EnhancementFlags = field(default_factory=EnhancementFlags)
    offload_enabled: bool = True
    single_shot: bool = True
    monitoring_event_cost: float = 0.0
    #: Attempt a partitioning when this many events have been replayed,
    #: regardless of memory pressure.  This drives the processing-
    #: constraint experiments (paper section 5.2), where offloading is
    #: not provoked by the collector but by the platform's re-evaluation
    #: after enough execution history has accumulated.
    offload_at_event: Optional[int] = None
    #: Bypass the partitioner entirely: when the offload attempt fires,
    #: apply exactly this placement.  Used by oracle searches that
    #: measure the *realised* cost of every candidate the heuristic
    #: produced (the paper's "partitioning the application manually").
    forced_offload_nodes: Optional[FrozenSet[str]] = None
    #: Global-placement mode: after the first offload, re-evaluate the
    #: partitioning every this many seconds of virtual time, applying
    #: the whole placement (including reverse migration).  Requires
    #: ``single_shot=False`` to be meaningful.
    reevaluate_every: Optional[float] = None
    #: Escape hatch: run every partitioning attempt cold, bypassing the
    #: warm-started candidate generator and the policy-evaluation memo.
    #: Used by parity tests to prove the incremental path is exact.
    force_cold: bool = False
    #: Ahead-of-time placement knowledge (a
    #: :class:`repro.core.hints.ColdStartSeed`, usually from the static
    #: analyzer): its interaction profile pre-populates the replayer's
    #: execution graph and its hints reach the partitioner, so the first
    #: partitioning attempt sees predicted structure instead of only
    #: the history accumulated since startup.
    cold_start: Optional["ColdStartSeed"] = None
    #: Cross-site data-plane optimisations (RPC coalescing, remote-read
    #: caching, pipelined migration).  All off by default, which keeps
    #: the byte and latency accounting bit-identical to the naive path.
    data_plane: DataPlaneConfig = field(default_factory=DataPlaneConfig)
    #: Deterministic fault injection (``None`` = perfect link, the
    #: historical behaviour).  The spec's seed drives every drop, spike,
    #: and crash verdict, so equal configs replay bit-identically.
    faults: Optional[FaultSpec] = None
    #: Retransmission discipline used when ``faults`` is set.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Scheduled link profile (mobility): the link resolves against the
    #: virtual clock instead of staying ``link`` for the whole run.
    #: Configure through :meth:`with_profile`, which also folds the
    #: profile's disconnection windows into ``faults``.
    link_profile: Optional[LinkProfile] = None
    #: What to do when the link trend turns bad (requires
    #: ``link_profile``); ``None`` = ride the decay out passively.
    mobility: Optional[MobilityConfig] = None

    def with_heap(self, capacity: int) -> "EmulatorConfig":
        from dataclasses import replace
        return replace(self, client=self.client.with_heap(capacity))

    def with_faults(self, faults: Optional[FaultSpec]) -> "EmulatorConfig":
        from dataclasses import replace
        return replace(self, faults=faults)

    def with_profile(
        self,
        profile: LinkProfile,
        mobility: Optional[MobilityConfig] = None,
    ) -> "EmulatorConfig":
        """Attach a link profile (and optionally a mobility reaction).

        The starting link becomes the profile's t=0 link, and any
        disconnection windows are folded into the fault spec so the
        retry/recovery machinery handles the outage.
        """
        from dataclasses import replace
        faults = self.faults
        if profile.disconnections:
            faults = profile.fault_spec(faults)
        return replace(
            self,
            link=profile.link_at(0.0),
            link_profile=profile,
            mobility=mobility,
            faults=faults,
        )


@dataclass
class ReplayOffload:
    """One offload (or refusal) that occurred during replay."""

    time: float
    decision: PartitionDecision
    migrated_bytes: int = 0
    migrated_objects: int = 0


@dataclass
class EmulationResult:
    """Outcome of one replay."""

    app_name: str
    completed: bool
    total_time: float
    cpu_time_client: float = 0.0
    cpu_time_surrogate: float = 0.0
    comm_time: float = 0.0
    migration_time: float = 0.0
    gc_pause_time: float = 0.0
    migration_bytes: int = 0
    monitoring_time: float = 0.0
    gc_cycles: int = 0
    remote_invocations: int = 0
    remote_native_invocations: int = 0
    remote_accesses: int = 0
    remote_bytes: int = 0
    events_processed: int = 0
    oom: bool = False
    oom_time: Optional[float] = None
    offloads: List[ReplayOffload] = field(default_factory=list)
    refusals: int = 0
    final_offload_nodes: FrozenSet[str] = frozenset()
    peak_client_bytes: int = 0
    #: Counters of the incremental partitioning session (epochs run,
    #: warm-start hits, cache hits, per-epoch latency).
    reeval: Optional[ReevalStats] = None
    #: Accounting of the optimised data plane (batches, round trips and
    #: bytes saved, cache hit rate); ``None`` when every optimisation
    #: was off.
    data_plane: Optional[DataPlaneStats] = None
    #: What the injected faults cost and how recovery went; ``None``
    #: when the run was configured without fault injection.
    faults: Optional[FaultReport] = None
    #: Roaming counters (link changes, trend fires, handoffs,
    #: proactive repatriations); ``None`` without a link profile.
    mobility: Optional[MobilityReport] = None

    @property
    def offload_count(self) -> int:
        return len([o for o in self.offloads if o.decision.beneficial])

    @property
    def remote_interactions(self) -> int:
        return self.remote_invocations + self.remote_accesses

    @property
    def overhead_time(self) -> float:
        """The paper's "remote execution overhead": offload + comm time."""
        return self.migration_time + self.comm_time

    def overhead_fraction(self, original_time: float) -> float:
        if original_time <= 0:
            raise ConfigurationError("original_time must be positive")
        return (self.total_time - original_time) / original_time

    @property
    def fault_time(self) -> float:
        """Seconds the fault machinery charged (0.0 on clean runs)."""
        return self.faults.fault_time_s if self.faults is not None else 0.0

    def fingerprint(self) -> str:
        """Canonical byte-exact rendering of the whole result.

        Two replays of the same trace under equal configs (including
        the fault spec's seed) must produce identical fingerprints —
        the determinism gate the benchmark suite enforces.
        """
        def encode(value):
            if isinstance(value, frozenset):
                return sorted(value)
            raise TypeError(
                f"unfingerprintable value of type {type(value).__name__}"
            )

        data = asdict(self)
        # The partitioner's compute latencies are the only *wall-clock*
        # numbers in a result; everything else is emulated.  Strip them
        # so the fingerprint captures emulated behaviour alone.
        reeval = data.get("reeval")
        if reeval is not None:
            reeval.pop("last_epoch_seconds", None)
            reeval.pop("total_epoch_seconds", None)
        for offload in data.get("offloads", ()):
            decision = offload.get("decision")
            if decision is not None:
                decision.pop("compute_seconds", None)
        return json.dumps(data, sort_keys=True, default=encode)


class TraceReplayer(ReactionSite):
    """Replays one trace under one configuration.

    Replays run through one batched loop over a
    :class:`~repro.emulator.columnar.ColumnarTrace` — what the recorder
    writes and ``.ctrace`` files hold.  A row-oriented
    :class:`~repro.emulator.traces.Trace` (the JSONL file format) is
    converted when the replay starts; callers replaying one row trace
    many times convert it once themselves, as
    :class:`~repro.emulator.Emulator` does.
    """

    def __init__(self, trace: Union[Trace, ColumnarTrace],
                 config: EmulatorConfig) -> None:
        self.trace = trace
        self.config = config
        # Object residency and bookkeeping.
        self._site: Dict[int, str] = {}
        self._size: Dict[int, int] = {}
        self._class: Dict[int, str] = {}
        self._client_live = 0
        self._surrogate_live = 0
        self._pending_garbage: List[int] = []
        self._pending_garbage_bytes = 0
        # Emulated collector counters.
        self._allocs_since_gc = 0
        self._bytes_since_gc = 0
        self._gc_cycles = 0
        # Placement.
        self._offloaded: FrozenSet[str] = frozenset()
        self._class_on_surrogate: Set[str] = set()
        # AIDE modules.
        self.graph = ExecutionGraph()
        self._trigger: MemoryTrigger = config.policy.make_trigger()
        self._partitioner = Partitioner(
            config.partition_policy
            if config.partition_policy is not None
            else config.policy.make_partition_policy()
        )
        seed = config.cold_start
        if seed is not None and seed.hints is not None:
            self._partitioner.hints = seed.hints
        # The incremental session drains the live graph's dirty sets
        # itself (there is no monitor snapshotting in the emulator, so
        # the replayer is the graph's single dirty-set consumer).
        self._session = IncrementalPartitioner(
            self._partitioner, force_cold=config.force_cold
        )
        self._pinned_cache: Optional[List[str]] = None
        self._last_reevaluation = 0.0
        # Fault recovery and mobility (repro.core.reaction): a fresh
        # seeded schedule per replayer, so equal configs draw identical
        # fault streams.  Cost sites read ``reactions.link``, which
        # tracks a link profile, never ``config.link``.
        spec = config.faults
        self.reactions = ReactionController(
            self, config.link,
            faults=spec,
            schedule=(FaultSchedule(spec)
                      if spec is not None and spec.any_faults else None),
            retry=config.retry,
            charge=self._charge_fault,
            events=lambda: self.result.events_processed,
            link_profile=config.link_profile,
            mobility=config.mobility,
        )
        # Cross-site data plane: coalescer and remote-read cache are
        # created only when enabled, so the naive path stays on the
        # exact pre-optimisation code (bit-identical accounting).
        dp = config.data_plane
        self._dp_stats = DataPlaneStats() if dp.any_enabled else None
        self._cache = RemoteReadCache() if dp.read_cache else None
        if self._cache is not None:
            self._dp_stats.cache = self._cache.stats
        self._coalescer = (
            RpcCoalescer(self.reactions.link, self._transfer_one_way,
                         stats=self._dp_stats)
            if dp.coalescing else None
        )
        # Wire-cost memo tables: the cost helpers are pure in (link,
        # payload, direction) and traces reuse a handful of payload
        # sizes, so each distinct size is priced once per link — the
        # cached float is the same object the helper returned, keeping
        # accounting bit-identical.  A link switch drops them.
        self._access_cost_memo: Dict[Tuple[int, int], float] = {}
        self._invoke_cost_memo: Dict[Tuple[int, int], float] = {}
        granular = config.flags.arrays_object_granularity
        self._granular_classes: Set[str] = {INT_ARRAY} if granular else set()
        # Graph recording: interned node ids, cached stats, the pending
        # same-pair run and per-segment dirty marking (repro.core.recorder).
        self._recorder = GraphRecorder(self.graph, self._granular_classes)
        # The entry point is always a (pinned) graph node, even before
        # any interaction references it.
        self.graph.ensure_node(MAIN)
        if seed is not None and seed.profile is not None:
            # Seed the graph with the predicted interaction structure
            # (edge traffic and CPU only — a profile carries no live
            # memory), so the first MINCUT runs on real shape.
            self._recorder.merge(seed.profile)
        # Clock and result.
        self._now = 0.0
        self.result = EmulationResult(
            app_name=trace.app_name, completed=False, total_time=0.0
        )

    # -- naming and placement ------------------------------------------------

    def _node_for(self, class_name: str, oid: Optional[int]) -> str:
        if oid is not None and class_name in self._granular_classes:
            return object_node_id(class_name, oid)
        return class_name

    # -- time ------------------------------------------------------------

    def _charge_comm(self, seconds: float) -> None:
        self.result.comm_time += seconds
        self._now += seconds

    def _charge_fault(self, seconds: float) -> None:
        """Clock charge for fault-induced waiting (timeouts, backoff).

        Deliberately *not* ``comm_time``: the degradation guards
        subtract ``FaultReport.fault_time_s`` from a faulty run's total
        to recover the useful-work time.
        """
        self._now += seconds

    def _exchange(self) -> bool:
        """One cross-site exchange through the fault gauntlet.

        ``True``: delivered (possibly after charged retries) — charge
        and count the operation as usual.  ``False``: the surrogate was
        declared dead under this exchange and recovery has already run;
        the operation resolves locally.
        """
        delivery = self.reactions.delivery
        return delivery is None or delivery.attempt()

    def _transfer_one_way(self, from_site: str, to_site: str,
                          nbytes: int) -> None:
        """The coalescer's transfer hook: one batched message leg."""
        if not self._exchange():
            # The batch died with the surrogate: its legs never travel.
            return
        self._charge_comm(self.reactions.link.one_way(nbytes))

    # -- the reaction controller's site (see repro.core.reaction) -------------

    @property
    def elapsed(self) -> float:
        return self._now

    def drop_in_flight(self) -> None:
        if self._coalescer is not None:
            self._coalescer.drop_pending()

    def invalidate_reads(self) -> None:
        if self._cache is not None:
            self._cache.invalidate_all()

    def repatriate_unreachable(self) -> Tuple[int, int]:
        objects = nbytes = 0
        for oid, site in self._site.items():
            if site == SURROGATE:
                size = self._size[oid]
                self._site[oid] = CLIENT
                self._client_live += size
                self._surrogate_live -= size
                objects += 1
                nbytes += size
        return objects, nbytes

    def forget_surrogate(self) -> None:
        self._offloaded = frozenset()
        self._class_on_surrogate = set()
        if self._client_live > self.result.peak_client_bytes:
            self.result.peak_client_bytes = self._client_live

    def warm_offload(self) -> None:
        if self.config.offload_enabled:
            self._attempt_offload()

    def use_link(self, link: LinkModel) -> None:
        if self._coalescer is not None:
            self._coalescer.flush()
            self._coalescer.link = link
        self._access_cost_memo.clear()
        self._invoke_cost_memo.clear()

    def roam(self, backhaul: LinkModel) -> bool:
        # The replacement surrogate takes over transparently: residency
        # does not change, and nothing transits the wireless hop.
        if not self._exchange():
            return False
        total_bytes = count = 0
        for oid, site in self._site.items():
            if site == SURROGATE:
                total_bytes += self._size[oid]
                count += 1
        wire, duration = 0, 0.0
        if count:
            wire = migration_payload(total_bytes, count)
            duration = migration_cost(backhaul, total_bytes, count)
            self.result.migration_bytes += wire
            self.result.migration_time += duration
            self._now += duration
        self.reactions.handed_off(wire, duration)
        return True

    def offloaded_nodes(self) -> FrozenSet[str]:
        return self._offloaded

    def place(self, offload_nodes: FrozenSet[str]) -> int:
        return self._apply_placement(offload_nodes)[0]

    # -- the replay loop ------------------------------------------------------

    def run(self) -> EmulationResult:
        """Replay the trace: batched dispatch over its columns.

        The columns are decoded into plain lists once and every
        per-event attribute/config lookup is hoisted out of the loop;
        mutable replayer state lives in locals and is spilled to (and
        reloaded from) the instance only around the rare cold calls —
        GC cycles, partitioning attempts, surrogate-side reclaims,
        coalesced transfers, fault-gauntlet exchanges, and the clock
        thresholds (link-profile change points, reattachment after a
        partition).  Graph recording goes through the shared
        :class:`~repro.core.recorder.GraphRecorder`: it adds onto cached
        stats objects and reports what it touched once per segment.  The per-event reference
        interpreter kept with the tests performs the same operations in
        the same order with the same floating-point arithmetic; the
        parity suites hold the two to bit-identical fingerprints and
        graphs.
        """
        trace = ColumnarTrace.from_trace(self.trace)
        cols = trace.column_lists()
        strings = trace.strings
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        k_id, flags = cols["k_id"], cols["flags"]
        n1, n2, f64 = cols["n1"], cols["n2"], cols["f64"]

        config = self.config
        result = self.result
        client_speed = config.client.cpu_speed
        surrogate_speed = config.surrogate.cpu_speed
        capacity = config.client.heap_capacity
        space_frac = config.gc.space_pressure_fraction
        allocs_per_cycle = config.gc.allocations_per_cycle
        bytes_per_cycle = config.gc.bytes_per_cycle
        monitoring_cost = config.monitoring_event_cost
        offload_enabled = config.offload_enabled
        # The post-event offload checks, with their config halves folded:
        # ``ep`` counts from 1, so -1 never fires.
        offload_ep = (config.offload_at_event
                      if config.offload_at_event is not None
                      and offload_enabled else -1)
        reevaluate_every = config.reevaluate_every
        reeval_on = reevaluate_every is not None and offload_enabled
        stateless_local = config.flags.stateless_natives_local
        # Under fault injection every remote exchange runs the retry
        # ladder, which may charge time or kill the surrogate: those
        # exchanges become cold calls with a full spill around them.
        faulty = self.reactions.delivery is not None

        # String-id tables: mkind comparisons and node naming become
        # integer work.  Ids that cannot occur compare unequal to every
        # column cell.
        native_id = static_id = -2
        for sid, name in enumerate(strings):
            if name == "native":
                native_id = sid
            elif name == "static":
                static_id = sid
        granular_ids = {
            sid for sid, name in enumerate(strings)
            if name in self._granular_classes
        }
        # Graph recording by interned node id: class ids are string ids.
        recorder = self._recorder
        recorder.intern_table(strings)
        object_node_get = recorder.object_nodes.get
        intern_object = recorder.intern_object
        segment_edge_get = recorder.segment_edges.get
        segment_node_get = recorder.segment_nodes.get
        known_nodes = recorder.node_stats
        ensure_node = recorder.ensure_node
        add_edge = recorder.add_edge
        add_cpu = recorder.add_cpu
        add_object = recorder.add_object
        array_ids = {
            sid for sid, name in enumerate(strings)
            if name.endswith("[]")
        }

        access_cost_memo = self._access_cost_memo
        access_memo_get = access_cost_memo.get
        invoke_cost_memo = self._invoke_cost_memo
        invoke_memo_get = invoke_cost_memo.get

        site_map = self._site
        site_get = site_map.get
        size_map = self._size
        class_map = self._class
        cache = self._cache
        cache_invalidate = cache.invalidate if cache is not None else None
        cache_note_read = cache.note_read if cache is not None else None
        static_key = RemoteReadCache.static_key
        coalescer = self._coalescer

        # Hoisted mutable state (spilled/reloaded around cold calls).
        cpu_client = result.cpu_time_client
        cpu_surrogate = result.cpu_time_surrogate
        monitoring_time = result.monitoring_time
        remote_invocations = result.remote_invocations
        remote_native = result.remote_native_invocations
        remote_accesses = result.remote_accesses
        remote_bytes = result.remote_bytes
        (now, client_live, surrogate_live, allocs_since_gc, bytes_since_gc,
         last_reeval, class_on_surrogate, pend_key, pend_bytes, pend_count,
         comm_time, peak_client, link, next_cold) = self._reload()
        ep = 0
        oom = False

        CLIENT_ = CLIENT
        SURROGATE_ = SURROGATE
        for i, tag in enumerate(tags):
            if tag == TAG_ACCESS:
                acid = a_cls[i]
                accessor_class = strings[acid]
                ao = a_oid[i]
                accessor_site = site_get(ao) if ao >= 0 else None
                if accessor_site is None:
                    accessor_site = (
                        SURROGATE_ if accessor_class in class_on_surrogate
                        else CLIENT_
                    )
                bcid = b_cls[i]
                owner_class = strings[bcid]
                oo = b_oid[i]
                fl = flags[i]
                is_write = fl & FLAG_WRITE
                if fl & FLAG_STATIC:
                    owner_site = CLIENT_
                else:
                    owner_site = site_get(oo) if oo >= 0 else None
                    if owner_site is None:
                        owner_site = (
                            SURROGATE_ if owner_class in class_on_surrogate
                            else CLIENT_
                        )
                nbytes = n1[i]
                key = None
                if cache is not None:
                    # Arrays are uncacheable (bulk element traffic is
                    # placement data, not read-mostly state); statics
                    # cache at class granularity.
                    if fl & FLAG_STATIC:
                        key = static_key(owner_class)
                    elif oo >= 0 and bcid not in array_ids:
                        key = oo
                    if is_write and key is not None:
                        # Any write (local or remote) makes a cached
                        # copy on the other site stale.
                        cache_invalidate(key)
                if owner_site != accessor_site:
                    if (
                        key is not None
                        and not is_write
                        and cache_note_read(key)
                    ):
                        # Served from the reading site's copy: no round
                        # trip, zero bytes on the wire.
                        pass
                    elif faulty:
                        self._spill(
                            ep, now, client_live, surrogate_live,
                            allocs_since_gc, bytes_since_gc, last_reeval,
                            pend_key, pend_bytes, pend_count, cpu_client,
                            cpu_surrogate, comm_time, monitoring_time,
                            remote_invocations, remote_native,
                            remote_accesses, remote_bytes, peak_client,
                        )
                        delivered = self._remote_access(
                            accessor_site, owner_site, nbytes, is_write
                        )
                        (now, client_live, surrogate_live, allocs_since_gc,
                         bytes_since_gc, last_reeval, class_on_surrogate,
                         pend_key, pend_bytes, pend_count, comm_time,
                         peak_client, link, next_cold) = self._reload()
                        if delivered:
                            remote_accesses += 1
                            remote_bytes += nbytes
                        else:
                            # Surrogate lost mid-access: recovery has
                            # repatriated every object and cleared class
                            # placement, so the owner resolves to the
                            # client and the access completes locally,
                            # uncharged.
                            owner_site = CLIENT_
                    elif coalescer is not None:
                        self._now = now
                        result.comm_time = comm_time
                        self._remote_access(accessor_site, owner_site,
                                            nbytes, is_write)
                        now = self._now
                        comm_time = result.comm_time
                        remote_accesses += 1
                        remote_bytes += nbytes
                    else:
                        ck = (nbytes, is_write)
                        cost = access_memo_get(ck)
                        if cost is None:
                            cost = remote_access_cost(link, nbytes,
                                                      bool(is_write))
                            access_cost_memo[ck] = cost
                        comm_time += cost
                        now += cost
                        remote_accesses += 1
                        remote_bytes += nbytes
                u, v = acid, bcid
                if granular_ids:
                    if ao >= 0 and acid in granular_ids:
                        u = object_node_get(ao)
                        if u is None:
                            u = intern_object(acid, ao)
                    if oo >= 0 and bcid in granular_ids:
                        v = object_node_get(oo)
                        if v is None:
                            v = intern_object(bcid, oo)
                if u != v:
                    # Run-length buffered graph update: consecutive
                    # interactions over one node pair add up in the
                    # pending run, which reaches the edge as one batch.
                    key = u << 32 | v if u < v else v << 32 | u
                    if key == pend_key:
                        pend_bytes += nbytes
                        pend_count += 1
                    else:
                        if pend_key >= 0:
                            edge = segment_edge_get(pend_key)
                            if edge is None:
                                add_edge(pend_key, pend_bytes, pend_count)
                            else:
                                edge.count += pend_count
                                edge.bytes += pend_bytes
                        pend_key = key
                        pend_bytes = nbytes
                        pend_count = 1
                if monitoring_cost:
                    wall = monitoring_cost / (
                        client_speed if owner_site == CLIENT_
                        else surrogate_speed
                    )
                    monitoring_time += wall
                    now += wall
            elif tag == TAG_WORK:
                acid = a_cls[i]
                class_name = strings[acid]
                ao = a_oid[i]
                site = site_get(ao) if ao >= 0 else None
                if site is None:
                    site = (
                        SURROGATE_ if class_name in class_on_surrogate
                        else CLIENT_
                    )
                seconds = f64[i]
                if site == CLIENT_:
                    wall = seconds / client_speed
                    cpu_client += wall
                else:
                    wall = seconds / surrogate_speed
                    cpu_surrogate += wall
                now += wall
                node_stats = segment_node_get(acid)
                if node_stats is None or seconds < 0:
                    add_cpu(acid, seconds)
                else:
                    node_stats.cpu_seconds += seconds
            elif tag == TAG_INVOKE:
                acid = a_cls[i]
                caller_class = strings[acid]
                ao = a_oid[i]
                caller_site = site_get(ao) if ao >= 0 else None
                if caller_site is None:
                    caller_site = (
                        SURROGATE_ if caller_class in class_on_surrogate
                        else CLIENT_
                    )
                bcid = b_cls[i]
                callee_class = strings[bcid]
                bo = b_oid[i]
                kid = k_id[i]
                if kid == native_id:
                    if flags[i] & FLAG_STATELESS and stateless_local:
                        exec_site = caller_site
                    else:
                        exec_site = CLIENT_
                elif kid == static_id:
                    exec_site = caller_site
                else:
                    exec_site = site_get(bo) if bo >= 0 else None
                    if exec_site is None:
                        exec_site = (
                            SURROGATE_ if callee_class in class_on_surrogate
                            else CLIENT_
                        )
                arg_bytes = n1[i]
                ret_bytes = n2[i]
                nbytes = arg_bytes + ret_bytes
                if exec_site != caller_site:
                    if faulty:
                        self._spill(
                            ep, now, client_live, surrogate_live,
                            allocs_since_gc, bytes_since_gc, last_reeval,
                            pend_key, pend_bytes, pend_count, cpu_client,
                            cpu_surrogate, comm_time, monitoring_time,
                            remote_invocations, remote_native,
                            remote_accesses, remote_bytes, peak_client,
                        )
                        delivered = self._remote_invoke(
                            caller_site, exec_site, arg_bytes, ret_bytes
                        )
                        (now, client_live, surrogate_live, allocs_since_gc,
                         bytes_since_gc, last_reeval, class_on_surrogate,
                         pend_key, pend_bytes, pend_count, comm_time,
                         peak_client, link, next_cold) = self._reload()
                        if not delivered:
                            # The surrogate died under this round trip:
                            # recovery has repatriated everything, so
                            # both ends resolve to the client and the
                            # invocation is local now.
                            caller_site = exec_site = CLIENT_
                    elif coalescer is not None:
                        # Control transfers: the invoke closes its
                        # batch, and any buffered writes piggyback on
                        # its request leg.
                        self._now = now
                        result.comm_time = comm_time
                        self._remote_invoke(caller_site, exec_site,
                                            arg_bytes, ret_bytes)
                        now = self._now
                        comm_time = result.comm_time
                    else:
                        ck = (arg_bytes, ret_bytes)
                        cost = invoke_memo_get(ck)
                        if cost is None:
                            cost = remote_invoke_cost(link, arg_bytes,
                                                      ret_bytes)
                            invoke_cost_memo[ck] = cost
                        comm_time += cost
                        now += cost
                    if exec_site != caller_site:
                        remote_invocations += 1
                        remote_bytes += nbytes
                        if kid == native_id:
                            remote_native += 1
                u, v = acid, bcid
                if granular_ids:
                    if ao >= 0 and acid in granular_ids:
                        u = object_node_get(ao)
                        if u is None:
                            u = intern_object(acid, ao)
                    if bo >= 0 and bcid in granular_ids:
                        v = object_node_get(bo)
                        if v is None:
                            v = intern_object(bcid, bo)
                if u != v:
                    key = u << 32 | v if u < v else v << 32 | u
                    if key == pend_key:
                        pend_bytes += nbytes
                        pend_count += 1
                    else:
                        if pend_key >= 0:
                            edge = segment_edge_get(pend_key)
                            if edge is None:
                                add_edge(pend_key, pend_bytes, pend_count)
                            else:
                                edge.count += pend_count
                                edge.bytes += pend_bytes
                        pend_key = key
                        pend_bytes = nbytes
                        pend_count = 1
                if monitoring_cost:
                    wall = monitoring_cost / (
                        client_speed if exec_site == CLIENT_
                        else surrogate_speed
                    )
                    monitoring_time += wall
                    now += wall
            elif tag == TAG_ALLOC:
                # New objects are placed on the VM performing the
                # creation.
                bcid = b_cls[i]
                creator_class = strings[bcid]
                site = (
                    SURROGATE_ if creator_class in class_on_surrogate
                    else CLIENT_
                )
                size = n1[i]
                reason = None
                if site == CLIENT_ and client_live + size > capacity:
                    self._spill(
                        ep, now, client_live, surrogate_live,
                        allocs_since_gc, bytes_since_gc, last_reeval,
                        pend_key, pend_bytes, pend_count, cpu_client,
                        cpu_surrogate, comm_time, monitoring_time,
                        remote_invocations, remote_native,
                        remote_accesses, remote_bytes, peak_client,
                    )
                    self._gc_cycle("space-exhausted")
                    (now, client_live, surrogate_live, allocs_since_gc,
                     bytes_since_gc, last_reeval, class_on_surrogate,
                     pend_key, pend_bytes, pend_count, comm_time,
                     peak_client, link, next_cold) = self._reload()
                    # Placement may have changed under the GC's offload
                    # trigger, but the allocation keeps its pre-GC site.
                    if client_live + size > capacity:
                        # OOM: the allocation never happens; the
                        # post-event checks below still run before the
                        # loop breaks.
                        result.oom = True
                        result.oom_time = now
                        oom = True
                if not oom:
                    if site == CLIENT_:
                        client_live += size
                        if client_live > peak_client:
                            peak_client = client_live
                        allocs_since_gc += 1
                        bytes_since_gc += size
                    else:
                        surrogate_live += size
                    oid = a_oid[i]
                    acid = a_cls[i]
                    class_name = strings[acid]
                    site_map[oid] = site
                    size_map[oid] = size
                    class_map[oid] = class_name
                    node = acid
                    if granular_ids and acid in granular_ids:
                        node = object_node_get(oid)
                        if node is None:
                            node = intern_object(acid, oid)
                    node_stats = segment_node_get(node)
                    if node_stats is None or size < 0:
                        add_object(node, size)
                    else:
                        node_stats.memory_bytes += size
                        node_stats.live_objects += 1
                        node_stats.created_objects += 1
                    # The creating class is part of the execution
                    # picture even if no interaction referenced it yet.
                    if bcid not in known_nodes:
                        ensure_node(bcid)
                    if monitoring_cost:
                        wall = monitoring_cost / (
                            client_speed if site == CLIENT_
                            else surrogate_speed
                        )
                        monitoring_time += wall
                        now += wall
                    # The emulated collector's Chai trigger conditions.
                    if (capacity - client_live) / capacity < space_frac:
                        reason = "space-pressure"
                    elif allocs_since_gc >= allocs_per_cycle:
                        reason = "allocation-count"
                    elif bytes_since_gc >= bytes_per_cycle:
                        reason = "allocation-bytes"
                if reason is not None:
                    self._spill(
                        ep, now, client_live, surrogate_live,
                        allocs_since_gc, bytes_since_gc, last_reeval,
                        pend_key, pend_bytes, pend_count, cpu_client,
                        cpu_surrogate, comm_time, monitoring_time,
                        remote_invocations, remote_native,
                        remote_accesses, remote_bytes, peak_client,
                    )
                    self._gc_cycle(reason)
                    (now, client_live, surrogate_live, allocs_since_gc,
                     bytes_since_gc, last_reeval, class_on_surrogate,
                     pend_key, pend_bytes, pend_count, comm_time,
                     peak_client, link, next_cold) = self._reload()
            else:
                # TAG_FREE
                oid = a_oid[i]
                site = site_get(oid)
                if site is None:
                    pass
                elif site == CLIENT_:
                    # Client garbage waits for an emulated collection.
                    self._pending_garbage.append(oid)
                    self._pending_garbage_bytes += size_map[oid]
                else:
                    # Surrogate-side garbage reclaims immediately.
                    self._client_live = client_live
                    self._surrogate_live = surrogate_live
                    self._reclaim(oid)
                    client_live = self._client_live
                    surrogate_live = self._surrogate_live
            # -- post-event checks ----------------------------------------
            ep += 1
            if now >= next_cold:
                # The reaction controller's next deadline: a link-profile
                # change point or a pending reattachment (one threshold,
                # so clean runs pay one float compare).
                self._spill(
                    ep, now, client_live, surrogate_live, allocs_since_gc,
                    bytes_since_gc, last_reeval, pend_key, pend_bytes,
                    pend_count, cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                )
                self.reactions.poll()
                (now, client_live, surrogate_live, allocs_since_gc,
                 bytes_since_gc, last_reeval, class_on_surrogate, pend_key,
                 pend_bytes, pend_count, comm_time, peak_client, link,
                 next_cold) = self._reload()
            if ep == offload_ep:
                self._spill(
                    ep, now, client_live, surrogate_live, allocs_since_gc,
                    bytes_since_gc, last_reeval, pend_key, pend_bytes,
                    pend_count, cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                )
                self._attempt_offload()
                (now, client_live, surrogate_live, allocs_since_gc,
                 bytes_since_gc, last_reeval, class_on_surrogate, pend_key,
                 pend_bytes, pend_count, comm_time, peak_client, link,
                 next_cold) = self._reload()
            if (
                reeval_on
                and result.offload_count > 0
                and now - last_reeval >= reevaluate_every
            ):
                # Clock-driven re-evaluation (global-placement mode):
                # checked against virtual time on every event, because
                # after an offload the client may stop allocating (and
                # hence stop collecting) entirely.
                last_reeval = now
                self._spill(
                    ep, now, client_live, surrogate_live, allocs_since_gc,
                    bytes_since_gc, last_reeval, pend_key, pend_bytes,
                    pend_count, cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                )
                self._attempt_offload(reevaluation=True)
                (now, client_live, surrogate_live, allocs_since_gc,
                 bytes_since_gc, last_reeval, class_on_surrogate, pend_key,
                 pend_bytes, pend_count, comm_time, peak_client, link,
                 next_cold) = self._reload()
            if oom:
                break
        self._spill(
            ep, now, client_live, surrogate_live, allocs_since_gc,
            bytes_since_gc, last_reeval, pend_key, pend_bytes, pend_count,
            cpu_client, cpu_surrogate, comm_time, monitoring_time,
            remote_invocations, remote_native, remote_accesses,
            remote_bytes, peak_client,
        )
        return self._finish_run()

    def _finish_run(self) -> EmulationResult:
        """Close out a replay."""
        self._recorder.flush()
        if self._coalescer is not None:
            self._coalescer.flush()
        reactions = self.reactions
        # A run that ended in degraded mode closes its downtime window.
        reactions.close_downtime()
        if self.config.faults is not None:
            reactions.fault_report.epochs_survived = self.result.offload_count
            self.result.faults = reactions.fault_report
        self.result.mobility = reactions.mobility_report
        self.result.completed = not self.result.oom
        self.result.total_time = self._now
        self.result.final_offload_nodes = self._offloaded
        self.result.reeval = self._session.stats
        self.result.data_plane = self._dp_stats
        return self.result

    def _spill(
        self, ep, now, client_live, surrogate_live, allocs_since_gc,
        bytes_since_gc, last_reeval, pend_key, pend_bytes, pend_count,
        cpu_client, cpu_surrogate, comm_time, monitoring_time,
        remote_invocations, remote_native, remote_accesses, remote_bytes,
        peak_client,
    ) -> None:
        """Write the batched loop's hoisted state back to the instance.

        The loop keeps replayer state in locals; this writes it back so
        a cold call (:meth:`_gc_cycle`, :meth:`_attempt_offload`, the
        reaction controller's poll, a fault-gauntlet exchange, and
        everything they reach) observes the state as of the current event, then
        the loop re-hoists what the call may have changed with
        :meth:`_reload`.
        """
        result = self.result
        self._now = now
        self._client_live = client_live
        self._surrogate_live = surrogate_live
        self._allocs_since_gc = allocs_since_gc
        self._bytes_since_gc = bytes_since_gc
        self._last_reevaluation = last_reeval
        recorder = self._recorder
        recorder.pend_key = pend_key
        recorder.pend_bytes = pend_bytes
        recorder.pend_count = pend_count
        result.cpu_time_client = cpu_client
        result.cpu_time_surrogate = cpu_surrogate
        result.comm_time = comm_time
        result.monitoring_time = monitoring_time
        result.remote_invocations = remote_invocations
        result.remote_native_invocations = remote_native
        result.remote_accesses = remote_accesses
        result.remote_bytes = remote_bytes
        if peak_client > result.peak_client_bytes:
            result.peak_client_bytes = peak_client
        result.events_processed = ep

    def _reload(self) -> tuple:
        """The loop state a cold call may have changed, for the batched
        loop to re-hoist after :meth:`_spill` and the call.

        The last item is the loop's cold threshold, the reaction
        controller's ``next_poll_at``.
        """
        recorder = self._recorder
        return (
            self._now, self._client_live, self._surrogate_live,
            self._allocs_since_gc, self._bytes_since_gc,
            self._last_reevaluation, self._class_on_surrogate,
            recorder.pend_key, recorder.pend_bytes,
            recorder.pend_count, self.result.comm_time,
            self.result.peak_client_bytes, self.reactions.link,
            self.reactions.next_poll_at,
        )

    def _remote_access(self, accessor_site: str, owner_site: str,
                       nbytes: int, is_write: int) -> bool:
        """One uncached remote access through the coalescer or, under
        fault injection, one exchange through the retry ladder (the
        clean uncoalesced case is priced inline by the loop).

        ``False``: the surrogate died under the exchange (recovery has
        already run) and the access resolves locally, uncharged.  A
        coalesced access always counts: its batch's legs run the fault
        gauntlet when they travel.
        """
        if self._coalescer is not None:
            if is_write:
                self._coalescer.write(accessor_site, owner_site, nbytes)
            else:
                self._coalescer.read(accessor_site, owner_site, nbytes)
            return True
        if not self._exchange():
            return False
        self._charge_comm(remote_access_cost(self.reactions.link, nbytes,
                                             bool(is_write)))
        return True

    def _remote_invoke(self, caller_site: str, exec_site: str,
                       arg_bytes: int, ret_bytes: int) -> bool:
        """One remote invocation (see :meth:`_remote_access`)."""
        if self._coalescer is not None:
            self._coalescer.invoke(caller_site, exec_site, arg_bytes,
                                   ret_bytes)
            return True
        if not self._exchange():
            return False
        self._charge_comm(remote_invoke_cost(self.reactions.link, arg_bytes,
                                             ret_bytes))
        return True

    # -- allocation and the emulated collector -------------------------------------

    def _reclaim(self, oid: int) -> None:
        site = self._site.pop(oid, None)
        if site is None:
            return
        if self._cache is not None:
            # GC of the owner invalidates its cached remote copy.
            self._cache.invalidate(oid)
        size = self._size.pop(oid)
        class_name = self._class.pop(oid)
        if site == CLIENT:
            self._client_live -= size
        else:
            self._surrogate_live -= size
        self._recorder.free(class_name, oid, size)

    def _gc_cycle(self, reason: str) -> None:
        if self._coalescer is not None:
            # GC barrier: the pause must not overtake un-charged traffic.
            self._coalescer.gc_barrier()
        freed_bytes = self._pending_garbage_bytes
        freed_objects = len(self._pending_garbage)
        for oid in self._pending_garbage:
            # Only reclaim garbage still on the client: a migration may
            # not move garbage, so client garbage stays client garbage.
            self._reclaim(oid)
        self._pending_garbage = []
        self._pending_garbage_bytes = 0
        self._allocs_since_gc = 0
        self._bytes_since_gc = 0
        self._gc_cycles += 1
        self.result.gc_cycles += 1
        pause = (default_pause_model(len(self._site), freed_objects)
                 / self.config.client.cpu_speed)
        self.result.gc_pause_time += pause
        self._now += pause
        capacity = self.config.client.heap_capacity
        report = GCReport(
            cycle=self._gc_cycles,
            reason=reason,
            live_objects=len(self._site),
            freed_objects=freed_objects,
            freed_bytes=freed_bytes,
            used_bytes=self._client_live,
            free_bytes=capacity - self._client_live,
            capacity=capacity,
        )
        if not self.config.offload_enabled:
            return
        if (
            self.result.offload_count > 0
            and self.config.reevaluate_every is not None
        ):
            # In global-placement mode the replay loop's clock check
            # owns every attempt after the first offload; the memory
            # trigger stays out of it.
            return
        if self.config.single_shot and self.result.offload_count > 0:
            return
        if self._trigger.observe(report):
            self._last_reevaluation = self._now
            self._attempt_offload()

    # -- partitioning and migration -----------------------------------------------

    def _pinned_nodes(self) -> List[str]:
        # The pinned set depends only on the trace's class traits and a
        # static enhancement flag, so it is computed once and reused
        # across re-evaluation epochs.
        if self._pinned_cache is None:
            pinned = [MAIN]
            pinned.extend(self.trace.pinned_classes(
                stateless_natives_ok=self.config.flags.stateless_natives_local
            ))
            self._pinned_cache = pinned
        return self._pinned_cache

    def _evaluation_context(self) -> EvaluationContext:
        return EvaluationContext(
            heap_capacity=self.config.client.heap_capacity,
            client_speed=self.config.client.cpu_speed,
            surrogate_speed=self.config.surrogate.cpu_speed,
            link=self.reactions.link,
            total_cpu=self.graph.total_cpu(),
            elapsed=self._now,
        )

    def _attempt_offload(self, reevaluation: bool = False) -> None:
        if self.reactions.peer_dead:
            # Client-only degraded mode: nothing to offload to.  The
            # graph keeps growing, so the post-rediscovery epoch starts
            # warm.
            return
        self._recorder.flush()
        if self._coalescer is not None:
            # Repartition barrier: decisions and migrations must not
            # observe buffered, un-charged operations.
            self._coalescer.migration_barrier()
        if self.config.forced_offload_nodes is not None:
            moved_bytes, moved_objects = self._apply_placement(
                self.config.forced_offload_nodes
            )
            if self.reactions.peer_dead and moved_objects == 0:
                # The placement died on its opening exchange: nothing
                # moved, so no offload was performed.
                return
            self.result.offloads.append(ReplayOffload(
                time=self._now,
                decision=PartitionDecision(
                    beneficial=True,
                    offload_nodes=self.config.forced_offload_nodes,
                    client_nodes=frozenset(),
                    cut_bytes=0, cut_count=0,
                    freed_bytes=moved_bytes,
                    predicted_bandwidth=0.0,
                    candidates_evaluated=0,
                    compute_seconds=0.0,
                    policy_name="forced-placement",
                ),
                migrated_bytes=moved_bytes,
                migrated_objects=moved_objects,
            ))
            return
        decision = self._session.partition(
            self.graph, self._pinned_nodes(), self._evaluation_context()
        )
        offload = ReplayOffload(time=self._now, decision=decision)
        if not decision.beneficial:
            self.result.refusals += 1
            self._trigger.reset()
            if reevaluation:
                # No partitioning is currently beneficial: revert to
                # the all-local placement (reverse migration).
                moved_bytes, moved_objects = self._apply_placement(
                    frozenset()
                )
                offload.migrated_bytes = moved_bytes
                offload.migrated_objects = moved_objects
            self.result.offloads.append(offload)
            return
        moved_bytes, moved_objects = self._apply_placement(
            decision.offload_nodes
        )
        if self.reactions.peer_dead and moved_objects == 0:
            # The placement died on its opening exchange: nothing
            # moved, so no offload was performed.
            return
        offload.migrated_bytes = moved_bytes
        offload.migrated_objects = moved_objects
        self.result.offloads.append(offload)

    def _apply_placement(
        self, offload_nodes: FrozenSet[str]
    ) -> Tuple[int, int]:
        self._offloaded = offload_nodes
        self._class_on_surrogate = {
            node for node in offload_nodes if "#" not in node
        }
        garbage = set(self._pending_garbage)
        to_surrogate: List[int] = []
        to_client: List[int] = []
        for oid, site in self._site.items():
            if oid in garbage:
                continue
            class_name = self._class[oid]
            node = self._node_for(class_name, oid)
            wants_surrogate = node in offload_nodes
            if wants_surrogate and site == CLIENT:
                to_surrogate.append(oid)
            elif not wants_surrogate and site == SURROGATE:
                to_client.append(oid)
        moved_bytes = 0
        moved_objects = 0
        if (to_surrogate or to_client) and not self._exchange():
            # Exchange before mutate: the migration stream's opening
            # message never reached the peer — the surrogate died, and
            # recovery (run inside the failed exchange) has already
            # reset placement.  No object below changes residency.
            return 0, 0
        pipelined = self.config.data_plane.pipelined_migration
        batches: List[Tuple[int, int]] = []
        for oids, destination in ((to_surrogate, SURROGATE),
                                  (to_client, CLIENT)):
            if not oids:
                continue
            batch_bytes = sum(self._size[oid] for oid in oids)
            for oid in oids:
                self._site[oid] = destination
            if destination == SURROGATE:
                self._client_live -= batch_bytes
                self._surrogate_live += batch_bytes
            else:
                self._client_live += batch_bytes
                self._surrogate_live -= batch_bytes
            if pipelined:
                # Both direction batches ride one streamed session,
                # charged once below.
                batches.append((batch_bytes, len(oids)))
            else:
                wire = migration_payload(batch_bytes, len(oids))
                duration = migration_cost(self.reactions.link, batch_bytes,
                                          len(oids))
                self.result.migration_bytes += wire
                self.result.migration_time += duration
                self._now += duration
                moved_bytes += wire
            moved_objects += len(oids)
        if pipelined and batches:
            wire = pipelined_migration_payload(batches)
            duration = pipelined_migration_cost(self.reactions.link, batches)
            self.result.migration_bytes += wire
            self.result.migration_time += duration
            self._now += duration
            moved_bytes = wire
        if self._cache is not None and (to_surrogate or to_client):
            # Residency changed under the cache: drop everything rather
            # than chase which owners moved.
            self._cache.invalidate_all()
        return moved_bytes, moved_objects
