"""The ad-hoc distributed platform (the paper's prototype).

A :class:`DistributedPlatform` joins a client VM and a surrogate VM over
a simulated wireless link, shares the application bytecodes between
them, and installs the three AIDE modules: the execution monitor, the
partitioner (behind the offloading engine), and the remote invocation
support.  Running a guest application on the platform reproduces the
paper's prototype behaviour: the application starts on the client, the
platform watches memory pressure, and when the trigger policy fires it
transparently offloads the selected classes to the surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..config import EnhancementFlags, JORNADA, PC_SURROGATE, VMConfig
from ..core.engine import MigrationOutcome, OffloadEvent, OffloadingEngine
from ..core.monitor import ExecutionMonitor, ResourceMonitor
from ..core.partitioner import Partitioner
from ..core.policy import EvaluationContext, OffloadPolicy, PartitionPolicy
from ..core.reaction import ReactionController, ReactionSite
from ..errors import ConfigurationError, PlatformError, SurrogateUnavailableError
from ..net.faults import FaultSchedule, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig
from ..net.stats import TrafficStats
from ..net.wavelan import WAVELAN_11MBPS
from ..rpc.batch import DataPlane, DataPlaneConfig
from ..rpc.channel import RpcChannel
from ..rpc.retry import ReliableDelivery, RetryPolicy
from ..rpc.distgc import CrossHeapRootScanner
from ..vm.classloader import ClassRegistry
from ..vm.clock import VirtualClock
from ..vm.context import ExecutionContext, MAIN_CLASS, Runtime
from ..vm.hooks import ExecutionListener, HookFanout
from ..vm.natives import install_standard_library
from ..vm.vm import VirtualMachine
from .discovery import SurrogateDirectory, SurrogateOffer
from .migration import Migrator
from .node import make_client_node, make_surrogate_node

#: Graph-node name for primitive integer arrays, the class the paper's
#: "Array" enhancement tracks at object granularity.
INT_ARRAY_CLASS = "int[]"


class DistributedRuntime(Runtime):
    """Two-site runtime: routing between the client and one surrogate."""

    def __init__(
        self,
        client_vm: VirtualMachine,
        surrogate_vm: VirtualMachine,
        link: LinkModel,
        traffic: TrafficStats,
    ) -> None:
        self._vms = {client_vm.name: client_vm, surrogate_vm.name: surrogate_vm}
        self._client = client_vm
        self.link = link
        self.traffic = traffic
        #: Optional reliability layer.  When present, every cross-site
        #: transfer runs the fault gauntlet first (drops, retries,
        #: partitions, crash detection); the base link charge below only
        #: happens for delivered messages.
        self.delivery: Optional[ReliableDelivery] = None

    def client(self) -> VirtualMachine:
        return self._client

    def vm(self, name: str) -> VirtualMachine:
        try:
            return self._vms[name]
        except KeyError:
            raise PlatformError(f"unknown site {name!r}") from None

    def vms(self) -> Iterable[VirtualMachine]:
        return self._vms.values()

    def register(self, vm: VirtualMachine) -> None:
        """Attach another site (used by surrogate handoff)."""
        if vm.name in self._vms:
            raise PlatformError(f"site {vm.name!r} already registered")
        self._vms[vm.name] = vm

    def transfer(self, from_site: str, to_site: str, nbytes: int) -> bool:
        if from_site == to_site:
            return True
        self.vm(from_site)  # validate both endpoints
        self.vm(to_site)
        if self.delivery is not None and not self.delivery.attempt():
            # The peer was declared dead under this exchange; recovery
            # has already run (via ``on_peer_lost``) and the caller must
            # resolve the operation locally instead of charging it.
            return False
        self._client.clock.advance(self.link.one_way(nbytes))
        self.traffic.record(nbytes, category="rpc")
        return True


@dataclass
class PlatformReport:
    """Summary of one application run on the platform."""

    app_name: str
    elapsed: float
    offload_count: int
    refusal_count: int
    migrated_bytes: int
    rpc_messages: int
    rpc_bytes: int
    remote_invocations: int
    remote_native_invocations: int
    client_heap_used: int
    surrogate_heap_used: int
    # Cross-site data-plane counters (all zero when the optimisations
    # are off — the default — so older readers see familiar numbers).
    cached_remote_reads: int = 0
    rpc_rtts_saved: int = 0
    rpc_bytes_saved: int = 0
    pruned_handles: int = 0
    #: Recovery section (``None`` when no fault injection was
    #: configured): the :class:`~repro.net.faults.FaultReport` counters
    #: — retries, timeouts, downtime charged, objects repatriated,
    #: partitioning epochs survived — as a plain dict.
    faults: Optional[dict] = None


class DistributedPlatform(ReactionSite):
    """One client + one surrogate joined at run time."""

    def __init__(
        self,
        client_config: Optional[VMConfig] = None,
        surrogate_config: Optional[VMConfig] = None,
        link: LinkModel = WAVELAN_11MBPS,
        offload_policy: Optional[OffloadPolicy] = None,
        partition_policy: Optional[PartitionPolicy] = None,
        flags: EnhancementFlags = EnhancementFlags(),
        single_shot: bool = True,
        reevaluate_every: Optional[float] = None,
        hints=None,
        profile=None,
        cold_start=None,
        registry: Optional[ClassRegistry] = None,
        install_stdlib: bool = True,
        data_plane: Optional[DataPlaneConfig] = None,
        faults: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
        link_profile: Optional[LinkProfile] = None,
        mobility: Optional[MobilityConfig] = None,
        directory: Optional[SurrogateDirectory] = None,
    ) -> None:
        self.client_config = client_config or VMConfig(device=JORNADA)
        self.surrogate_config = surrogate_config or VMConfig(device=PC_SURROGATE)
        self.clock = VirtualClock()
        if link_profile is not None and link_profile.disconnections:
            # Disconnection windows are partitions to the delivery layer.
            faults = link_profile.fault_spec(faults)
        # The controller's deadlines (profile change points, healed
        # partitions) are polled at boundaries that monitoring reports.
        polled = link_profile is not None or bool(faults and faults.partition_windows)
        if polled and not self.client_config.monitoring_enabled:
            raise ConfigurationError("a link profile or partition windows need monitoring")
        # Fault recovery and mobility (repro.core.reaction); a profile
        # owns the link from t=0, overriding the static ``link``.
        self.reactions = ReactionController(
            self, link,
            faults=faults,
            schedule=FaultSchedule(faults) if faults is not None else None,
            retry=retry,
            charge=self.clock.advance,
            link_profile=link_profile,
            mobility=mobility,
        )
        link = self.reactions.link
        self.delivery = self.reactions.delivery
        self.fault_report = self.reactions.fault_report
        self.mobility_report = self.reactions.mobility_report
        self.directory = directory
        self._current_offer_name = ""
        self.flags = flags
        offload_policy = offload_policy or OffloadPolicy.initial()
        self.offload_policy = offload_policy

        if registry is None:
            registry = ClassRegistry()
            if install_stdlib:
                install_standard_library(registry)
        self.registry = registry
        self.client = make_client_node(self.client_config, registry, self.clock)
        self.surrogate = make_surrogate_node(
            self.surrogate_config, registry, self.clock
        )
        self.hooks = HookFanout()
        self.traffic = TrafficStats()
        self.runtime = DistributedRuntime(
            self.client.vm, self.surrogate.vm, link, self.traffic
        )
        self.runtime.delivery = self.delivery
        dp_config = data_plane if data_plane is not None else DataPlaneConfig()
        #: RPC worker-pool service quantum, threaded into every channel
        #: this platform creates (including post-handoff rebuilds).
        self._service_quantum_s = dp_config.service_quantum_s
        self.data_plane = (
            DataPlane(dp_config, link, self.runtime.transfer)
            if dp_config.any_enabled else None
        )
        self.ctx = ExecutionContext(
            self.runtime, registry, hooks=self.hooks, flags=flags,
            data_plane=self.data_plane,
        )

        granularity = {INT_ARRAY_CLASS} if flags.arrays_object_granularity else set()
        self.monitor = ExecutionMonitor(
            object_granularity_classes=granularity, profile=profile
        )
        self.resources = ResourceMonitor()
        self.hooks.add(self.monitor)
        self.hooks.add(self.resources)

        self.migrator = Migrator(
            self.client.vm,
            self.surrogate.vm,
            link,
            self.hooks,
            self.traffic,
            object_granularity_classes=granularity,
            delivery=self.delivery,
        )
        self.partitioner = Partitioner(
            partition_policy or offload_policy.make_partition_policy(),
            hints=hints,
        )
        self.engine = OffloadingEngine(
            monitor=self.monitor,
            partitioner=self.partitioner,
            trigger=offload_policy.make_trigger(),
            pinned_provider=self.pinned_nodes,
            context_provider=self.evaluation_context,
            migrate=self._migrate,
            now=lambda: self.clock.now,
            client_site=self.client.vm.name,
            single_shot=single_shot,
            reevaluate_every=reevaluate_every,
        )
        # Static-analysis cold start (a ColdStartSeed): seeds the
        # monitor's graph with the predicted interaction structure and
        # installs inferred hints unless explicit ``hints`` were given.
        self.engine.apply_cold_start(cold_start)
        self.hooks.add(self.engine)

        self.channel = RpcChannel(
            self.ctx, self.client.vm.name, self.surrogate.vm.name,
            delivery=self.delivery,
            service_quantum_s=self._service_quantum_s,
        )
        self._wire_gc(self.client.vm)
        self._wire_gc(self.surrogate.vm)
        self._install_distributed_gc()
        self._torn_down = False
        if polled:
            self.hooks.add(_BoundaryPoll(self))

    # -- construction helpers ------------------------------------------------

    def _wire_gc(self, vm: VirtualMachine) -> None:
        # The channel barrier runs first: export handles for collected
        # objects are pruned (and pending data-plane traffic flushed)
        # before the report reaches the offloading engine.
        vm.collector.subscribe(
            lambda report, site=vm.name: self._gc_barrier(site)
        )
        vm.collector.subscribe(
            lambda report, site=vm.name: self.hooks.on_gc_report(report, site)
        )
        vm.collector.subscribe_free(lambda obj: self.hooks.on_free(obj))
        if self.data_plane is not None:
            vm.collector.subscribe_free(
                lambda obj: self.data_plane.note_free(obj.oid)
            )

    def _gc_barrier(self, site: str) -> None:
        if self.data_plane is not None:
            self.data_plane.gc_barrier()
        # After a handoff the departed surrogate keeps collecting but is
        # no longer a channel endpoint; only current endpoints prune.
        if site in self.channel.exports:
            self.channel.gc_barrier(site)

    def _install_distributed_gc(self) -> None:
        # Each scanner also consults the peer's *direct* roots (named
        # globals, static fields): a client global may point straight at
        # a migrated object on the surrogate.
        client_scanner = CrossHeapRootScanner(
            self.client.vm, self.surrogate.vm,
            self.channel.exports[self.client.vm.name],
            extra_peer_roots=self.surrogate.vm.local_roots,
        )
        surrogate_scanner = CrossHeapRootScanner(
            self.surrogate.vm, self.client.vm,
            self.channel.exports[self.surrogate.vm.name],
            extra_peer_roots=self.client.vm.local_roots,
        )
        self.client.vm.add_root_source(client_scanner.roots)
        self.surrogate.vm.add_root_source(surrogate_scanner.roots)

    @classmethod
    def from_discovery(
        cls,
        directory: SurrogateDirectory,
        client_config: Optional[VMConfig] = None,
        min_free_heap: int = 0,
        max_rtt: Optional[float] = None,
        **kwargs,
    ) -> "DistributedPlatform":
        """Ad-hoc creation: pick the best advertised surrogate and attach."""
        offer = directory.select(min_free_heap=min_free_heap, max_rtt=max_rtt)
        return cls(
            client_config=client_config,
            surrogate_config=VMConfig(device=offer.device),
            link=offer.link,
            **kwargs,
        )

    # -- engine plumbing ------------------------------------------------------

    def pinned_nodes(self) -> List[str]:
        """Graph nodes that must stay on the client.

        The application entry point and every class with native methods
        (only *stateful* natives under the stateless-native enhancement).
        """
        pinned = [MAIN_CLASS]
        pinned.extend(
            self.registry.pinned_class_names(
                stateless_natives_ok=self.flags.stateless_natives_local
            )
        )
        return pinned

    def evaluation_context(self) -> EvaluationContext:
        return EvaluationContext(
            heap_capacity=self.client.vm.heap.capacity,
            client_speed=self.client.device.cpu_speed,
            surrogate_speed=self.surrogate.device.cpu_speed,
            link=self.link,
            total_cpu=self.monitor.graph.total_cpu(),
            elapsed=self.clock.now,
        )

    def _migrate(self, offload_nodes) -> MigrationOutcome:
        if self.data_plane is not None:
            # Migration barrier: pending coalesced traffic must be
            # charged before residency changes under it...
            self.data_plane.migration_barrier()
        outcome = self.migrator.apply_placement(offload_nodes)
        if self.data_plane is not None:
            # ...and the read cache cannot outlive the old placement.
            self.data_plane.note_migration()
        # A post-offload cycle refreshes the free-memory picture so the
        # trigger policy sees the relief immediately.
        self.client.vm.collect_garbage("post-offload")
        return outcome

    # -- the reaction controller's site (see repro.core.reaction) -------------

    def drop_in_flight(self) -> None:
        if self.data_plane is not None:
            self.data_plane.drop_pending()

    def invalidate_reads(self) -> None:
        if self.data_plane is not None:
            self.data_plane.note_migration()

    def suspend_offloading(self) -> None:
        self.engine.suspend()

    def resume_offloading(self) -> None:
        self.engine.resume()

    def repatriate_unreachable(self) -> Tuple[int, int]:
        outcome = self.migrator.repatriate_unreachable()
        return outcome.moved_objects, outcome.moved_bytes

    def forget_surrogate(self) -> None:
        # Neither side can resolve the other's handles any more.
        for refmap in self.channel.exports.values():
            refmap.clear()

    def warm_offload(self) -> OffloadEvent:
        return self.engine.attempt()

    def use_link(self, link: LinkModel) -> None:
        if self.data_plane is not None:
            self.data_plane.flush()
            if self.data_plane.coalescer is not None:
                self.data_plane.coalescer.link = link
        self.runtime.link = link
        self.migrator.link = link

    def roam(self, backhaul: LinkModel) -> bool:
        if self.directory is None:
            return False
        try:
            offer = self.directory.select(exclude=(self._current_offer_name,))
        except SurrogateUnavailableError:
            return False
        departing = self.surrogate
        self.handoff(offer, backhaul=backhaul)
        return self.surrogate is not departing

    def offloaded_nodes(self) -> FrozenSet[str]:
        return frozenset(
            obj.class_name for obj in self.surrogate.vm.heap.objects()
        )

    def place(self, offload_nodes: FrozenSet[str]) -> int:
        return self._migrate(offload_nodes).moved_bytes

    # -- failure, recovery and the clock ---------------------------------------

    @property
    def link(self) -> LinkModel:
        """The current link (the reaction controller's)."""
        return self.reactions.link

    @property
    def surrogate_lost(self) -> bool:
        return self.reactions.peer_dead

    def rediscover(self, attempt_offload: bool = True):
        """A replacement surrogate was found: leave degraded mode and
        return the warm-start :class:`OffloadEvent`, if attempted."""
        return self.reactions.rediscover(attempt_offload)

    def poll_mobility(self) -> Optional[str]:
        """Poll the reaction controller now (the platform also polls at
        operation boundaries); returns ``"fire"``, ``"recover"`` or
        ``None``."""
        return self.reactions.poll()

    # -- running applications ------------------------------------------------------

    def run(self, app) -> PlatformReport:
        """Install and execute a guest application to completion."""
        if self._torn_down:
            raise PlatformError("platform has been torn down")
        app.install(self.registry)
        app.main(self.ctx)
        return self.report(app.name)

    def _faults_section(self) -> Optional[dict]:
        """The report's recovery section (``None`` without injection)."""
        if self.delivery is None:
            return None
        report = self.fault_report
        # Mirror the reliability counters into the execution monitor's
        # RemoteCounters, where the rest of the remote-op accounting
        # lives.
        remote = self.monitor.remote
        remote.retries = report.retries
        remote.timeouts = report.timeouts
        remote.duplicates_suppressed = report.duplicates_suppressed
        remote.fault_time_s = report.fault_time_s
        if self.data_plane is not None:
            report.dropped_batches = self.data_plane.stats.dropped_batches
        remote.dropped_batches = report.dropped_batches
        report.epochs_survived = len(self.engine.performed_events)
        section = report.as_dict()
        if self.reactions.lost_at is not None:
            # The downtime window is still open: charge it up to "now"
            # without closing it (report() must stay idempotent).
            section["downtime_s"] += self.clock.now - self.reactions.lost_at
        return section

    def report(self, app_name: str = "") -> PlatformReport:
        if self.data_plane is not None:
            # Charge whatever is still buffered before summarising.
            self.data_plane.flush()
        rpc = self.traffic.category("rpc")
        dp_stats = self.data_plane.stats if self.data_plane is not None else None
        return PlatformReport(
            app_name=app_name,
            elapsed=self.clock.now,
            offload_count=self.engine.offload_count,
            refusal_count=self.engine.refusal_count,
            migrated_bytes=self.traffic.category("migration").bytes,
            rpc_messages=rpc.messages,
            rpc_bytes=rpc.bytes,
            remote_invocations=self.monitor.remote.remote_invocations,
            remote_native_invocations=self.monitor.remote.remote_native_invocations,
            client_heap_used=self.client.vm.heap.used,
            surrogate_heap_used=self.surrogate.vm.heap.used,
            cached_remote_reads=self.monitor.remote.cached_reads,
            rpc_rtts_saved=dp_stats.rtts_saved if dp_stats else 0,
            rpc_bytes_saved=dp_stats.bytes_saved if dp_stats else 0,
            pruned_handles=self.channel.pruned_handles,
            faults=self._faults_section(),
        )

    @property
    def offload_events(self) -> List[OffloadEvent]:
        return self.engine.events

    @property
    def elapsed(self) -> float:
        return self.clock.now

    def teardown(self) -> MigrationOutcome:
        """Dissolve the ad-hoc platform, returning all state to the client."""
        if self.data_plane is not None:
            self.data_plane.migration_barrier()
        outcome = self.migrator.return_everything()
        if self.data_plane is not None:
            self.data_plane.note_migration()
        self._torn_down = True
        return outcome

    # -- mobility (paper section 8: "combine offloading and mobility") ---------

    def handoff(self, offer: SurrogateOffer,
                backhaul: Optional[LinkModel] = None) -> MigrationOutcome:
        """Move the platform to a new surrogate as the user roams.

        Implements the migration answer to the paper's handoff question
        ("should the objects on the first surrogate be migrated to the
        second surrogate?"): every object on the departing surrogate is
        shipped to the new one over a surrogate-to-surrogate backhaul
        link (infrastructure wiring, default fast Ethernet), the client
        link is switched to the new offer's link (or, under a link
        profile, the profile restarts), and the AIDE modules re-attach
        to the new surrogate.  Execution continues transparently —
        subsequent remote interactions route to the new surrogate.
        """
        from ..net.wavelan import ETHERNET_100MBPS

        if self._torn_down:
            raise PlatformError("platform has been torn down")
        if self.data_plane is not None:
            self.data_plane.migration_barrier()
            self.data_plane.note_migration()
        backhaul = backhaul if backhaul is not None else ETHERNET_100MBPS
        suffix = sum(1 for vm in self.runtime.vms()) - 1
        new_name = f"surrogate-{suffix + 1}"
        new_node = make_surrogate_node(
            VMConfig(device=offer.device), self.registry, self.clock,
            name=new_name,
        )
        self.runtime.register(new_node.vm)
        new_node.vm.add_root_source(self.ctx.frame_roots)
        self._wire_gc(new_node.vm)

        # The existing migrator (and its delivery layer, so exactly-once
        # and the recovery ladder survive the handoff) streams the state
        # over the backhaul and re-attaches to the new surrogate.
        outcome = self.migrator.handoff_to(new_node.vm, backhaul)
        if self.migrator.surrogate is not new_node.vm:
            # The opening delivery exchange failed: the stream aborted
            # un-applied and recovery owns the old surrogate's state —
            # leave the platform attached where it was.
            return outcome

        # Re-point the platform at the new surrogate.
        self.surrogate = new_node
        self._current_offer_name = offer.name
        self.channel = RpcChannel(
            self.ctx, self.client.vm.name, new_node.vm.name,
            delivery=self.delivery,
            service_quantum_s=self._service_quantum_s,
        )
        self._install_distributed_gc()
        self.reactions.handed_off(outcome.moved_bytes, outcome.seconds,
                                  offer.link)
        return outcome


class _BoundaryPoll(ExecutionListener):
    """Polls the reaction controller after each completed invocation or
    field access: an operation boundary, with no transfer in flight (a
    poll from inside ``VirtualClock.advance`` could re-enter one).  A
    handoff renames the surrogate, so it waits while any frame executes
    off the client."""

    def __init__(self, platform: DistributedPlatform) -> None:
        self.platform = platform

    def on_invoke(self, record) -> None:
        platform = self.platform
        client = platform.client.vm.name
        if platform.clock.now >= platform.reactions.next_poll_at and all(
            site == client for site in platform.ctx.frame_sites()
        ):
            platform.reactions.poll()

    on_access = on_invoke
