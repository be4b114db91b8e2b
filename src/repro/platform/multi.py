"""Multi-surrogate platform: offloading across several helpers.

Paper section 2: "If the necessary resources for a client are not
available at the closest surrogate, multiple surrogates could be used
by the client".  This module implements that: the AIDE partitioner
still makes its two-way client/offload decision, and a *placement
assigner* then spreads the offloaded nodes across the available
surrogates — respecting each surrogate's free heap and keeping tightly
coupled nodes together (the same interaction-minimising instinct as the
partitioner itself, applied k-ways greedily).

Object routing needs no changes: the execution context already routes
by each object's home site, whatever the number of sites.  Interactions
*between* surrogates relay through the client's wireless links (two
hops), which the runtime charges accordingly — a structural reason to
keep coupled nodes co-located, which the assigner's cohesion term
reflects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..config import EnhancementFlags, JORNADA, VMConfig
from ..core.engine import MigrationOutcome, OffloadingEngine
from ..core.graph import ExecutionGraph, node_class, object_node_id
from ..core.monitor import ExecutionMonitor, ResourceMonitor
from ..core.partitioner import Partitioner
from ..core.policy import EvaluationContext, OffloadPolicy
from ..errors import (
    ConfigurationError,
    MigrationError,
    OutOfMemoryError,
    PlatformError,
)
from ..net.link import LinkModel
from ..net.stats import TrafficStats
from ..net.wavelan import WAVELAN_11MBPS
from ..rpc.marshal import MESSAGE_HEADER_BYTES
from ..vm.classloader import ClassRegistry
from ..vm.clock import VirtualClock
from ..vm.context import ExecutionContext, MAIN_CLASS, Runtime
from ..vm.hooks import HookFanout
from ..vm.natives import install_standard_library
from ..vm.objectmodel import JObject
from ..vm.vm import VirtualMachine
from .migration import PER_OBJECT_OVERHEAD_BYTES
from .platform import INT_ARRAY_CLASS


@dataclass(frozen=True)
class SurrogateSpec:
    """One surrogate in the cluster: its VM config and its link."""

    name: str
    config: VMConfig
    link: LinkModel = WAVELAN_11MBPS

    def __post_init__(self) -> None:
        if not self.name or self.name == "client":
            raise ConfigurationError(
                f"surrogate name {self.name!r} is not usable"
            )


class MultiSurrogateRuntime(Runtime):
    """N-site runtime: client plus any number of surrogates.

    Client↔surrogate messages ride that surrogate's link; surrogate↔
    surrogate messages relay through the client (two hops) — the ad-hoc
    platform has no surrogate-to-surrogate radio path.
    """

    def __init__(self, client_vm: VirtualMachine,
                 surrogates: Dict[str, Tuple[VirtualMachine, LinkModel]],
                 traffic: TrafficStats) -> None:
        self._client = client_vm
        self._vms: Dict[str, VirtualMachine] = {client_vm.name: client_vm}
        self._links: Dict[str, LinkModel] = {}
        for name, (vm, link) in surrogates.items():
            self._vms[name] = vm
            self._links[name] = link
        self.traffic = traffic

    def client(self) -> VirtualMachine:
        return self._client

    def vm(self, name: str) -> VirtualMachine:
        try:
            return self._vms[name]
        except KeyError:
            raise PlatformError(f"unknown site {name!r}") from None

    def vms(self) -> Iterable[VirtualMachine]:
        return self._vms.values()

    def link_to(self, surrogate_name: str) -> LinkModel:
        try:
            return self._links[surrogate_name]
        except KeyError:
            raise PlatformError(
                f"no link to surrogate {surrogate_name!r}"
            ) from None

    def transfer(self, from_site: str, to_site: str, nbytes: int) -> bool:
        if from_site == to_site:
            return True
        client_name = self._client.name
        if from_site == client_name or to_site == client_name:
            surrogate = to_site if from_site == client_name else from_site
            self._client.clock.advance(self.link_to(surrogate).one_way(nbytes))
            self.traffic.record(nbytes, category="rpc")
            return True
        # Surrogate-to-surrogate: relay through the client.
        self._client.clock.advance(
            self.link_to(from_site).one_way(nbytes)
            + self.link_to(to_site).one_way(nbytes)
        )
        self.traffic.record(nbytes, category="rpc")
        self.traffic.record(nbytes, category="rpc")
        return True

    # -- allocation spill -----------------------------------------------------
    #
    # The surrogate cluster behaves as one memory pool: an allocation on
    # a full surrogate spills to the sibling with the most free heap
    # (never to the client — client pressure is the trigger policy's
    # concern, not the allocator's).

    def _spill_order(self, site: str) -> List[VirtualMachine]:
        preferred = self.vm(site)
        if site == self._client.name:
            return [preferred]
        siblings = sorted(
            (vm for name, vm in self._vms.items()
             if name not in (site, self._client.name)),
            key=lambda vm: -vm.heap.free,
        )
        return [preferred] + siblings

    def new_instance(self, site: str, cls) -> JObject:
        last_error = None
        for vm in self._spill_order(site):
            try:
                return vm.new_instance(cls)
            except OutOfMemoryError as oom:
                last_error = oom
        raise last_error

    def new_array(self, site: str, element_type: str, length: int,
                  data=None) -> "JObject":
        last_error = None
        for vm in self._spill_order(site):
            try:
                return vm.new_array(element_type, length, data=data)
            except OutOfMemoryError as oom:
                last_error = oom
        raise last_error


def assign_offload_nodes(
    graph: ExecutionGraph,
    offload_nodes: FrozenSet[str],
    capacities: Dict[str, int],
    node_memory: Dict[str, int],
    preference: List[str],
) -> Dict[str, str]:
    """Spread offloaded nodes across surrogates.

    Greedy cohesion packing: nodes are placed largest-first; each node
    goes to the surrogate with the strongest interaction coupling to
    the nodes already placed there (so chatty neighbours co-locate and
    avoid the two-hop relay), breaking ties by the caller-supplied
    preference order, subject to each surrogate's free heap.

    Returns ``{node: surrogate_name}``; raises
    :class:`~repro.errors.MigrationError` when some node fits nowhere.
    """
    remaining = dict(capacities)
    placed: Dict[str, str] = {}
    members: Dict[str, Set[str]] = {name: set() for name in capacities}
    order = sorted(
        offload_nodes,
        key=lambda n: (-node_memory.get(n, 0), n),
    )
    rank = {name: index for index, name in enumerate(preference)}
    for node in order:
        need = node_memory.get(node, 0)
        candidates = [
            name for name, free in remaining.items() if free >= need
        ]
        if not candidates:
            raise MigrationError(
                f"no surrogate can host node {node!r} ({need} bytes)"
            )
        best = max(
            candidates,
            key=lambda name: (
                sum(graph.edge_bytes(node, other)
                    for other in members[name]),
                -rank.get(name, len(rank)),
            ),
        )
        placed[node] = best
        members[best].add(node)
        remaining[best] -= need
    return placed


def place_fleet_clients(
    predicted_load: Dict[str, float],
    surrogates: List[str],
    capacities: Optional[Dict[str, int]] = None,
) -> Dict[str, str]:
    """Balance whole *clients* across a surrogate pool.

    The fleet-scale sibling of :func:`assign_offload_nodes`: where that
    assigner spreads one client's graph nodes k-ways by cohesion, this
    one spreads N independent clients by **predicted traffic** (an
    AIDE-Lint cold-start estimate where available, the trace's event
    count otherwise).  Clients are placed heaviest-first onto the
    currently least-loaded surrogate — the classic LPT balance rule —
    with ties broken by pool order, so placement is deterministic for a
    given load map.

    ``capacities`` (optional, clients per surrogate) bounds how many
    clients a member may receive; when every surrogate is full the
    remaining clients overflow to the least-loaded member anyway (the
    fleet's *admission control* decides queue-or-reject, placement only
    picks the target).

    Returns ``{client_id: surrogate_name}``.
    """
    if not surrogates:
        raise ConfigurationError("fleet placement needs at least one "
                                 "surrogate")
    load: Dict[str, float] = {name: 0.0 for name in surrogates}
    count: Dict[str, int] = {name: 0 for name in surrogates}
    rank = {name: index for index, name in enumerate(surrogates)}
    placed: Dict[str, str] = {}
    order = sorted(predicted_load,
                   key=lambda cid: (-predicted_load[cid], cid))
    for client_id in order:
        candidates = surrogates
        if capacities is not None:
            open_members = [
                name for name in surrogates
                if count[name] < capacities.get(name, 0)
            ]
            if open_members:
                candidates = open_members
        best = min(candidates, key=lambda name: (load[name], rank[name]))
        placed[client_id] = best
        load[best] += predicted_load[client_id]
        count[best] += 1
    return placed


class MultiSurrogatePlatform:
    """A client offloading across a cluster of surrogates."""

    def __init__(
        self,
        surrogates: List[SurrogateSpec],
        client_config: Optional[VMConfig] = None,
        offload_policy: Optional[OffloadPolicy] = None,
        flags: EnhancementFlags = EnhancementFlags(),
        single_shot: bool = True,
        registry: Optional[ClassRegistry] = None,
    ) -> None:
        if not surrogates:
            raise ConfigurationError("need at least one surrogate")
        names = [spec.name for spec in surrogates]
        if len(set(names)) != len(names):
            raise ConfigurationError("surrogate names must be unique")
        self.client_config = client_config or VMConfig(device=JORNADA)
        self.flags = flags
        offload_policy = offload_policy or OffloadPolicy.initial()

        if registry is None:
            registry = ClassRegistry()
            install_standard_library(registry)
        self.registry = registry
        self.clock = VirtualClock()
        self.client_vm = VirtualMachine(
            "client", self.client_config, registry, clock=self.clock
        )
        self.surrogate_vms: Dict[str, VirtualMachine] = {}
        self.links: Dict[str, LinkModel] = {}
        for spec in surrogates:
            self.surrogate_vms[spec.name] = VirtualMachine(
                spec.name, spec.config, registry, clock=self.clock
            )
            self.links[spec.name] = spec.link
        #: Preference order for ties in placement: as supplied.
        self.preference = names

        self.hooks = HookFanout()
        self.traffic = TrafficStats()
        self.runtime = MultiSurrogateRuntime(
            self.client_vm,
            {name: (vm, self.links[name])
             for name, vm in self.surrogate_vms.items()},
            self.traffic,
        )
        self.ctx = ExecutionContext(
            self.runtime, registry, hooks=self.hooks, flags=flags
        )
        granularity = (
            {INT_ARRAY_CLASS} if flags.arrays_object_granularity else set()
        )
        self._granularity = granularity
        self.monitor = ExecutionMonitor(object_granularity_classes=granularity)
        self.resources = ResourceMonitor()
        self.hooks.add(self.monitor)
        self.hooks.add(self.resources)
        self.partitioner = Partitioner(offload_policy.make_partition_policy())
        self.engine = OffloadingEngine(
            monitor=self.monitor,
            partitioner=self.partitioner,
            trigger=offload_policy.make_trigger(),
            pinned_provider=self._pinned_nodes,
            context_provider=self._evaluation_context,
            migrate=self._migrate,
            now=lambda: self.clock.now,
            client_site="client",
            single_shot=single_shot,
        )
        self.hooks.add(self.engine)
        for vm in self.runtime.vms():
            self._wire_gc(vm)
        self._install_cross_heap_gc()

    # -- wiring ------------------------------------------------------------

    def _wire_gc(self, vm: VirtualMachine) -> None:
        vm.collector.subscribe(
            lambda report, site=vm.name: self.hooks.on_gc_report(report, site)
        )
        vm.collector.subscribe_free(lambda obj: self.hooks.on_free(obj))

    def _install_cross_heap_gc(self) -> None:
        """Liveness across all sites: any site's heap or direct roots
        can keep any other site's objects alive."""
        all_vms = list(self.runtime.vms())

        def roots_for(local: VirtualMachine):
            peers = [vm for vm in all_vms if vm is not local]

            def roots() -> List[JObject]:
                found: List[JObject] = []
                for peer in peers:
                    for obj in peer.heap.objects():
                        for ref in obj.references():
                            if ref.home == local.name:
                                found.append(ref)
                    for obj in peer.local_roots():
                        if obj.home == local.name:
                            found.append(obj)
                return found

            return roots

        for vm in all_vms:
            vm.add_root_source(roots_for(vm))

    # -- engine plumbing ------------------------------------------------------

    def _pinned_nodes(self) -> List[str]:
        pinned = [MAIN_CLASS]
        pinned.extend(self.registry.pinned_class_names(
            stateless_natives_ok=self.flags.stateless_natives_local
        ))
        return pinned

    def _evaluation_context(self) -> EvaluationContext:
        fastest = min(self.links.values(), key=lambda link: link.rtt)
        best_speed = max(
            vm.device.cpu_speed for vm in self.surrogate_vms.values()
        )
        return EvaluationContext(
            heap_capacity=self.client_vm.heap.capacity,
            client_speed=self.client_vm.device.cpu_speed,
            surrogate_speed=best_speed,
            link=fastest,
            total_cpu=self.monitor.graph.total_cpu(),
            elapsed=self.clock.now,
        )

    # -- placement ------------------------------------------------------------

    def _node_for(self, obj: JObject) -> str:
        if obj.class_name in self._granularity:
            return object_node_id(obj.class_name, obj.oid)
        return obj.class_name

    def _migrate(self, offload_nodes: FrozenSet[str]) -> MigrationOutcome:
        graph = self.monitor.graph
        node_memory = {
            node: (graph.node(node).memory_bytes if graph.has_node(node)
                   else 0)
            for node in offload_nodes
        }
        capacities = {
            name: vm.heap.free for name, vm in self.surrogate_vms.items()
        }
        assignment = assign_offload_nodes(
            graph, offload_nodes, capacities, node_memory, self.preference
        )
        # Gather per-destination batches from every site.
        batches: Dict[Tuple[str, str], List[JObject]] = {}
        for vm in self.runtime.vms():
            for obj in vm.heap.objects():
                node = self._node_for(obj)
                target = assignment.get(node, "client")
                if node_class(node) == MAIN_CLASS:
                    continue
                if target != obj.home:
                    batches.setdefault((obj.home, target), []).append(obj)
        total_bytes = 0
        total_objects = 0
        total_seconds = 0.0
        for (source_name, target_name), objects in sorted(batches.items()):
            source = self.runtime.vm(source_name)
            target = self.runtime.vm(target_name)
            payload = sum(
                o.size_bytes + PER_OBJECT_OVERHEAD_BYTES for o in objects
            )
            wire = payload + MESSAGE_HEADER_BYTES
            for obj in objects:
                source.evict(obj)
                target.adopt(obj)
            duration = self._batch_transfer_seconds(
                source_name, target_name, wire
            )
            self.clock.advance(duration)
            self.traffic.record(wire, category="migration")
            self.hooks.on_offload(
                sorted({o.class_name for o in objects}), wire,
                source_name, target_name,
            )
            total_bytes += wire
            total_objects += len(objects)
            total_seconds += duration
        return MigrationOutcome(
            moved_bytes=total_bytes, moved_objects=total_objects,
            seconds=total_seconds,
        )

    def _batch_transfer_seconds(self, source: str, target: str,
                                wire: int) -> float:
        if source == "client":
            return self.links[target].bulk_transfer(wire)
        if target == "client":
            return self.links[source].bulk_transfer(wire)
        return (self.links[source].bulk_transfer(wire)
                + self.links[target].bulk_transfer(wire))

    # -- running ------------------------------------------------------------

    def run(self, app) -> None:
        app.install(self.registry)
        app.main(self.ctx)

    def surrogate_usage(self) -> Dict[str, int]:
        return {
            name: vm.heap.used for name, vm in self.surrogate_vms.items()
        }
