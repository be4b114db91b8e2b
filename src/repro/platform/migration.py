"""Object migration between the client and surrogate VMs.

Given a placement (the set of graph nodes the partitioner wants on the
surrogate), the migrator moves the corresponding live objects: whole
classes at class granularity, individual arrays at object granularity.
It charges the transfer against the link, keeps traffic statistics, and
notifies the hooks so the monitor and experiments can see offloads.

Migration is bidirectional: applying a placement also returns to the
client any object whose node is *not* in the offload set, which gives
the platform the "global placement" behaviour the paper lists as future
work (reverse migration on re-evaluation).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from ..core.engine import MigrationOutcome
from ..core.graph import node_class, object_node_id
from ..errors import MigrationError
from ..net.link import LinkModel
from ..net.stats import TrafficStats
from ..rpc.marshal import MESSAGE_HEADER_BYTES
from ..rpc.retry import ReliableDelivery
from ..vm.hooks import HookFanout
from ..vm.objectmodel import JObject
from ..vm.vm import VirtualMachine

#: Serialisation overhead charged per migrated object (type tag, oid,
#: field map framing).
PER_OBJECT_OVERHEAD_BYTES = 16


class Migrator:
    """Applies placements between one client and one surrogate VM."""

    def __init__(
        self,
        client: VirtualMachine,
        surrogate: VirtualMachine,
        link: LinkModel,
        hooks: HookFanout,
        traffic: TrafficStats,
        object_granularity_classes: Set[str] = frozenset(),
        delivery: Optional[ReliableDelivery] = None,
    ) -> None:
        self.client = client
        self.surrogate = surrogate
        self.link = link
        self.hooks = hooks
        self.traffic = traffic
        self.object_granularity_classes = set(object_granularity_classes)
        #: Optional reliability layer: when present, every migration
        #: stream opens with one fault-checked exchange *before* any
        #: object changes residency, so a surrogate crash mid-migration
        #: leaves both heaps exactly as they were.
        self.delivery = delivery
        #: Sequence number of the delivery exchange that opened the last
        #: migration stream (for at-most-once application of retried
        #: streams; 0 when no migration has run under a delivery layer).
        self.last_migration_seq = 0

    @property
    def peer_lost(self) -> bool:
        return self.delivery is not None and self.delivery.peer_dead

    # -- placement interpretation ------------------------------------------------

    def _wants_surrogate(self, obj: JObject, offload_nodes: FrozenSet[str]) -> bool:
        if obj.class_name in self.object_granularity_classes:
            return object_node_id(obj.class_name, obj.oid) in offload_nodes
        return obj.class_name in offload_nodes

    def _select(
        self, vm: VirtualMachine, offload_nodes: FrozenSet[str], to_surrogate: bool
    ) -> List[JObject]:
        chosen = []
        for obj in vm.heap.objects():
            if self._wants_surrogate(obj, offload_nodes) == to_surrogate:
                chosen.append(obj)
        return chosen

    # -- the move itself ------------------------------------------------------

    def apply_placement(self, offload_nodes: FrozenSet[str]) -> MigrationOutcome:
        """Move objects so residency matches ``offload_nodes``.

        Objects of offloaded nodes found on the client move out; objects
        of non-offloaded nodes found on the surrogate move back.
        """
        for node in offload_nodes:
            if node_class(node) == "<main>":
                raise MigrationError("the application entry point cannot move")
        if self.peer_lost:
            # The surrogate is unreachable; recovery already pulled its
            # state home and owns residency until rediscovery.
            return MigrationOutcome()
        outgoing = self._select(self.client, offload_nodes, to_surrogate=True)
        returning = self._select(self.surrogate, offload_nodes, to_surrogate=False)
        moved_bytes = 0
        moved_objects = 0
        seconds = 0.0
        if outgoing:
            nbytes, duration = self._move(outgoing, self.client, self.surrogate)
            moved_bytes += nbytes
            moved_objects += len(outgoing)
            seconds += duration
        if self.peer_lost:
            # The peer died under the outgoing stream: recovery has run,
            # the ``returning`` objects are already home — do not touch
            # them again.
            return MigrationOutcome()
        if returning:
            nbytes, duration = self._move(returning, self.surrogate, self.client)
            moved_bytes += nbytes
            moved_objects += len(returning)
            seconds += duration
        return MigrationOutcome(
            moved_bytes=moved_bytes, moved_objects=moved_objects, seconds=seconds
        )

    def _move(
        self,
        objects: List[JObject],
        source: VirtualMachine,
        destination: VirtualMachine,
    ) -> Tuple[int, float]:
        payload = sum(
            obj.size_bytes + PER_OBJECT_OVERHEAD_BYTES for obj in objects
        )
        total = payload + MESSAGE_HEADER_BYTES
        # Exchange before mutate: the stream's opening message must
        # survive the fault gauntlet before any object changes
        # residency.  A crash here aborts the whole stream un-applied —
        # recovery (triggered inside the failed exchange) sees both
        # heaps exactly as they were.
        if self.delivery is not None:
            if not self.delivery.attempt():
                return 0, 0.0
            self.last_migration_seq = self.delivery.exchanges
        # Capacity check before touching either heap, so a failed
        # migration leaves residency unchanged.
        incoming = sum(obj.size_bytes for obj in objects)
        if destination.heap.free < incoming:
            destination.collect_garbage("pre-migration")
            if destination.heap.free < incoming:
                raise MigrationError(
                    f"{destination.name} cannot host {incoming} bytes "
                    f"({destination.heap.free} free)"
                )
        for obj in objects:
            source.evict(obj)
            destination.adopt(obj)
        duration = self.link.bulk_transfer(total)
        source.clock.advance(duration)
        self.traffic.record(total, category="migration")
        class_names = sorted({obj.class_name for obj in objects})
        self.hooks.on_offload(
            class_names, total, source.name, destination.name
        )
        return total, duration

    def handoff_to(
        self,
        new_surrogate: VirtualMachine,
        backhaul: LinkModel,
    ) -> MigrationOutcome:
        """Move the offloaded partition surrogate-to-surrogate.

        The roaming client found a better-placed surrogate: every object
        resident on the current surrogate streams to ``new_surrogate``
        over ``backhaul`` (the surrogate-side infrastructure link) —
        the state never transits the client's wireless hop.  After the
        move this migrator is attached to the new surrogate.

        Exactly-once under retry: the stream opens with one
        fault-checked delivery exchange *before* any object moves (the
        delivery layer dedups retransmitted sequence numbers), and
        ``last_migration_seq`` records the stream so recovery can tell
        an applied handoff from an aborted one.  A failed exchange
        aborts the handoff with both surrogates' heaps untouched.
        """
        departing = list(self.surrogate.heap.objects())
        if self.delivery is not None:
            if not self.delivery.attempt():
                return MigrationOutcome()
            self.last_migration_seq = self.delivery.exchanges
        if not departing:
            self.surrogate = new_surrogate
            return MigrationOutcome()
        payload = sum(
            obj.size_bytes + PER_OBJECT_OVERHEAD_BYTES for obj in departing
        )
        total = payload + MESSAGE_HEADER_BYTES
        incoming = sum(obj.size_bytes for obj in departing)
        if new_surrogate.heap.free < incoming:
            new_surrogate.collect_garbage("pre-handoff")
            if new_surrogate.heap.free < incoming:
                raise MigrationError(
                    f"{new_surrogate.name} cannot host {incoming} bytes "
                    f"({new_surrogate.heap.free} free)"
                )
        old = self.surrogate
        for obj in departing:
            old.evict(obj)
            new_surrogate.adopt(obj)
        duration = backhaul.bulk_transfer(total)
        old.clock.advance(duration)
        self.traffic.record(total, category="migration")
        self.hooks.on_offload(
            sorted({obj.class_name for obj in departing}),
            total, old.name, new_surrogate.name,
        )
        self.surrogate = new_surrogate
        return MigrationOutcome(
            moved_bytes=total,
            moved_objects=len(departing),
            seconds=duration,
        )

    def return_everything(self) -> MigrationOutcome:
        """Bring every offloaded object home (platform teardown)."""
        if self.peer_lost:
            return self.repatriate_unreachable()
        return self.apply_placement(frozenset())

    def repatriate_unreachable(self) -> MigrationOutcome:
        """Rebuild every surrogate-resident object on the client.

        The surrogate is gone, so nothing travels the wire and nothing
        is charged to the link or the clock: the client *reconstructs*
        the lost state from its own bookkeeping (the reference map and
        monitored field traffic give it every object it ever saw leave),
        which the emulation models as adopting the same object records
        back into the client heap.  A pre-recovery collection runs if
        the reconstructed state would not fit as-is.
        """
        stranded = list(self.surrogate.heap.objects())
        if not stranded:
            return MigrationOutcome()
        incoming = sum(obj.size_bytes for obj in stranded)
        if self.client.heap.free < incoming:
            self.client.collect_garbage("recovery")
        moved_bytes = 0
        for obj in stranded:
            self.surrogate.evict(obj)
            self.client.adopt(obj)
            moved_bytes += obj.size_bytes
        self.hooks.on_offload(
            sorted({obj.class_name for obj in stranded}),
            0, self.surrogate.name, self.client.name,
        )
        return MigrationOutcome(
            moved_bytes=moved_bytes,
            moved_objects=len(stranded),
            seconds=0.0,
        )
