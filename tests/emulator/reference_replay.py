"""The per-event reference interpreter: the replay parity oracle.

:class:`ReferenceReplayer` replays a trace one event object at a time
through five small handlers — the straightforward reading of the
replay semantics.  ``TraceReplayer.run`` is the batched columnar loop
that ``src`` ships; it inlines these handlers, so every parity suite
replays a configuration through both and demands bit-identical
fingerprints.  Cold paths (GC cycles, partitioning, migration,
recovery, mobility) are the shipped replayer's own, inherited here
unchanged — except graph recording: the reference buffers runs under
string node pairs and records every run, WORK event, allocation and
free through the graph's public entry points (its
:class:`PublicEntryRecorder` stands in for the shipped
:class:`~repro.core.recorder.GraphRecorder`), so the oracle shares
nothing with the shipped loop's interned, segment-deferred recording.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.emulator.replay import (
    CLIENT,
    SURROGATE,
    EmulationResult,
    TraceReplayer,
)
from repro.emulator.timemodel import remote_access_cost, remote_invoke_cost
from repro.rpc.cache import RemoteReadCache


class PublicEntryRecorder:
    """The graph writer the shipped replayer's cold paths call
    (``flush``, ``free``), plus the reference's buffered interactions,
    all through the graph's public entry points."""

    def __init__(self, graph, node_for) -> None:
        self.graph = graph
        self._node_for = node_for
        self._pending_edge: Optional[Tuple[str, str]] = None
        self._pending_edge_bytes = 0
        self._pending_edge_count = 0

    def flush(self) -> None:
        pair = self._pending_edge
        if pair is not None:
            self.graph.record_interaction(
                pair[0], pair[1], self._pending_edge_bytes,
                count=self._pending_edge_count,
            )
            self._pending_edge = None
            self._pending_edge_bytes = 0
            self._pending_edge_count = 0

    def record_interaction(self, a: str, b: str, nbytes: int) -> None:
        if a == b:
            return
        pair = (a, b) if a <= b else (b, a)
        if pair == self._pending_edge:
            self._pending_edge_bytes += nbytes
            self._pending_edge_count += 1
            return
        self.flush()
        self._pending_edge = pair
        self._pending_edge_bytes = nbytes
        self._pending_edge_count = 1

    def free(self, class_name: str, oid: int, size: int) -> None:
        node = self._node_for(class_name, oid)
        if self.graph.has_node(node):
            self.graph.add_memory(node, -size)
            self.graph.note_object_freed(node)


class ReferenceReplayer(TraceReplayer):
    """Replays a trace through the per-event handler loop."""

    def __init__(self, trace, config) -> None:
        super().__init__(trace, config)
        self._recorder = PublicEntryRecorder(self.graph, self._node_for)

    def run(self) -> EmulationResult:
        handlers = {
            AllocEvent: self._replay_alloc,
            FreeEvent: self._replay_free,
            InvokeEvent: self._replay_invoke,
            AccessEvent: self._replay_access,
            WorkEvent: self._replay_work,
        }
        offload_at = self.config.offload_at_event
        reevaluate_every = self.config.reevaluate_every
        for event in self.trace.events:
            handlers[type(event)](event)
            self.result.events_processed += 1
            if self._now >= self.reactions.next_poll_at:
                self.reactions.poll()
            if (
                offload_at is not None
                and self.result.events_processed == offload_at
                and self.config.offload_enabled
            ):
                self._attempt_offload()
            if (
                reevaluate_every is not None
                and self.config.offload_enabled
                and self.result.offload_count > 0
                and self._now - self._last_reevaluation >= reevaluate_every
            ):
                # Clock-driven re-evaluation (global-placement mode):
                # checked against virtual time on every event, because
                # after an offload the client may stop allocating (and
                # hence stop collecting) entirely.
                self._last_reevaluation = self._now
                self._attempt_offload(reevaluation=True)
            if self.result.oom:
                break
        return self._finish_run()

    # -- naming, graph and time helpers --------------------------------------

    def _class_site(self, class_name: str) -> str:
        if class_name in self._class_on_surrogate:
            return SURROGATE
        return CLIENT

    def _site_for(self, class_name: str, oid: Optional[int]) -> str:
        if oid is not None:
            site = self._site.get(oid)
            if site is not None:
                return site
        return self._class_site(class_name)

    def _charge_cpu(self, site: str, reference_seconds: float) -> None:
        if site == CLIENT:
            wall = reference_seconds / self.config.client.cpu_speed
            self.result.cpu_time_client += wall
        else:
            wall = reference_seconds / self.config.surrogate.cpu_speed
            self.result.cpu_time_surrogate += wall
        self._now += wall

    def _cache_key(self, event: AccessEvent):
        """Cache key for one access, or None when uncacheable.

        Arrays are excluded (bulk element traffic is placement data,
        not read-mostly state); statics cache at class granularity.
        """
        if event.is_static:
            return RemoteReadCache.static_key(event.owner_class)
        if event.owner_oid is None or event.owner_class.endswith("[]"):
            return None
        return event.owner_oid

    def _charge_monitoring(self, site: str) -> None:
        cost = self.config.monitoring_event_cost
        if not cost:
            return
        speed = (self.config.client.cpu_speed if site == CLIENT
                 else self.config.surrogate.cpu_speed)
        wall = cost / speed
        self.result.monitoring_time += wall
        self._now += wall

    # -- the five event handlers ------------------------------------------------

    def _replay_alloc(self, event: AllocEvent) -> None:
        site = self._class_site(event.creator_class)
        if site == CLIENT:
            capacity = self.config.client.heap_capacity
            if self._client_live + event.size > capacity:
                self._gc_cycle("space-exhausted")
                if self._client_live + event.size > capacity:
                    self.result.oom = True
                    self.result.oom_time = self._now
                    return
            self._client_live += event.size
            if self._client_live > self.result.peak_client_bytes:
                self.result.peak_client_bytes = self._client_live
            self._allocs_since_gc += 1
            self._bytes_since_gc += event.size
        else:
            self._surrogate_live += event.size
        self._site[event.oid] = site
        self._size[event.oid] = event.size
        self._class[event.oid] = event.class_name
        node = self._node_for(event.class_name, event.oid)
        self.graph.add_memory(node, event.size)
        self.graph.note_object_created(node)
        # The creating class is part of the execution picture even if no
        # interaction has referenced it yet.
        self.graph.ensure_node(event.creator_class)
        self._charge_monitoring(site)
        self._maybe_gc()

    def _replay_free(self, event: FreeEvent) -> None:
        site = self._site.get(event.oid)
        if site is None:
            return
        if site == CLIENT:
            # Client garbage waits for an emulated collection cycle.
            self._pending_garbage.append(event.oid)
            self._pending_garbage_bytes += self._size[event.oid]
        else:
            self._reclaim(event.oid)

    def _maybe_gc(self) -> None:
        capacity = self.config.client.heap_capacity
        free_fraction = (capacity - self._client_live) / capacity
        if free_fraction < self.config.gc.space_pressure_fraction:
            self._gc_cycle("space-pressure")
        elif self._allocs_since_gc >= self.config.gc.allocations_per_cycle:
            self._gc_cycle("allocation-count")
        elif self._bytes_since_gc >= self.config.gc.bytes_per_cycle:
            self._gc_cycle("allocation-bytes")

    def _invoke_sites(self, event: InvokeEvent) -> Tuple[str, str]:
        caller_site = self._site_for(event.caller_class, event.caller_oid)
        if event.is_native:
            if event.stateless and self.config.flags.stateless_natives_local:
                exec_site = caller_site
            else:
                exec_site = CLIENT
        elif event.is_static:
            exec_site = caller_site
        else:
            exec_site = self._site_for(event.callee_class, event.callee_oid)
        return caller_site, exec_site

    def _replay_invoke(self, event: InvokeEvent) -> None:
        caller_site, exec_site = self._invoke_sites(event)
        remote = exec_site != caller_site
        nbytes = event.arg_bytes + event.ret_bytes
        if remote and self._coalescer is None and not self._exchange():
            # The surrogate died under this round trip: recovery has
            # repatriated everything, so the invocation is local now.
            caller_site, exec_site = self._invoke_sites(event)
            remote = exec_site != caller_site
        if remote:
            if self._coalescer is not None:
                # Control transfers: the invoke closes its batch, and
                # any buffered writes piggyback on its request leg.
                self._coalescer.invoke(caller_site, exec_site,
                                       event.arg_bytes, event.ret_bytes)
            else:
                self._charge_comm(remote_invoke_cost(
                    self.reactions.link, event.arg_bytes, event.ret_bytes
                ))
            self.result.remote_invocations += 1
            self.result.remote_bytes += nbytes
            if event.is_native:
                self.result.remote_native_invocations += 1
        caller_node = self._node_for(event.caller_class, event.caller_oid)
        callee_node = self._node_for(event.callee_class, event.callee_oid)
        self._recorder.record_interaction(caller_node, callee_node, nbytes)
        self._charge_monitoring(exec_site)

    def _replay_access(self, event: AccessEvent) -> None:
        accessor_site = self._site_for(event.accessor_class,
                                       event.accessor_oid)
        if event.is_static:
            owner_site = CLIENT
        else:
            owner_site = self._site_for(event.owner_class, event.owner_oid)
        remote = owner_site != accessor_site
        if self._cache is not None and event.is_write:
            # Any write (local or remote) makes a cached copy on the
            # other site stale.
            key = self._cache_key(event)
            if key is not None:
                self._cache.invalidate(key)
        if remote:
            cached = False
            if self._cache is not None and not event.is_write:
                key = self._cache_key(event)
                cached = key is not None and self._cache.note_read(key)
            lost = (
                not cached
                and self._coalescer is None
                and not self._exchange()
            )
            if lost:
                # Surrogate lost mid-access: recovery has repatriated
                # the owner, so the access completes locally, uncharged.
                remote = False
                owner_site = self._site_for(event.owner_class,
                                            event.owner_oid)
            if cached or lost:
                # Served from the reading site's copy (or resolved
                # locally after recovery): no round trip, zero bytes on
                # the wire — a local read, cost-wise.
                pass
            elif self._coalescer is not None:
                if event.is_write:
                    self._coalescer.write(accessor_site, owner_site,
                                          event.nbytes)
                else:
                    self._coalescer.read(accessor_site, owner_site,
                                         event.nbytes)
                self.result.remote_accesses += 1
                self.result.remote_bytes += event.nbytes
            else:
                self._charge_comm(remote_access_cost(
                    self.reactions.link, event.nbytes, event.is_write
                ))
                self.result.remote_accesses += 1
                self.result.remote_bytes += event.nbytes
        accessor_node = self._node_for(event.accessor_class,
                                       event.accessor_oid)
        owner_node = self._node_for(event.owner_class, event.owner_oid)
        self._recorder.record_interaction(accessor_node, owner_node,
                                          event.nbytes)
        self._charge_monitoring(owner_site)

    def _replay_work(self, event: WorkEvent) -> None:
        site = self._site_for(event.class_name, event.oid)
        self._charge_cpu(site, event.seconds)
        self.graph.add_cpu(event.class_name, event.seconds)
