"""Batched execution-graph recording.

Both sides of the system build the section 3.4 execution graph from
the same stream of events: the live
:class:`~repro.core.monitor.ExecutionMonitor` from the VM's hooks, the
trace replayer from a recorded trace.  Both write it through one
:class:`GraphRecorder`:

* Nodes are interned ints.  A class node is interned by name on first
  sight (the replay loop interns its trace's whole string table up
  front, so a class id is its string id); under object granularity an
  object node gets the next free id the first time its oid is seen.
* An edge is the int key ``lo << 32 | hi`` of its two node ids.
* Once a node or edge has gone through one of the graph's public entry
  points, the recorder caches the graph's own
  :class:`~repro.core.graph.NodeStats`/:class:`~repro.core.graph.EdgeStats`
  object and later events add straight onto it.
* What the current *segment* touched is reported to the graph as dirty
  in one :meth:`~repro.core.graph.ExecutionGraph.note_updated` call when
  the segment ends (:meth:`GraphRecorder.flush`).  Writers flush before
  anything reads the graph.

A first sight goes through the graph's public entry point at the moment
a per-event writer would have made the call, which keeps node and edge
creation order and the graph's own error checks; negative CPU seconds
and allocation sizes always take the public path, so they raise there.
Stats are added in event order with the same arithmetic as the public
entry points, so a recorded graph is equal, value for value and in
insertion order, to one written a call per event.  Only the graph's
``version`` differs: it advances once per segment, not once per call.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional

from .graph import EdgeStats, ExecutionGraph, NodeStats, edge_key, object_node_id

#: Mask of the higher node id in an edge key.
LOW32 = (1 << 32) - 1


class GraphRecorder:
    """Writes events into an :class:`ExecutionGraph`, batched by segment.

    ``granular`` names the classes whose instances get their own graph
    node (the section 5.2 "Array" enhancement); the set is read, not
    copied, so later changes to it take effect.

    The replay loop reads and writes the public attributes through
    local aliases: ``names``, ``node_stats``, the two ``segment_*``
    dicts and the pending same-pair run (``pend_key``, ``pend_bytes``,
    ``pend_count``; ``pend_key`` is -1 when no run is pending).
    """

    def __init__(self, graph: ExecutionGraph,
                 granular: AbstractSet[str] = frozenset()) -> None:
        self.graph = graph
        self.granular = granular
        #: Node id -> graph node name.
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: oid -> node id of an object tracked at object granularity.
        self.object_nodes: Dict[int, int] = {}
        #: The graph's own stats objects, by node id / edge key.
        self.node_stats: Dict[int, NodeStats] = {}
        self.edge_stats: Dict[int, EdgeStats] = {}
        #: What the current segment touched.
        self.segment_nodes: Dict[int, NodeStats] = {}
        self.segment_edges: Dict[int, EdgeStats] = {}
        # Run-length buffer: consecutive interactions over one node pair
        # add up here and reach the edge as one batch (replay only).
        self.pend_key = -1
        self.pend_bytes = 0
        self.pend_count = 0

    # -- naming -----------------------------------------------------------

    def intern(self, name: str) -> int:
        """Node id of the node called ``name``, interning it if new."""
        node = self._ids.get(name)
        if node is None:
            node = len(self.names)
            self.names.append(name)
            self._ids[name] = node
        return node

    def intern_table(self, names: Iterable[str]) -> None:
        """Append a string table as nodes, so that on an empty recorder
        the id of ``names[i]`` is ``i`` (the replay loop's class ids are
        its trace's string ids)."""
        for name in names:
            self._ids.setdefault(name, len(self.names))
            self.names.append(name)

    def intern_object(self, class_node: int, oid: int) -> int:
        """Give the object ``oid`` of class node ``class_node`` its own
        node id (first sight of an object-granularity object)."""
        node = len(self.names)
        self.names.append(object_node_id(self.names[class_node], oid))
        self.object_nodes[oid] = node
        return node

    def node(self, class_name: str, oid: Optional[int]) -> int:
        """Node id of an instance of ``class_name`` (``oid`` None for a
        class-level actor): its class node, or its own node when the
        class is tracked at object granularity."""
        node = self._ids.get(class_name)
        if node is None:
            node = self.intern(class_name)
        if oid is not None and class_name in self.granular:
            obj = self.object_nodes.get(oid)
            return obj if obj is not None else self.intern_object(node, oid)
        return node

    # -- named events (the live monitor) ------------------------------------

    def interaction(self, a_class: str, a_oid: Optional[int],
                    b_class: str, b_oid: Optional[int], nbytes: int) -> None:
        """One interaction moving ``nbytes`` between two actors.

        Interactions within one node are not recorded (paper: only
        interactions between two different classes are).
        """
        ids = self._ids
        u = ids.get(a_class)
        v = ids.get(b_class)
        if u is None or v is None or self.granular:
            u = self.node(a_class, a_oid)
            v = self.node(b_class, b_oid)
        if u != v:
            key = u << 32 | v if u < v else v << 32 | u
            edge = self.segment_edges.get(key)
            if edge is None:
                self.add_edge(key, nbytes, 1)
            else:
                edge.count += 1
                edge.bytes += nbytes

    def cpu(self, class_name: str, seconds: float) -> None:
        """Reference CPU seconds charged to ``class_name``."""
        self.add_cpu(self.node(class_name, None), seconds)

    def alloc(self, class_name: str, oid: int, size: int) -> None:
        """An object of ``size`` bytes was created."""
        self.add_object(self.node(class_name, oid), size)

    def free(self, class_name: str, oid: int, size: int) -> None:
        """An object of ``size`` bytes was reclaimed.

        A free whose node is not in the graph (a warm-start profile that
        never saw the class allocate) changes nothing.
        """
        node = self.node(class_name, oid)
        stats = self.node_stats.get(node)
        if stats is None or stats.memory_bytes < size:
            # Unknown node, or memory would go negative: the public
            # path checks for the node and raises on negative memory.
            name = self.names[node]
            graph = self.graph
            if not graph.has_node(name):
                return
            graph.add_memory(name, -size)
            graph.note_object_freed(name)
            stats = graph.node(name)
            self.node_stats[node] = stats
        else:
            stats.memory_bytes -= size
            stats.live_objects -= 1
        self.segment_nodes[node] = stats

    def merge(self, profile: ExecutionGraph) -> None:
        """Fold an interaction profile into the graph: its nodes, CPU
        totals and edge traffic, through the public entry points (so
        every touched node and edge is dirty at once).  Live-memory
        annotations in the profile are ignored."""
        graph = self.graph
        for node_id in profile.nodes():
            stats = profile.node(node_id)
            graph.ensure_node(node_id)
            if stats.cpu_seconds:
                graph.add_cpu(node_id, stats.cpu_seconds)
        for (a, b), edge in profile.edges():
            graph.record_interaction(a, b, edge.bytes, count=edge.count)

    # -- interned events (first sights and segment misses) ------------------

    def add_edge(self, key: int, nbytes: int, count: int) -> None:
        """Add a run of ``count`` interactions to an edge."""
        stats = self.edge_stats.get(key)
        if stats is None:
            names = self.names
            a, b = names[key >> 32], names[key & LOW32]
            if a > b:
                a, b = b, a
            self.graph.record_interaction(a, b, nbytes, count=count)
            stats = self.graph.edge(a, b)
            self.edge_stats[key] = stats
        else:
            stats.count += count
            stats.bytes += nbytes
        self.segment_edges[key] = stats

    def add_cpu(self, node: int, seconds: float) -> None:
        """Add CPU to a node (negative time raises, via the graph)."""
        stats = self.node_stats.get(node)
        if stats is None or seconds < 0:
            name = self.names[node]
            self.graph.add_cpu(name, seconds)
            stats = self.graph.node(name)
            self.node_stats[node] = stats
        else:
            stats.cpu_seconds += seconds
        self.segment_nodes[node] = stats

    def add_object(self, node: int, size: int) -> None:
        """Add a created object of ``size`` bytes to a node."""
        stats = self.node_stats.get(node)
        if stats is None or size < 0:
            name = self.names[node]
            self.graph.add_memory(name, size)
            self.graph.note_object_created(name)
            stats = self.graph.node(name)
            self.node_stats[node] = stats
        else:
            stats.memory_bytes += size
            stats.live_objects += 1
            stats.created_objects += 1
        self.segment_nodes[node] = stats

    def ensure_node(self, node: int) -> None:
        self.node_stats[node] = self.graph.ensure_node(self.names[node])

    def flush(self) -> None:
        """End the segment: apply the pending run and report every node
        and edge the segment touched to the graph."""
        if self.pend_key >= 0:
            self.add_edge(self.pend_key, self.pend_bytes, self.pend_count)
            self.pend_key = -1
            self.pend_bytes = 0
            self.pend_count = 0
        nodes, edges = self.segment_nodes, self.segment_edges
        if nodes or edges:
            names = self.names
            self.graph.note_updated(
                [names[n] for n in nodes],
                [edge_key(names[k >> 32], names[k & LOW32]) for k in edges],
            )
            nodes.clear()
            edges.clear()
