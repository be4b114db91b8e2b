"""Partition records and the classic Stoer–Wagner global minimum cut.

The paper derives its heuristic from Stoer & Wagner's simple min-cut
algorithm: seed the client partition with every class that cannot be
offloaded (native methods), then repeatedly move the node with the
greatest connectivity to the client partition, recording *every*
intermediate partitioning.  The policy layer then evaluates all of the
candidates and picks the one that best satisfies the policy — which may
not be the global minimum cut, but will, for example, actually free
enough memory.

The heuristic itself runs in :mod:`repro.core.flatgraph`, on a flat
integer-indexed CSR snapshot of the graph.  This module holds what it
emits — :class:`CandidatePartition`, whose node sets are decoded lazily
from a shared move log — and the classic Stoer–Wagner global minimum
cut, kept both as the ancestry of the heuristic and as an ablation
baseline (it can return a cut that frees almost nothing, which is
precisely the paper's argument for the modification).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import PartitioningError
from .graph import ExecutionGraph


class _MaxOrderStr:
    """Reverses string ordering so heapq's min-heap pops the max id.

    Stoer–Wagner's maximum-adjacency ordering breaks connectivity ties
    towards the *largest* node id (the historical ``max()`` scan
    compared ``(conn, node)`` tuples); wrapping the id keeps that exact
    tie-break under heapq.
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_MaxOrderStr") -> bool:
        return self.value > other.value


class _MoveLog:
    """Shared move history behind one chain of lazy candidates.

    ``seed`` is the initial client partition; ``order`` lists every
    initially-surrogate node in the order it was moved to the client,
    with the never-moved remainder appended at the end.  Candidate ``i``
    of the chain is then ``client = seed | order[:i]``,
    ``surrogate = order[i:]`` — O(V) storage for the whole chain instead
    of O(V^2) worth of per-candidate frozensets.
    """

    __slots__ = ("seed", "order")

    def __init__(self, seed: FrozenSet[str]) -> None:
        self.seed = seed
        self.order: List[str] = []


class CandidatePartition:
    """One intermediate partitioning produced by the heuristic.

    ``client_nodes`` stay on the device; ``surrogate_nodes`` would be
    offloaded.  The cut statistics are the historical interactions that
    would become remote under this placement.

    Node sets of candidates decoded from a
    :class:`~repro.core.flatgraph.FlatChain` are materialised lazily on
    first access (most candidates are only ever judged by their scalar
    cut statistics); explicitly constructed instances behave like the
    plain record they always were.
    """

    __slots__ = (
        "cut_count",
        "cut_bytes",
        "surrogate_memory",
        "surrogate_cpu",
        "client_cpu",
        "_client_nodes",
        "_surrogate_nodes",
        "_log",
        "_moves_applied",
    )

    def __init__(
        self,
        client_nodes: Iterable[str],
        surrogate_nodes: Iterable[str],
        cut_count: int,
        cut_bytes: int,
        surrogate_memory: int,
        surrogate_cpu: float,
        client_cpu: float,
    ) -> None:
        self._client_nodes: Optional[FrozenSet[str]] = frozenset(client_nodes)
        self._surrogate_nodes: Optional[FrozenSet[str]] = frozenset(
            surrogate_nodes
        )
        self._log: Optional[_MoveLog] = None
        self._moves_applied = 0
        self.cut_count = cut_count
        self.cut_bytes = cut_bytes
        self.surrogate_memory = surrogate_memory
        self.surrogate_cpu = surrogate_cpu
        self.client_cpu = client_cpu

    @classmethod
    def _deferred(
        cls,
        log: _MoveLog,
        moves_applied: int,
        cut_count: int,
        cut_bytes: int,
        surrogate_memory: int,
        surrogate_cpu: float,
        client_cpu: float,
    ) -> "CandidatePartition":
        self = cls.__new__(cls)
        self._client_nodes = None
        self._surrogate_nodes = None
        self._log = log
        self._moves_applied = moves_applied
        self.cut_count = cut_count
        self.cut_bytes = cut_bytes
        self.surrogate_memory = surrogate_memory
        self.surrogate_cpu = surrogate_cpu
        self.client_cpu = client_cpu
        return self

    @property
    def client_nodes(self) -> FrozenSet[str]:
        nodes = self._client_nodes
        if nodes is None:
            log = self._log
            nodes = log.seed.union(log.order[: self._moves_applied])
            self._client_nodes = nodes
        return nodes

    @property
    def surrogate_nodes(self) -> FrozenSet[str]:
        nodes = self._surrogate_nodes
        if nodes is None:
            nodes = frozenset(self._log.order[self._moves_applied:])
            self._surrogate_nodes = nodes
        return nodes

    @property
    def offloads_anything(self) -> bool:
        if self._surrogate_nodes is not None:
            return bool(self._surrogate_nodes)
        return len(self._log.order) > self._moves_applied

    def _fields(self) -> tuple:
        return (
            self.client_nodes,
            self.surrogate_nodes,
            self.cut_count,
            self.cut_bytes,
            self.surrogate_memory,
            self.surrogate_cpu,
            self.client_cpu,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidatePartition):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            "CandidatePartition("
            f"client_nodes={set(self.client_nodes)!r}, "
            f"surrogate_nodes={set(self.surrogate_nodes)!r}, "
            f"cut_count={self.cut_count}, cut_bytes={self.cut_bytes}, "
            f"surrogate_memory={self.surrogate_memory}, "
            f"surrogate_cpu={self.surrogate_cpu}, "
            f"client_cpu={self.client_cpu})"
        )


def stoer_wagner(graph: ExecutionGraph) -> Tuple[int, FrozenSet[str]]:
    """Classic Stoer–Wagner global minimum cut (weight = edge bytes).

    Returns ``(cut_bytes, partition)`` where ``partition`` is one side of
    the minimum cut.  Used as an ablation baseline: the unmodified
    algorithm is free to return a cut that isolates a single node and
    frees almost no memory.

    Contractions are carried out on per-vertex adjacency maps, so each
    maximum-adjacency phase walks only real edges (heap-ordered) and a
    merge touches only the merged vertex's neighbors instead of every
    active vertex pair.
    """
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise PartitioningError("minimum cut requires at least two nodes")

    # Contractible per-vertex weight maps (vertex -> neighbor -> bytes).
    adjacency: Dict[str, Dict[str, int]] = {n: {} for n in nodes}
    for (a, b), edge in graph.edges():
        adjacency[a][b] = edge.bytes
        adjacency[b][a] = edge.bytes

    groups: Dict[str, Set[str]] = {n: {n} for n in nodes}
    # An insertion-ordered dict, so each phase walks vertices in a
    # hash-independent order.
    active: Dict[str, None] = dict.fromkeys(nodes)

    best_cut = None
    best_partition: FrozenSet[str] = frozenset()

    while len(active) > 1:
        # Minimum cut phase (maximum adjacency ordering), drawn from a
        # lazy-deletion heap with the historical (conn, node) tie-break.
        order = []
        conn: Dict[str, int] = {n: 0 for n in active}
        remaining = set(active)
        heap = [(0, _MaxOrderStr(n)) for n in active]
        heapq.heapify(heap)
        while remaining:
            while True:
                neg_conn, wrapped = heapq.heappop(heap)
                nxt = wrapped.value
                if nxt in remaining and conn[nxt] == -neg_conn:
                    break
            remaining.discard(nxt)
            order.append(nxt)
            for other, other_weight in adjacency[nxt].items():
                if other_weight and other in remaining:
                    connected = conn[other] + other_weight
                    conn[other] = connected
                    heapq.heappush(heap, (-connected, _MaxOrderStr(other)))
        last = order[-1]
        cut_of_phase = conn[last]
        if best_cut is None or cut_of_phase < best_cut:
            best_cut = cut_of_phase
            best_partition = frozenset(groups[last])
        # Merge the last two vertices of the ordering.
        merged_into = order[-2]
        groups[merged_into] |= groups[last]
        merged_adjacency = adjacency[merged_into]
        merged_adjacency.pop(last, None)
        for other, joining_weight in adjacency.pop(last).items():
            if other == merged_into:
                continue
            adjacency[other].pop(last, None)
            if joining_weight:
                combined = merged_adjacency.get(other, 0) + joining_weight
                merged_adjacency[other] = combined
                adjacency[other][merged_into] = combined
        del active[last]
    assert best_cut is not None
    return best_cut, best_partition
