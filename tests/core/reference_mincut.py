"""The O(V^2) reference of the modified MINCUT heuristic, for parity tests.

The shipped kernel (``repro.core.flatgraph``) runs on packed integer
keys, a lazy-deletion heap and a repairable move log.  This oracle is
the original, obviously-correct formulation: a per-move ``max()`` scan
over every surrogate node with eager node sets.  It must emit exactly
the candidate chain the kernel does — node sets, cut statistics and the
float CPU columns bit for bit — so the seed's resources are summed in
graph insertion order, as the kernel sums them.

Also home to small candidate helpers the tests share.
"""

from typing import Iterable, List, Optional

from repro.core import flatgraph
from repro.core.graph import ExecutionGraph
from repro.core.mincut import CandidatePartition
from repro.errors import PartitioningError


def reference_candidates(
    graph: ExecutionGraph, pinned: Iterable[str]
) -> List[CandidatePartition]:
    """Every intermediate partitioning of the heuristic, cold, O(V^2)."""
    nodes = set(graph.nodes())
    if not nodes:
        raise PartitioningError("cannot partition an empty execution graph")
    client = {node for node in pinned if node in nodes}
    if not client:
        client = {
            max(nodes,
                key=lambda n: (graph.connectivity(n, nodes - {n}), n))
        }
    surrogate = set(nodes) - client
    if not surrogate:
        return []

    total_memory = graph.total_memory()
    total_cpu = graph.total_cpu()
    cut_count, cut_bytes = graph.cut(frozenset(client))
    conn_bytes = {}
    conn_count = {}
    for node in surrogate:
        nbytes = ncount = 0
        for neighbor in graph.neighbors(node):
            if neighbor in client:
                edge = graph.edge(node, neighbor)
                nbytes += edge.bytes
                ncount += edge.count
        conn_bytes[node] = nbytes
        conn_count[node] = ncount

    seed = [node for node in graph.nodes() if node in client]
    client_memory = graph.total_memory(seed)
    client_cpu = graph.total_cpu(seed)

    candidates = []

    def record():
        candidates.append(CandidatePartition(
            client_nodes=client,
            surrogate_nodes=surrogate,
            cut_count=cut_count,
            cut_bytes=cut_bytes,
            surrogate_memory=total_memory - client_memory,
            surrogate_cpu=total_cpu - client_cpu,
            client_cpu=client_cpu,
        ))

    record()
    while len(surrogate) > 1:
        moved = max(
            surrogate,
            key=lambda n: (conn_bytes[n], conn_count[n], n),
        )
        surrogate.discard(moved)
        client.add(moved)
        client_memory += graph.node(moved).memory_bytes
        client_cpu += graph.node(moved).cpu_seconds
        cut_bytes -= conn_bytes.pop(moved)
        cut_count -= conn_count.pop(moved)
        for neighbor in graph.neighbors(moved):
            if neighbor in surrogate:
                edge = graph.edge(moved, neighbor)
                cut_bytes += edge.bytes
                cut_count += edge.count
                conn_bytes[neighbor] += edge.bytes
                conn_count[neighbor] += edge.count
        record()
    return candidates


def flat_candidates(
    graph: ExecutionGraph, pinned: Iterable[str]
) -> List[CandidatePartition]:
    """The shipped kernel's cold candidate chain, as a list."""
    return flatgraph.snapshot(graph).generate_chain(pinned).candidates()


def min_bandwidth_candidate(
    candidates: List[CandidatePartition],
) -> Optional[CandidatePartition]:
    """The candidate with the globally smallest cut bytes (no constraints)."""
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.cut_bytes, c.cut_count))
