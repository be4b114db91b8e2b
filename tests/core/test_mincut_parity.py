"""Parity: the heap-based flat kernel vs the O(V^2) reference oracle.

The packed-key heap in ``core.flatgraph`` must be a pure optimisation —
on any graph it has to emit the *identical* candidate sequence (same
node sets, same cut statistics, same float CPU columns, same order) as
the original implementation in ``reference_mincut``, which re-scans
every surrogate node per move.
"""

import random

import pytest

from repro.core.graph import ExecutionGraph
from tests.core.reference_mincut import flat_candidates, reference_candidates


def random_graph(seed, node_count, edge_factor, with_cpu=False):
    """A seeded random graph; ``edge_factor`` scales edge density."""
    rng = random.Random(seed)
    graph = ExecutionGraph()
    nodes = [f"n{i:03d}" for i in range(node_count)]
    for node in nodes:
        graph.add_memory(node, rng.randrange(0, 10_000))
        if with_cpu:
            graph.add_cpu(node, rng.random() * 5.0)
    edge_count = int(node_count * edge_factor)
    for _ in range(edge_count):
        a, b = rng.sample(nodes, 2)
        graph.record_interaction(
            a, b, rng.randrange(1, 5_000), count=rng.randrange(1, 20)
        )
    return graph, nodes


# 20 seeded scenarios: (seed, node_count, edge_factor, pinned_stride).
# pinned_stride 0 means no pinned seeds (most-connected-node seeding).
SCENARIOS = [
    (1, 5, 1.0, 1),
    (2, 8, 0.5, 0),
    (3, 8, 3.0, 2),
    (4, 12, 1.5, 0),
    (5, 12, 4.0, 3),
    (6, 20, 0.2, 0),
    (7, 20, 2.0, 4),
    (8, 20, 6.0, 1),
    (9, 30, 1.0, 0),
    (10, 30, 3.0, 5),
    (11, 40, 0.5, 0),
    (12, 40, 2.5, 7),
    (13, 50, 1.0, 10),
    (14, 50, 5.0, 0),
    (15, 60, 0.1, 0),
    (16, 60, 2.0, 6),
    (17, 75, 1.5, 0),
    (18, 75, 4.0, 15),
    (19, 90, 0.8, 9),
    (20, 90, 3.5, 0),
]


@pytest.mark.parametrize("seed,node_count,edge_factor,pinned_stride",
                         SCENARIOS)
def test_heap_generator_matches_oracle(seed, node_count, edge_factor,
                                       pinned_stride):
    with_cpu = seed % 2 == 0
    graph, nodes = random_graph(seed, node_count, edge_factor,
                                with_cpu=with_cpu)
    if pinned_stride:
        pinned = nodes[::pinned_stride]
    else:
        pinned = []

    actual = flat_candidates(graph, pinned)
    expected = reference_candidates(graph, pinned)

    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got.client_nodes == want.client_nodes, index
        assert got.surrogate_nodes == want.surrogate_nodes, index
        assert got.cut_count == want.cut_count, index
        assert got.cut_bytes == want.cut_bytes, index
        assert got.surrogate_memory == want.surrogate_memory, index
        assert got.surrogate_cpu == want.surrogate_cpu, index
        assert got.client_cpu == want.client_cpu, index


def test_parity_on_disconnected_graph():
    graph = ExecutionGraph()
    graph.record_interaction("a", "b", 100, count=3)
    graph.record_interaction("c", "d", 50, count=2)
    graph.add_memory("e", 10)  # isolated node, no edges at all
    for node in ("a", "b", "c", "d"):
        graph.add_memory(node, 1000)

    assert flat_candidates(graph, ["a"]) == reference_candidates(graph, ["a"])
