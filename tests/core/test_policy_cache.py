"""The policy-evaluation memo: LRU behaviour and hit/miss parity.

The memo cases run :func:`evaluate_chain_with_cache` over real
:class:`~repro.core.flatgraph.FlatChain` objects, the only shape the
partitioner feeds it.
"""

import pytest

from repro.core import flatgraph
from repro.core.graph import ExecutionGraph
from repro.core.mincut import CandidatePartition
from repro.core.policy import (
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    PartitionPolicy,
    PolicyEvaluationCache,
    context_key,
    evaluate_chain_with_cache,
)
from repro.errors import ConfigurationError, NoBeneficialPartitionError


def chain(prefix="", thin_edge=100):
    """A two-candidate chain: offload {a, b} (cut 300) or {b} (cut 100).

    ``prefix`` renames every node without touching a statistic;
    ``thin_edge`` sets the a-b edge, the cut of the second candidate.
    """
    graph = ExecutionGraph()
    ui, a, b = f"{prefix}ui", f"{prefix}a", f"{prefix}b"
    for node, memory, cpu in ((ui, 100, 2.0), (a, 500, 4.0), (b, 400, 4.0)):
        graph.add_memory(node, memory)
        graph.add_cpu(node, cpu)
    graph.record_interaction(ui, a, 300, count=3)
    graph.record_interaction(a, b, thin_edge)
    return flatgraph.FlatGraph.try_compile(graph).generate_chain([ui])


CTX = EvaluationContext(heap_capacity=1000, elapsed=10.0)


class TestCacheMechanics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            PolicyEvaluationCache(maxsize=0)

    def test_lru_eviction_order(self):
        cache = PolicyEvaluationCache(maxsize=2)
        cache.put("a", ("selected", 0))
        cache.put("b", ("selected", 1))
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", ("selected", 2))   # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_counts_hits_and_misses(self):
        cache = PolicyEvaluationCache()
        cache.get("missing")
        cache.put("k", ("selected", 0))
        cache.get("k")
        assert cache.misses == 1
        assert cache.hits == 1


class TestKeying:
    def test_fingerprint_covers_only_scalar_statistics(self):
        fp1 = chain().fingerprint()
        assert chain(prefix="other.").fingerprint() == fp1
        assert chain(thin_edge=101).fingerprint() != fp1

    def test_context_key_ignores_elapsed(self):
        base = EvaluationContext(heap_capacity=1000, elapsed=10.0)
        later = EvaluationContext(heap_capacity=1000, elapsed=99.0)
        assert context_key(base) == context_key(later)
        bigger = EvaluationContext(heap_capacity=2000, elapsed=10.0)
        assert context_key(base) != context_key(bigger)


class ForeignCandidatePolicy(PartitionPolicy):
    """A third-party policy that answers with a copy, not a chain member."""

    name = "foreign"

    def evaluate(self, candidates, ctx):
        best = candidates[-1]
        copy = CandidatePartition(
            best.client_nodes, best.surrogate_nodes, best.cut_count,
            best.cut_bytes, best.surrogate_memory, best.surrogate_cpu,
            best.client_cpu,
        )
        return MemoryPartitionPolicy(0.01).decision_for(copy, ctx)


class TestEvaluateWithCache:
    def test_hit_returns_byte_identical_decision(self):
        policy = MemoryPartitionPolicy(0.20)
        cache = PolicyEvaluationCache()
        cold = policy.evaluate(chain().candidates(), CTX)
        first, hit1 = evaluate_chain_with_cache(policy, chain(), CTX, cache)
        second, hit2 = evaluate_chain_with_cache(policy, chain(), CTX, cache)
        assert (hit1, hit2) == (False, True)
        assert cold.candidate.surrogate_nodes == frozenset({"b"})
        for decision in (first, second):
            assert decision.candidate == cold.candidate
            assert decision.predicted_bandwidth == cold.predicted_bandwidth
            assert decision.policy_name == cold.policy_name

    def test_hit_recomputes_bandwidth_against_current_context(self):
        policy = MemoryPartitionPolicy(0.20)
        cache = PolicyEvaluationCache()
        evaluate_chain_with_cache(policy, chain(), CTX, cache)
        later = EvaluationContext(heap_capacity=1000, elapsed=20.0)
        decision, hit = evaluate_chain_with_cache(policy, chain(), later,
                                                  cache)
        assert hit
        assert decision.predicted_bandwidth == pytest.approx(
            decision.candidate.cut_bytes / 20.0
        )

    def test_refusals_are_memoised_with_their_reason(self):
        policy = MemoryPartitionPolicy(0.99)  # nothing frees 99%
        cache = PolicyEvaluationCache()
        with pytest.raises(NoBeneficialPartitionError) as cold:
            evaluate_chain_with_cache(policy, chain(), CTX, cache)
        with pytest.raises(NoBeneficialPartitionError) as warm:
            evaluate_chain_with_cache(policy, chain(), CTX, cache)
        assert str(warm.value) == str(cold.value)
        assert cache.hits == 1

    def test_context_change_misses(self):
        policy = MemoryPartitionPolicy(0.20)
        cache = PolicyEvaluationCache()
        evaluate_chain_with_cache(policy, chain(), CTX, cache)
        # At a 2500-byte heap only the first candidate frees 20%.
        bigger = EvaluationContext(heap_capacity=2500, elapsed=10.0)
        decision, hit = evaluate_chain_with_cache(policy, chain(), bigger,
                                                  cache)
        assert not hit
        assert decision.candidate.surrogate_nodes == frozenset({"a", "b"})

    def test_different_policies_do_not_collide(self):
        cache = PolicyEvaluationCache()
        memory = MemoryPartitionPolicy(0.20)
        cpu = CpuPartitionPolicy()
        ctx = EvaluationContext(heap_capacity=1000, total_cpu=10.0,
                                elapsed=10.0, surrogate_speed=10.0)
        evaluate_chain_with_cache(memory, chain(), ctx, cache)
        decision, hit = evaluate_chain_with_cache(cpu, chain(), ctx, cache)
        assert not hit
        assert decision.policy_name == cpu.name

    def test_foreign_winner_is_not_memoised(self):
        policy = ForeignCandidatePolicy()
        cache = PolicyEvaluationCache()
        for _ in range(2):
            decision, hit = evaluate_chain_with_cache(policy, chain(), CTX,
                                                      cache)
            assert not hit
            assert decision.candidate.surrogate_nodes == frozenset({"b"})
        assert len(cache) == 0
        assert cache.misses == 2
