"""Graph-state parity: the replay loop's graph against the oracle's.

The batched loop records into the execution graph through interned
node ids and cached stats objects, and reports what each segment
touched only when the partitioner or the end of the run reads the
graph.  :class:`ReferenceReplayer` records every run and every event
through the graph's public entry points.  After a replay the two
graphs must hold the same nodes and edges in the same insertion order
with exactly equal values, and every partition epoch must have drained
the same dirty nodes and edges.

The live monitor writes through the same recorder, so a live prototype
run and the replay of its own recorded trace must agree on the
interaction structure and CPU profile too.
"""

import dataclasses

import pytest

from repro.config import EnhancementFlags
from repro.emulator import record_application
from repro.emulator.events import InvokeEvent, WorkEvent
from repro.emulator.replay import MAIN, TraceReplayer
from repro.errors import PartitioningError
from repro.experiments.common import memory_emulator_config

from tests.emulator.reference_replay import ReferenceReplayer
from tests.emulator.test_fault_parity import (
    APPS,
    base_config,
    scenario_config,
    trace_for,
)
from tests.emulator.test_replay import config, make_trace
from tests.helpers import perfbench_workloads

#: Fault-parity scenarios, one of each kind, plus clean replays.
FAULT_SCENARIOS = ["loss", "crash-time", "long-partition", "roam-handoff"]


def reevaluating(flags=EnhancementFlags()):
    """Global placement re-evaluated every 2 s: many partition epochs,
    each draining the dirty sets of one recording segment."""
    return dataclasses.replace(base_config(), single_shot=False,
                               reevaluate_every=2.0, flags=flags)


def replay_recording_deltas(replayer):
    """Run ``replayer``, returning the (nodes, edges) of every drain."""
    graph = replayer.graph
    drain = graph.drain_dirty
    deltas = []

    def recording_drain():
        delta = drain()
        deltas.append((delta.nodes, delta.edges))
        return delta

    graph.drain_dirty = recording_drain
    result = replayer.run()
    return result, deltas


def assert_same_graph(trace, config):
    batched = TraceReplayer(trace, config)
    reference = ReferenceReplayer(trace, config)
    result, deltas = replay_recording_deltas(batched)
    expected, expected_deltas = replay_recording_deltas(reference)
    assert result.fingerprint() == expected.fingerprint()
    # Exact values (NodeStats/EdgeStats compare field by field, floats
    # included) in insertion order.
    assert list(batched.graph.node_items()) == list(
        reference.graph.node_items())
    assert list(batched.graph.edges()) == list(reference.graph.edges())
    assert deltas == expected_deltas
    return batched, result, deltas


@pytest.fixture(scope="module")
def offload_times():
    return {
        app: TraceReplayer(trace_for(app), base_config())
        .run().offloads[0].time
        for app in APPS
    }


@pytest.mark.parametrize("app_name", APPS)
def test_clean_replay(app_name):
    batched, _, deltas = assert_same_graph(trace_for(app_name), base_config())
    assert deltas
    assert any(stats.cpu_seconds > 0
               for _, stats in batched.graph.node_items())


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("scenario", FAULT_SCENARIOS)
def test_faulty_replay(offload_times, app_name, scenario):
    trace = trace_for(app_name)
    assert_same_graph(
        trace, scenario_config(scenario, trace, offload_times[app_name]))


@pytest.mark.parametrize("granular", [False, True])
def test_every_epoch_drains_the_same_delta(granular):
    flags = EnhancementFlags(arrays_object_granularity=granular)
    batched, result, deltas = assert_same_graph(trace_for("dia"),
                                                reevaluating(flags))
    assert result.reeval.epochs > 10
    assert len(deltas) == result.reeval.epochs
    if granular:
        assert any("#" in node for node in batched.graph.nodes())


class TestNegativeWork:
    """Negative CPU time still raises through the graph's entry point."""

    @pytest.mark.parametrize("replayer", [TraceReplayer, ReferenceReplayer])
    def test_first_work_event_of_a_class(self, replayer):
        trace = make_trace([WorkEvent("app.Engine", None, -1.0)])
        with pytest.raises(PartitioningError):
            replayer(trace, config()).run()

    @pytest.mark.parametrize("replayer", [TraceReplayer, ReferenceReplayer])
    def test_later_work_event_of_a_class(self, replayer):
        trace = make_trace([
            WorkEvent("app.Engine", None, 2.0),
            InvokeEvent("app.Engine", None, "app.Data", None, "run",
                        "virtual", False, 8, 4),
            WorkEvent("app.Engine", None, 1.0),
            WorkEvent("app.Engine", None, -0.5),
        ])
        with pytest.raises(PartitioningError):
            replayer(trace, config()).run()


@pytest.mark.parametrize("app_name", ["dia", "javanote", "biomer"])
def test_live_graph_matches_the_replayed_trace(app_name):
    """A live prototype run's graph against the replayed graph of the
    trace recorded from the same app (the benchmark's seed-1 apps and
    its 6 MB section 5.1 platform; the 5.1 emulator configuration)."""
    workloads = perfbench_workloads()
    factory = workloads.app_factories(1)[app_name]
    platform = workloads.live_platform()
    platform.run(factory())
    live = platform.monitor.graph
    replayer = TraceReplayer(record_application(factory()),
                             memory_emulator_config())
    replayer.run()
    replayed = replayer.graph
    # Interactions and CPU are placement-independent, so they must
    # agree exactly.  Memory and the live/created object columns are
    # left out: they follow GC timing, and a live two-heap run
    # collects on different events than the replay's emulated
    # collector does.
    assert [(key, edge.count, edge.bytes) for key, edge in live.edges()] \
        == [(key, edge.count, edge.bytes) for key, edge in replayed.edges()]
    # The replayer creates <main> first; elsewhere node order agrees.
    assert [n for n in live.nodes() if n != MAIN] \
        == [n for n in replayed.nodes() if n != MAIN]
    assert set(live.nodes()) == set(replayed.nodes())
    assert {n: s.cpu_seconds for n, s in live.node_items()} \
        == {n: s.cpu_seconds for n, s in replayed.node_items()}
    assert live.link_count > 10
