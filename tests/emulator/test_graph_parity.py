"""Graph-state parity: the replay loop's graph against the oracle's.

The batched loop records into the execution graph through interned
node ids and cached stats objects, and reports what each segment
touched only when the partitioner or the end of the run reads the
graph.  :class:`ReferenceReplayer` records every run and every event
through the graph's public entry points.  After a replay the two
graphs must hold the same nodes and edges in the same insertion order
with exactly equal values, and every partition epoch must have drained
the same dirty nodes and edges.
"""

import dataclasses

import pytest

from repro.config import EnhancementFlags
from repro.emulator.events import InvokeEvent, WorkEvent
from repro.emulator.replay import TraceReplayer
from repro.errors import PartitioningError

from tests.emulator.reference_replay import ReferenceReplayer
from tests.emulator.test_fault_parity import (
    APPS,
    base_config,
    scenario_config,
    trace_for,
)
from tests.emulator.test_replay import config, make_trace

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
