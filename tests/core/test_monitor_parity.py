"""Live monitoring parity: the shipped monitor against the per-event one.

The shipped :class:`~repro.core.monitor.ExecutionMonitor` records
through the shared, segment-deferred graph recorder and, when no other
subscriber needs them, receives invocations and accesses without hook
records.  :class:`ReferenceExecutionMonitor` makes one public graph
call per event.  Each of the benchmark's nine ``live`` cases runs once
with each monitor; the two runs must give identical reports and
counters, graphs with the same nodes and edges in the same insertion
order and exactly equal stats, and the same dirty nodes and edges
drained at every snapshot.
"""

import pytest

from repro.config import VMConfig
from repro.core.graph import ExecutionGraph
from repro.core.monitor import ExecutionMonitor
from repro.emulator import FaultSpec, TraceRecorder
from repro.emulator.columnar import TAG_ACCESS, TAG_INVOKE
from repro.emulator.recorder import RECORDING_DEVICE
from repro.platform import platform as platform_module
from repro.rpc.batch import DataPlaneConfig
from repro.vm.context import ExecutionContext
from repro.vm.hooks import AccessRecord, ExecutionListener, InvokeRecord
from repro.vm.session import LocalSession

from tests.core.reference_monitor import ReferenceExecutionMonitor
from tests.helpers import perfbench_workloads

APPS = ["dia", "javanote", "biomer"]
VARIANTS = ["off", "dp", "loss"]


def live_kwargs(app_name, variant, seed=1):
    """The platform options of the benchmark's ``live`` case."""
    workloads = perfbench_workloads()
    if variant == "dp":
        return {"data_plane": DataPlaneConfig.enabled()}
    if variant == "loss":
        return {"faults": FaultSpec(
            seed=workloads.fault_seed(seed, f"live/{app_name}"),
            loss_rate=workloads.LOSS_RATE)}
    return {}


class AttachAtFirstGC(ExecutionListener):
    """Subscribes a trace recorder mid-run, at the first GC report."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.recorder = None

    def on_gc_report(self, report, site):
        if self.recorder is None:
            self.recorder = TraceRecorder()
            self.hooks.add(self.recorder)


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (still calling through)."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def run_live(monkeypatch, monitor_class, app_name, variant,
             attach_recorder=False):
    workloads = perfbench_workloads()
    monkeypatch.setattr(platform_module, "ExecutionMonitor", monitor_class)
    platform = workloads.live_platform(**live_kwargs(app_name, variant))
    assert type(platform.monitor) is monitor_class
    monitor = platform.monitor
    deltas = []
    snapshot = monitor.snapshot

    def recording_snapshot():
        snap = snapshot()
        delta = monitor.last_snapshot_delta
        deltas.append((delta.nodes, delta.edges))
        return snap

    monitor.snapshot = recording_snapshot
    attach = None
    if attach_recorder:
        attach = AttachAtFirstGC(platform.hooks)
        platform.hooks.add(attach)
    report = platform.run(workloads.app_factories(1)[app_name]())
    return platform, report, deltas, attach


def assert_same_run(shipped, reference):
    (platform, report, deltas, _), (ref_platform, ref_report, ref_deltas,
                                    _) = shipped, reference
    assert report == ref_report
    assert platform.monitor.counters == ref_platform.monitor.counters
    assert platform.monitor.remote == ref_platform.monitor.remote
    graph, ref_graph = platform.monitor.graph, ref_platform.monitor.graph
    # Exact values (NodeStats/EdgeStats compare field by field, floats
    # included) in insertion order.
    assert list(graph.node_items()) == list(ref_graph.node_items())
    assert list(graph.edges()) == list(ref_graph.edges())
    assert deltas == ref_deltas
    assert deltas, "the run never took a snapshot"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("app_name", APPS)
def test_shipped_monitor_matches_reference(monkeypatch, app_name, variant):
    shipped = run_live(monkeypatch, ExecutionMonitor,
                       app_name, variant)
    reference = run_live(monkeypatch, ReferenceExecutionMonitor,
                         app_name, variant)
    assert_same_run(shipped, reference)
    assert shipped[1].offload_count >= 1


def test_records_come_back_when_a_recorder_subscribes_mid_run(monkeypatch):
    access_records = count_calls(monkeypatch, AccessRecord, "__init__")
    invoke_records = count_calls(monkeypatch, InvokeRecord, "__init__")
    shipped = run_live(monkeypatch, ExecutionMonitor,
                       "dia", "off", attach_recorder=True)
    built = access_records[0], invoke_records[0]
    reference = run_live(monkeypatch, ReferenceExecutionMonitor,
                         "dia", "off", attach_recorder=True)
    assert_same_run(shipped, reference)
    platform, _, _, attach = shipped
    # The recorder needs records: the fan-out stopped offering the
    # record-free forms once it subscribed...
    assert platform.hooks.accessed is None
    assert platform.hooks.invoked is None
    # ...and it saw the rest of the run, as it does under the reference.
    # (Object ids come from a process-wide counter, so they differ
    # between the two runs; every other column must match.)
    columns = attach.recorder.trace.column_lists()
    ref_columns = reference[3].recorder.trace.column_lists()
    assert len(columns["tags"]) > 0
    for name in ("tags", "a_cls", "b_cls", "k_id", "flags", "n1", "n2",
                 "f64"):
        assert columns[name] == ref_columns[name], name
    # Records were built for exactly the accesses and invocations the
    # recorder saw, none before it subscribed.
    tags = columns["tags"]
    assert built == (tags.count(TAG_ACCESS), tags.count(TAG_INVOKE))
    assert min(built) > 0


class TestMonitoringCost:
    """Deterministic counts of the live monitoring path's work."""

    def test_platform_listeners_alone_build_no_records(self, monkeypatch):
        access_records = count_calls(monkeypatch, AccessRecord, "__init__")
        invoke_records = count_calls(monkeypatch, InvokeRecord, "__init__")
        interactions = count_calls(monkeypatch, ExecutionGraph,
                                   "record_interaction")
        cpu_calls = count_calls(monkeypatch, ExecutionGraph, "add_cpu")
        charges = count_calls(monkeypatch, ExecutionContext,
                              "_charge_monitoring_event")
        platform, report, _, _ = run_live(
            monkeypatch, ExecutionMonitor, "dia", "off")
        counters = platform.monitor.counters
        assert counters.interaction_events > 10_000
        assert report.offload_count >= 1
        assert access_records[0] == 0
        assert invoke_records[0] == 0
        # First sights only (this platform merges no profile): at most
        # one public call per distinct edge, and per node for CPU.
        graph = platform.monitor.graph
        assert 0 < interactions[0] <= graph.link_count
        assert 0 < cpu_calls[0] <= graph.node_count
        # monitoring_event_cost=0.0: no per-event charge call at all.
        assert charges[0] == 0

    def test_positive_event_cost_is_charged_per_event(self, monkeypatch):
        charges = count_calls(monkeypatch, ExecutionContext,
                              "_charge_monitoring_event")
        config = VMConfig(device=RECORDING_DEVICE)
        assert config.monitoring_event_cost > 0
        session = LocalSession(config)
        monitor = ExecutionMonitor()
        session.add_listener(monitor)
        app = perfbench_workloads().app_factories(1)["biomer"]()
        app.install(session.registry)
        app.main(session.ctx)
        counters = monitor.counters
        assert counters.interaction_events > 0
        assert charges[0] == (counters.interaction_events
                              + counters.objects_created)
