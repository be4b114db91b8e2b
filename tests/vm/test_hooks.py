"""Unit tests for the hook fanout."""

from repro.vm.gc import GCReport
from repro.vm.hooks import (
    AccessRecord,
    ExecutionListener,
    HookFanout,
    InvokeRecord,
)
from repro.vm.objectmodel import ClassBuilder, JObject, MethodDef


class Recorder(ExecutionListener):
    def __init__(self):
        self.calls = []

    def on_alloc(self, obj, site):
        self.calls.append(("alloc", obj.oid, site))

    def on_free(self, obj):
        self.calls.append(("free", obj.oid))

    def on_invoke(self, record):
        self.calls.append(("invoke", record.method))

    def on_invoke_enter(self, callee_class, method, site):
        self.calls.append(("enter", callee_class))

    def on_access(self, record):
        self.calls.append(("access", record.field))

    def on_cpu(self, class_name, site, seconds):
        self.calls.append(("cpu", class_name, seconds))

    def on_gc_report(self, report, site):
        self.calls.append(("gc", report.cycle))

    def on_offload(self, class_names, nbytes, site_from, site_to):
        self.calls.append(("offload", tuple(class_names), site_from, site_to))


def sample_invoke():
    return InvokeRecord(
        caller_class="a", caller_oid=None, callee_class="b",
        callee_oid=None, method="m", kind="instance",
        native_stateless=False, arg_bytes=0, ret_bytes=0,
        cpu_seconds=0.0, caller_site="client", exec_site="client",
        remote=False,
    )


def sample_access():
    return AccessRecord(
        accessor_class="a", accessor_oid=None, owner_class="b",
        owner_oid=None, field="f", value_bytes=8, is_write=False,
        is_static=False, accessor_site="client", exec_site="client",
        remote=False,
    )


class TestHookFanout:
    def test_broadcast_order_and_coverage(self):
        fanout = HookFanout()
        first, second = Recorder(), Recorder()
        fanout.add(first)
        fanout.add(second)
        obj = JObject(ClassBuilder("t.A").build(), "client")
        fanout.on_alloc(obj, "client")
        fanout.on_free(obj)
        fanout.on_invoke(sample_invoke())
        fanout.on_invoke_enter("b", MethodDef("m"), "client")
        fanout.on_access(sample_access())
        fanout.on_cpu("t.A", "client", 0.5)
        fanout.on_gc_report(
            GCReport(cycle=1, reason="t", live_objects=0,
                     freed_objects=0, freed_bytes=0, used_bytes=0,
                     free_bytes=1, capacity=1), "client")
        fanout.on_offload(["t.A"], 100, "client", "surrogate")
        assert first.calls == second.calls
        assert [c[0] for c in first.calls] == [
            "alloc", "free", "invoke", "enter", "access", "cpu", "gc",
            "offload",
        ]

    def test_remove_stops_delivery(self):
        fanout = HookFanout()
        listener = Recorder()
        fanout.add(listener)
        fanout.remove(listener)
        fanout.on_cpu("t.A", "client", 1.0)
        assert listener.calls == []

    def test_base_listener_methods_are_noops(self):
        listener = ExecutionListener()
        listener.on_cpu("x", "client", 1.0)
        listener.on_invoke(sample_invoke())
        listener.on_access(sample_access())
        listener.on_offload([], 0, "a", "b")

    def test_invoke_record_native_flag(self):
        record = sample_invoke()
        assert not record.is_native

    def test_single_listener_fast_path(self):
        fanout = HookFanout()
        listener = Recorder()
        fanout.add(listener)
        fanout.on_invoke(sample_invoke())
        fanout.on_cpu("t.A", "client", 0.5)
        fanout.on_access(sample_access())
        assert [c[0] for c in listener.calls] == ["invoke", "cpu", "access"]

    def test_fast_path_tracks_add_and_remove(self):
        fanout = HookFanout()
        first, second = Recorder(), Recorder()
        fanout.add(first)
        fanout.add(second)  # two listeners: broadcast path
        fanout.on_cpu("t.A", "client", 1.0)
        fanout.remove(first)  # back to one: fast path again
        fanout.on_cpu("t.B", "client", 2.0)
        fanout.remove(second)  # zero listeners: nothing delivered
        fanout.on_cpu("t.C", "client", 3.0)
        assert first.calls == [("cpu", "t.A", 1.0)]
        assert second.calls == [("cpu", "t.A", 1.0), ("cpu", "t.B", 2.0)]


class CpuOnly(ExecutionListener):
    def __init__(self):
        self.seconds = []

    def on_cpu(self, class_name, site, seconds):
        self.seconds.append(seconds)


class RecordFree(ExecutionListener):
    """Takes invocations and accesses with or without a record."""

    def __init__(self):
        self.calls = []

    def on_invoke(self, record):
        self.invoked(record.caller_class, record.caller_oid,
                     record.callee_class, record.callee_oid,
                     record.arg_bytes + record.ret_bytes, record.remote,
                     record.is_native)

    def invoked(self, *fields):
        self.calls.append(("invoke",) + fields)

    def on_access(self, record):
        self.accessed(record.accessor_class, record.accessor_oid,
                      record.owner_class, record.owner_oid,
                      record.value_bytes, record.remote, record.cached)

    def accessed(self, *fields):
        self.calls.append(("access",) + fields)


class TestPerHookBinding:
    def test_hooks_reach_only_listeners_that_override_them(self):
        fanout = HookFanout()
        cpu = CpuOnly()
        fanout.add(ExecutionListener())
        fanout.add(cpu)
        assert fanout.on_cpu == cpu.on_cpu
        fanout.on_cpu("t.A", "client", 0.5)
        fanout.on_invoke(sample_invoke())  # nobody listens: a no-op
        assert cpu.seconds == [0.5]

    def test_record_free_forms_need_every_consumer_to_offer_them(self):
        fanout = HookFanout()
        assert fanout.accessed is not None  # nobody consumes accesses
        first, second = RecordFree(), RecordFree()
        fanout.add(first)
        fanout.add(CpuOnly())  # consumes neither hook
        assert fanout.accessed == first.accessed
        assert fanout.invoked == first.invoked
        fanout.add(second)
        fanout.accessed("a", None, "b", 7, 8, True, False)
        assert first.calls == second.calls == [
            ("access", "a", None, "b", 7, 8, True, False)]
        recorder = Recorder()
        fanout.add(recorder)  # needs records
        assert fanout.accessed is None
        assert fanout.invoked is None
        fanout.on_access(sample_access())
        assert recorder.calls == [("access", "f")]
        assert second.calls[-1] == ("access", "a", None, "b", None, 8,
                                    False, False)
        fanout.remove(recorder)
        assert fanout.accessed is not None


class TestSlottedRecords:
    def test_records_have_no_instance_dict(self):
        assert not hasattr(sample_invoke(), "__dict__")
        assert not hasattr(sample_access(), "__dict__")

    def test_records_compare_by_value(self):
        assert sample_invoke() == sample_invoke()
        assert sample_access() == sample_access()
        assert hash(sample_invoke()) == hash(sample_invoke())
        assert sample_invoke() != sample_access()

    def test_record_repr_names_fields(self):
        text = repr(sample_invoke())
        assert text.startswith("InvokeRecord(")
        assert "method='m'" in text
