"""Fault parity: the batched replay loop against the per-event oracle.

Loss, surrogate crashes, partitions and roaming all run inside the one
batched loop (``TraceReplayer.run``): every uncached remote exchange
goes through the retry ladder, a surrogate death mid-access or
mid-invoke re-resolves sites, and reattachment after a healed partition
is polled on the clock.  Each scenario replays dia and javanote through
that loop and through :class:`ReferenceReplayer`, and demands
bit-identical fingerprints and execution graphs.
"""

import dataclasses

import pytest

from repro.config import PC_SURROGATE
from repro.emulator.replay import TraceReplayer
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.net.faults import FaultSpec
from repro.net.mobility import NAMED_PROFILES, MobilityConfig
from repro.rpc.batch import DataPlaneConfig

from tests.emulator.reference_replay import ReferenceReplayer

APPS = ["dia", "javanote"]
SCENARIOS = [
    "loss", "loss-dp", "crash-event-dp", "crash-time", "short-partition",
    "long-partition", "roam-handoff", "roam-repatriate",
]


def trace_for(app_name):
    return cached_trace(app_name, MEMORY_WORKLOADS[app_name])


def base_config():
    """Section 5.1 replay config with a 3.5x surrogate and a per-event
    monitoring charge: monitoring is billed at the resolved site's
    speed, so a site resolved wrongly after a surrogate death shows up
    on the clock."""
    return dataclasses.replace(memory_emulator_config(),
                               surrogate=PC_SURROGATE,
                               monitoring_event_cost=2e-6)


def scenario_config(name, trace, offload_time):
    """One faulty configuration.  Crashes and partitions are placed
    after the clean run's first offload, so they hit live remote
    traffic rather than an all-local client."""
    base = base_config()
    plane = dataclasses.replace(base, data_plane=DataPlaneConfig.enabled())
    roam = NAMED_PROFILES["wavelan-wan-roam"]
    after = offload_time
    return {
        "loss": lambda: base.with_faults(FaultSpec(seed=5, loss_rate=0.05)),
        "loss-dp": lambda: plane.with_faults(
            FaultSpec(seed=5, loss_rate=0.05)),
        # Coalesced exchanges read ``events_processed`` for the crash
        # verdict, so the loop must spill its event count before them.
        "crash-event-dp": lambda: plane.with_faults(
            FaultSpec(seed=5, crash_at_event=int(len(trace) * 0.7))),
        "crash-time": lambda: base.with_faults(
            FaultSpec(seed=5, crash_at_time=after + 15.0)),
        # Shorter than the retry ladder's give-up time: waited out.
        "short-partition": lambda: base.with_faults(FaultSpec(
            seed=5, partition_windows=((after + 10.0, after + 10.25),))),
        # Outlasts the ladder: the surrogate is declared dead, then
        # reattached once the clock passes the window's end.
        "long-partition": lambda: base.with_faults(FaultSpec(
            seed=5, partition_windows=((after + 1.0, after + 11.0),))),
        "roam-handoff": lambda: base.with_profile(
            roam, MobilityConfig(mode="handoff")),
        "roam-repatriate": lambda: base.with_profile(
            roam, MobilityConfig(mode="repatriate")),
    }[name]()


@pytest.fixture(scope="module")
def offload_times():
    return {
        app: TraceReplayer(trace_for(app), base_config())
        .run().offloads[0].time
        for app in APPS
    }


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batched_loop_matches_reference(offload_times, app_name, scenario):
    trace = trace_for(app_name)
    config = scenario_config(scenario, trace, offload_times[app_name])
    batched = TraceReplayer(trace, config)
    reference = ReferenceReplayer(trace, config)
    result = batched.run()
    assert result.fingerprint() == reference.run().fingerprint()
    assert batched.graph.to_dict() == reference.graph.to_dict()

    # The scenario must really have exercised its fault path.
    faults = result.faults
    if scenario.startswith("loss"):
        assert faults.retries > 0
    elif scenario.startswith("crash"):
        assert faults.surrogate_lost and faults.lost_reason == "crash"
        assert result.offload_count >= 1
    elif scenario == "short-partition":
        assert faults.partition_waits >= 1 and not faults.surrogate_lost
    elif scenario == "long-partition":
        assert faults.lost_reason == "partition"
        assert faults.rediscoveries == 1
    else:
        assert result.mobility.link_changes > 0
