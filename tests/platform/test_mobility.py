"""Platform-level mobility: trend-triggered handoff and repatriation."""

import pytest

from repro.config import DeviceProfile, VMConfig
from repro.core.policy import OffloadPolicy
from repro.errors import ConfigurationError
from repro.experiments.common import CHAI_GC, CLIENT_6MB, SURROGATE_SAME_SPEED
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.net.faults import FaultSpec
from repro.net.mobility import WAVELAN_WAN_ROAM, LinkProfile, MobilityConfig
from repro.net.wavelan import ETHERNET_100MBPS, WAVELAN_11MBPS
from repro.platform.platform import DistributedPlatform
from repro.platform.discovery import SurrogateDirectory, SurrogateOffer
from repro.units import KB, MB

from tests.helpers import make_platform
from tests.platform.test_platform import HoarderApp, pressure_gc

DECAY = "step=0:wavelan,step=5:wan"
DECAY_AND_RECOVER = "step=0:wavelan,step=5:wan,step=10:wavelan"


def fresh_offer(name="fresh", speed=3.5):
    return SurrogateOffer(
        name=name,
        device=DeviceProfile(f"{name}-pc", cpu_speed=speed,
                             heap_capacity=64 * MB),
        link=WAVELAN_11MBPS,
    )


def roaming_platform(profile_spec, mode, directory=None, **kwargs):
    return make_platform(
        client_heap=128 * KB,
        gc=pressure_gc(),
        link_profile=LinkProfile.parse(profile_spec),
        mobility=MobilityConfig(mode=mode, window=2),
        directory=directory,
        **kwargs,
    )


class TestPollMobility:
    def test_static_profile_changes_nothing(self):
        platform = roaming_platform("step=0:wavelan", mode="handoff")
        platform.run(HoarderApp(segments=60))
        assert platform.poll_mobility() is None
        assert platform.mobility_report.link_changes == 0
        assert platform.link is WAVELAN_11MBPS

    def test_link_change_repoints_every_consumer(self):
        platform = roaming_platform(DECAY, mode="repatriate")
        platform.run(HoarderApp(segments=60))
        platform.clock.advance(6.0)
        platform.poll_mobility()
        assert platform.mobility_report.link_changes == 1
        assert platform.link.name == "wan-384kbps"
        assert platform.runtime.link is platform.link
        assert platform.migrator.link is platform.link


class TestAutomaticPolling:
    """The platform polls its reaction controller at guest-operation
    boundaries; no caller has to call ``poll_mobility()``."""

    def test_decay_during_the_run_hands_off_by_itself(self):
        directory = SurrogateDirectory()
        directory.advertise(fresh_offer())
        # The run offloads at ~0.09 s and ends at ~0.2 s: the link
        # decays in between, with live remote state to move.
        platform = roaming_platform("step=0:wavelan,step=0.12:wan",
                                    mode="handoff", directory=directory)
        first_surrogate = platform.surrogate.vm
        report = platform.run(HoarderApp(segments=60))
        assert report.offload_count == 1
        mobility = platform.mobility_report
        assert mobility.trend_fires == 1
        assert mobility.handoffs == 1
        assert mobility.handoff_bytes > 0
        assert platform.surrogate.vm is not first_surrogate
        doc = platform.ctx.get_global("doc")
        assert doc.home == platform.surrogate.vm.name

    def test_runs_without_a_profile_gain_no_listener(self):
        static = make_platform(client_heap=128 * KB, gc=pressure_gc())
        roaming = roaming_platform(DECAY, mode="handoff")
        assert len(roaming.hooks.listeners) == len(static.hooks.listeners) + 1

    def test_partition_windows_install_the_listener_up_front(self):
        static = make_platform()
        partitioned = make_platform(
            faults=FaultSpec(seed=1, partition_windows=((1.0, 2.0),)))
        lossy = make_platform(faults=FaultSpec(seed=1, loss_rate=0.1))
        assert len(partitioned.hooks.listeners) == (
            len(static.hooks.listeners) + 1)
        assert len(lossy.hooks.listeners) == len(static.hooks.listeners)

    @pytest.mark.parametrize("kwargs", [
        {"link_profile": LinkProfile.parse(DECAY)},
        {"faults": FaultSpec(seed=1, partition_windows=((1.0, 2.0),))},
    ])
    def test_polling_without_monitoring_fails_loudly(self, kwargs):
        # Boundaries are reported by the hooks, which monitoring gates.
        with pytest.raises(ConfigurationError):
            DistributedPlatform(
                client_config=VMConfig(device=CLIENT_6MB).with_monitoring(False),
                **kwargs,
            )

    def test_a_poll_keeps_an_unanchored_returned_object_alive(self):
        # The change point passes just before a factory returns a fresh,
        # unlinked object; the poll on that invocation's boundary
        # repatriates, and repatriation collects.
        platform = roaming_platform("step=0:wavelan,step=1000:wan",
                                    mode="repatriate")
        platform.run(HoarderApp(segments=30))
        assert platform.offloaded_nodes()
        platform.registry.define("factory.Maker").static_method(
            "make", func=lambda ctx, _: ctx.new("hoard.Segment"),
        ).register()
        platform.clock.advance(1000.0)
        made = platform.ctx.invoke_static("factory.Maker", "make")
        assert platform.mobility_report.proactive_repatriations == 1
        assert made.alive
        assert platform.ctx.get_field(made, "next") is None

    def test_profile_disconnections_fold_into_the_fault_spec(self):
        platform = make_platform(link_profile=WAVELAN_WAN_ROAM)
        assert platform.delivery is not None
        assert "partition=10:12" in platform.fault_report.spec

    def test_live_dia_roaming_diverges_from_the_static_run(self):
        def dia_run(**kwargs):
            platform = DistributedPlatform(
                client_config=VMConfig(device=CLIENT_6MB, gc=CHAI_GC,
                                       monitoring_event_cost=0.0),
                surrogate_config=VMConfig(device=SURROGATE_SAME_SPEED,
                                          gc=CHAI_GC,
                                          monitoring_event_cost=0.0),
                offload_policy=OffloadPolicy.initial(),
                **kwargs,
            )
            return platform, platform.run(MEMORY_WORKLOADS["dia"]())

        _, static = dia_run()
        directory = SurrogateDirectory()
        for name in ("cell-a", "cell-b"):
            directory.advertise(SurrogateOffer(
                name=name, device=SURROGATE_SAME_SPEED, link=WAVELAN_11MBPS,
            ))
        platform, roamed = dia_run(link_profile=WAVELAN_WAN_ROAM,
                                   mobility=MobilityConfig(mode="handoff"),
                                   directory=directory)
        assert platform.mobility_report.link_changes > 0
        assert platform.mobility_report.trend_fires >= 1
        assert platform.mobility_report.handoffs >= 1
        assert (roamed.elapsed, roamed.remote_invocations) != (
            static.elapsed, static.remote_invocations
        )

    def test_mobility_without_a_profile_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            make_platform(mobility=MobilityConfig(mode="handoff"))


class TestTrendHandoff:
    def test_decaying_link_hands_off_to_a_fresh_surrogate(self):
        directory = SurrogateDirectory()
        directory.advertise(fresh_offer())
        platform = roaming_platform(DECAY, mode="handoff",
                                    directory=directory)
        report = platform.run(HoarderApp(segments=60))
        assert report.offload_count == 1
        old_surrogate = platform.surrogate.vm
        moved = len(list(old_surrogate.heap.objects()))
        assert moved > 0

        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"

        new_surrogate = platform.surrogate.vm
        assert new_surrogate is not old_surrogate
        assert len(list(old_surrogate.heap.objects())) == 0
        assert len(list(new_surrogate.heap.objects())) == moved
        assert platform.mobility_report.handoffs == 1
        assert platform.mobility_report.handoff_bytes > 0
        # The handoff restarts the attachment epoch: the client is
        # adjacent to the new surrogate, so the profile resolves from
        # zero again, and the trend trigger resets instead of
        # recovering — the old cell's decay says nothing about the new.
        assert platform.link is WAVELAN_11MBPS
        assert platform.poll_mobility() is None
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"

    def test_execution_continues_on_the_new_surrogate(self):
        directory = SurrogateDirectory()
        directory.advertise(fresh_offer())
        platform = roaming_platform(DECAY, mode="handoff",
                                    directory=directory)
        platform.run(HoarderApp(segments=60))
        platform.clock.advance(6.0)
        platform.poll_mobility()
        doc = platform.ctx.get_global("doc")
        assert doc.home == platform.surrogate.vm.name

    def test_empty_directory_falls_back_to_best_effort_repatriation(self):
        # No surrogate to hand off to, and (memory-driven offload) the
        # 128 KB client cannot host the partition back: the platform
        # stays remote and rides the degraded link rather than crash.
        platform = roaming_platform(DECAY, mode="handoff",
                                    directory=SurrogateDirectory())
        platform.run(HoarderApp(segments=60))
        remote = len(list(platform.surrogate.vm.heap.objects()))
        assert remote > 0
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.handoffs == 0
        assert platform.mobility_report.proactive_repatriations == 0
        assert len(list(platform.surrogate.vm.heap.objects())) == remote


class TestTrendRepatriation:
    def offloaded_platform(self, profile_spec, **kwargs):
        """A hand-placed partition small enough to repatriate.

        Memory-*pressure* offloads are exactly the ones home cannot
        take back, so the feasible-repatriation cycle uses the paper's
        manual-partitioning framing: a 50 KB partition on a 128 KB
        client.
        """
        platform = roaming_platform(profile_spec, mode="repatriate",
                                    **kwargs)
        platform.run(HoarderApp(segments=12))
        outcome = platform._migrate(frozenset({"hoard.Segment", "char[]"}))
        assert outcome.moved_objects > 0
        return platform

    def test_decaying_link_pulls_state_home(self):
        platform = self.offloaded_platform(DECAY)
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.proactive_repatriations == 1
        assert platform.mobility_report.proactively_repatriated_bytes > 0
        assert len(list(platform.surrogate.vm.heap.objects())) == 0

    def test_recovered_link_restores_the_placement(self):
        platform = self.offloaded_platform(DECAY_AND_RECOVER)
        offloaded = len(list(platform.surrogate.vm.heap.objects()))
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        platform.clock.advance(5.0)
        assert platform.poll_mobility() == "recover"
        assert platform.mobility_report.reoffloads == 1
        assert len(list(platform.surrogate.vm.heap.objects())) == offloaded

    def test_no_reoffload_onto_a_dead_surrogate(self):
        platform = self.offloaded_platform(
            DECAY_AND_RECOVER, faults=FaultSpec(seed=5, crash_at_time=7.0),
        )
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        platform.clock.advance(2.0)
        assert not platform.delivery.attempt()
        assert platform.surrogate_lost
        platform.clock.advance(3.0)
        assert platform.poll_mobility() == "recover"
        assert platform.mobility_report.reoffloads == 0
        assert len(list(platform.surrogate.vm.heap.objects())) == 0

    def test_nothing_offloaded_means_no_repatriation(self):
        platform = roaming_platform(DECAY, mode="repatriate")
        report = platform.run(HoarderApp(segments=12))
        assert report.offload_count == 0
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.proactive_repatriations == 0

    def test_infeasible_repatriation_stays_remote(self):
        platform = roaming_platform(DECAY, mode="repatriate")
        platform.run(HoarderApp(segments=60))
        remote = len(list(platform.surrogate.vm.heap.objects()))
        assert remote > 0
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.proactive_repatriations == 0
        assert len(list(platform.surrogate.vm.heap.objects())) == remote
