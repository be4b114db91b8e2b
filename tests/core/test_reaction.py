"""The reaction controller against a recording site."""

import gc
import math
import weakref

import pytest

from repro.core.reaction import ReactionController, ReactionSite
from repro.errors import ConfigurationError, MigrationError, PlatformError
from repro.net.faults import FaultSchedule, FaultSpec
from repro.net.mobility import LinkProfile, MobilityConfig
from repro.net.wavelan import WAN_384KBPS, WAVELAN_11MBPS
from repro.rpc.retry import RetryPolicy


class RecordingSite(ReactionSite):
    """Logs every primitive the controller drives, in order."""

    def __init__(self, offloaded=frozenset(), roams=True, feasible=True):
        self.time = 0.0
        self.calls = []
        self.offloaded = frozenset(offloaded)
        self.roams = roams
        self.feasible = feasible
        self.controller = None

    @property
    def elapsed(self):
        return self.time

    def drop_in_flight(self):
        self.calls.append("drop")

    def invalidate_reads(self):
        self.calls.append("invalidate")

    def suspend_offloading(self):
        self.calls.append("suspend")

    def resume_offloading(self):
        self.calls.append("resume")

    def repatriate_unreachable(self):
        self.calls.append("repatriate")
        return 3, 300

    def forget_surrogate(self):
        self.calls.append("forget")

    def warm_offload(self):
        self.calls.append("offload")
        return "warm"

    def use_link(self, link):
        self.calls.append(("link", link.name))

    def roam(self, backhaul):
        self.calls.append("roam")
        if self.roams:
            self.controller.handed_off(100, 0.5)
        return self.roams

    def offloaded_nodes(self):
        return self.offloaded

    def place(self, offload_nodes):
        if not self.feasible:
            raise MigrationError("client cannot host it")
        self.calls.append(("place", tuple(sorted(offload_nodes))))
        self.offloaded = frozenset(offload_nodes)
        return 42


def faulty(site, spec):
    return ReactionController(
        site, WAVELAN_11MBPS, faults=spec,
        schedule=FaultSchedule(spec), retry=RetryPolicy(),
        charge=lambda s: setattr(site, "time", site.time + s),
    )


def roaming(site, spec, mode="handoff"):
    controller = ReactionController(
        site, WAVELAN_11MBPS,
        link_profile=LinkProfile.parse(spec),
        mobility=MobilityConfig(mode=mode, window=2),
    )
    site.controller = controller
    return controller


class TestDegradation:
    def test_loss_runs_the_ladder_in_order(self):
        site = RecordingSite()
        controller = faulty(site, FaultSpec(seed=1, crash_at_time=1.0))
        site.time = 2.0
        assert not controller.delivery.attempt()
        assert site.calls == ["drop", "invalidate", "suspend", "repatriate",
                              "forget"]
        report = controller.fault_report
        assert (report.recoveries, report.objects_repatriated,
                report.repatriated_bytes) == (1, 3, 300)
        assert controller.lost_at == site.time
        # A crash does not heal by itself.
        assert controller.reattach_at is None
        assert controller.next_poll_at == math.inf

    def test_partition_death_schedules_reattachment(self):
        site = RecordingSite()
        controller = faulty(
            site, FaultSpec(seed=1, partition_windows=((1.0, 5.0),)))
        site.time = 1.5
        assert not controller.delivery.attempt()
        lost_at = controller.lost_at
        assert controller.reattach_at == 5.0
        assert controller.next_poll_at == 5.0
        site.time = 4.0
        controller.poll()
        assert controller.peer_dead
        site.time = 5.0
        controller.poll()
        assert not controller.peer_dead
        assert site.calls[-2:] == ["resume", "offload"]
        report = controller.fault_report
        assert report.rediscoveries == 1
        assert report.downtime_s == 5.0 - lost_at
        assert controller.next_poll_at == math.inf

    def test_rediscover_needs_a_lost_surrogate(self):
        site = RecordingSite()
        controller = faulty(site, FaultSpec(seed=1))
        with pytest.raises(PlatformError):
            controller.rediscover()


class TestMobility:
    def test_mobility_needs_a_profile(self):
        with pytest.raises(ConfigurationError):
            ReactionController(RecordingSite(), WAVELAN_11MBPS,
                               mobility=MobilityConfig())

    def test_profile_owns_the_link_and_the_poll_deadline(self):
        site = RecordingSite()
        controller = roaming(site, "step=0:wan,step=5:wavelan")
        assert controller.link is WAN_384KBPS
        assert controller.next_poll_at == 5.0
        site.time = 4.9
        assert controller.poll() is None
        assert site.calls == []

    def test_handoff_restarts_the_epoch_and_resets_the_trend(self):
        site = RecordingSite()
        controller = roaming(site, "step=0:wavelan,step=5:wan")
        site.time = 6.0
        assert controller.poll() == "fire"
        assert site.calls == [("link", "wan-384kbps"), "roam",
                              ("link", WAVELAN_11MBPS.name)]
        report = controller.mobility_report
        assert (report.trend_fires, report.handoffs, report.handoff_bytes,
                report.link_changes) == (1, 1, 100, 2)
        assert controller.epoch_start == 6.0
        assert controller.next_poll_at == 11.0
        # The reset trigger neither recovers on the fresh link nor
        # remembers the old decay; the next decay fires afresh.
        site.time = 11.0
        assert controller.poll() == "fire"

    def test_no_target_falls_back_to_repatriation_then_reoffload(self):
        site = RecordingSite(offloaded={"a.B"}, roams=False)
        controller = roaming(site, "step=0:wavelan,step=5:wan,step=8:wavelan")
        site.time = 5.0
        assert controller.poll() == "fire"
        assert site.calls[1:] == ["roam", ("place", ())]
        report = controller.mobility_report
        assert report.proactive_repatriations == 1
        assert report.proactively_repatriated_bytes == 42
        site.time = 8.0
        assert controller.poll() == "recover"
        assert site.calls[-1] == ("place", ("a.B",))
        assert report.reoffloads == 1

    def test_repatriation_needs_something_offloaded_and_room(self):
        for site in (RecordingSite(),
                     RecordingSite(offloaded={"a.B"}, feasible=False)):
            controller = roaming(site, "step=0:wavelan,step=5:wan",
                                 mode="repatriate")
            site.time = 5.0
            assert controller.poll() == "fire"
            assert controller.mobility_report.proactive_repatriations == 0


def test_the_controller_does_not_keep_its_site_alive():
    # A side owns its controller; were the reference back strong, every
    # finished replay would linger until the next cyclic collection.
    gc.disable()
    try:
        site = RecordingSite()
        site.controller = ReactionController(site, WAVELAN_11MBPS)
        ref = weakref.ref(site)
        del site
        assert ref() is None
    finally:
        gc.enable()
