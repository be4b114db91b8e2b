"""The reaction controller: fault recovery and mobility, written once.

The live platform and the emulator's replayer react to the same events
— the surrogate dying, a partition healing, the scheduled link
changing, its trend turning bad or recovering — and must react alike.
:class:`ReactionController` owns every decision and counter of those
reactions; each side implements :class:`ReactionSite`, the primitives
whose work really differs.  The controller is polled on the side's
virtual clock: until :attr:`ReactionController.next_poll_at`,
:meth:`ReactionController.poll` has no work.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, FrozenSet, Optional

from ..errors import ConfigurationError, MigrationError, PlatformError
from ..net.faults import FaultReport, FaultSchedule, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from ..rpc.retry import ReliableDelivery, RetryPolicy
from .policy import BandwidthTrendTrigger


class ReactionSite:
    """The primitives a side implements for the controller.

    ``elapsed`` is the side's virtual clock; ``drop_in_flight()`` drops
    the in-flight coalesced batch un-charged; ``invalidate_reads()``
    empties the read cache; ``repatriate_unreachable()`` rebuilds the
    surrogate's objects on the client at zero wire cost, returning
    ``(objects, bytes)``; ``warm_offload()`` runs a partitioning
    attempt; ``use_link(link)`` charges buffered traffic at old-link
    prices, then moves every cost consumer onto ``link``;
    ``roam(backhaul)`` hands the partition to another surrogate (booked
    via :meth:`ReactionController.handed_off`) or returns ``False``;
    ``offloaded_nodes()`` is the surrogate's placement; ``place(nodes)``
    applies one, returns the bytes moved, and may raise
    :class:`~repro.errors.MigrationError`.  The three methods below are
    optional.
    """

    def suspend_offloading(self) -> None:
        """Stop proposing placements."""

    def resume_offloading(self) -> None:
        """Placements may resume."""

    def forget_surrogate(self) -> None:
        """Drop what still refers to the lost surrogate."""


class ReactionController:
    """Surrogate death and rediscovery, the scheduled link, and the
    trend trigger's reactions, for one :class:`ReactionSite`.

    With a fault ``schedule`` the controller builds the side's
    :class:`~repro.rpc.retry.ReliableDelivery`, whose declared deaths
    land in :meth:`on_peer_lost`.  A ``link_profile`` owns the link from
    t=0 and resolves relative to the attachment epoch; ``mobility``
    adds the trend trigger, and needs a profile to react to.
    """

    def __init__(
        self,
        site: ReactionSite,
        link: LinkModel,
        *,
        faults: Optional[FaultSpec] = None,
        schedule: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        charge: Optional[Callable[[float], None]] = None,
        events: Optional[Callable[[], int]] = None,
        link_profile: Optional[LinkProfile] = None,
        mobility: Optional[MobilityConfig] = None,
    ) -> None:
        if mobility is not None and link_profile is None:
            raise ConfigurationError(
                "mobility needs a link profile whose trend it can react to"
            )
        # Weak, so a side that drops its last reference is freed at once
        # rather than at the next cyclic collection.
        self.site = weakref.proxy(site)
        self.fault_report = FaultReport(
            spec=faults.canonical() if faults is not None else ""
        )
        self.delivery: Optional[ReliableDelivery] = None
        if schedule is not None:
            self.delivery = ReliableDelivery(
                retry if retry is not None else RetryPolicy(),
                schedule=schedule, charge=charge, counters=self.fault_report,
                now=lambda: self.site.elapsed, events=events,
                on_peer_lost=self.on_peer_lost,
            )
        #: Start of the open surrogate loss, and when its partition heals.
        self.lost_at: Optional[float] = None
        self.reattach_at: Optional[float] = None

        self.link_profile = link_profile
        self.mobility = mobility
        self.link = link_profile.link_at(0.0) if link_profile else link
        self.epoch_start = 0.0
        self._next_change = (
            link_profile.next_change_after(0.0) if link_profile else math.inf
        )
        self.mobility_report: Optional[MobilityReport] = (
            MobilityReport(profile=link_profile.name) if link_profile else None
        )
        self.trend: Optional[BandwidthTrendTrigger] = None
        if mobility is not None:
            self.trend = BandwidthTrendTrigger(
                mobility.threshold_bps, horizon_s=mobility.horizon_s,
                window=mobility.window, restore_bps=mobility.restore_bps,
            )
        self._pending_reoffload: Optional[FrozenSet[str]] = None

    @property
    def next_poll_at(self) -> float:
        """The next profile change point or pending reattachment."""
        reattach = self.reattach_at
        if reattach is None or self._next_change <= reattach:
            return self._next_change
        return reattach

    # -- surrogate death and rediscovery -------------------------------------

    @property
    def peer_dead(self) -> bool:
        return self.delivery is not None and self.delivery.peer_dead

    def on_peer_lost(self, reason: str) -> None:
        """Degrade, inside the failed exchange: drop the in-flight batch,
        invalidate the read cache, suspend placements, rebuild the
        unreachable state client-side, then let the site clean up.  A
        partition-caused death reattaches when its window heals."""
        report = self.fault_report
        report.recoveries += 1
        self.lost_at = self.site.elapsed
        if reason == "partition":
            self.reattach_at = self.delivery.schedule.partition_until(
                self.lost_at)
        site = self.site
        site.drop_in_flight()
        site.invalidate_reads()
        site.suspend_offloading()
        objects, nbytes = site.repatriate_unreachable()
        report.objects_repatriated += objects
        report.repatriated_bytes += nbytes
        site.forget_surrogate()

    def close_downtime(self) -> None:
        if self.lost_at is not None:
            self.fault_report.downtime_s += self.site.elapsed - self.lost_at
            self.lost_at = None

    def rediscover(self, attempt_offload: bool = True):
        """Leave degraded mode: close the downtime window, revive the
        delivery layer (the crash latch disarms), resume placements and
        return the site's warm partitioning attempt — the graph kept
        growing while degraded."""
        if not self.peer_dead:
            raise PlatformError("no lost surrogate to rediscover")
        self.close_downtime()
        self.reattach_at = None
        self.delivery.revive()
        self.site.resume_offloading()
        self.fault_report.rediscoveries += 1
        return self.site.warm_offload() if attempt_offload else None

    # -- the clock -------------------------------------------------------------

    def poll(self) -> Optional[str]:
        """Re-resolve the link at a profile change point, then reattach a
        healed partition.  Returns the trend's action (``"fire"`` or
        ``"recover"``) or ``None``."""
        action = None
        if self.site.elapsed >= self._next_change:
            action = self._resolve_link()
        if (self.reattach_at is not None and self.peer_dead
                and self.site.elapsed >= self.reattach_at):
            self.rediscover()
        return action

    def _switch(self, link: LinkModel) -> None:
        if link != self.link:
            self.site.use_link(link)
            self.link = link
            if self.mobility_report is not None:
                self.mobility_report.link_changes += 1

    def _resolve_link(self) -> Optional[str]:
        # Disconnection windows live in the fault spec, not here.
        profile = self.link_profile
        self._switch(profile.link_at(self.site.elapsed - self.epoch_start))
        self._next_change = self.epoch_start + profile.next_change_after(
            self.site.elapsed - self.epoch_start
        )
        if self.trend is None:
            return None
        action = self.trend.observe(self.site.elapsed,
                                    self.link.bandwidth_bps)
        if action == "fire":
            self.mobility_report.trend_fires += 1
            if not (self.mobility.mode == "handoff"
                    and self.site.roam(self.mobility.backhaul)):
                self._repatriate()
        elif action == "recover":
            self._reoffload()
        return action

    # -- the trend's reactions -----------------------------------------------

    def handed_off(self, moved_bytes: int, seconds: float,
                   link: Optional[LinkModel] = None) -> None:
        """Book a completed handoff.  The client is adjacent to the new
        surrogate: a profile restarts from its t=0 link (without one the
        link becomes ``link``) and the trend forgets the old decay."""
        report = self.mobility_report
        if report is not None:
            report.handoffs += 1
            report.handoff_bytes += moved_bytes
            report.handoff_time_s += seconds
        self.epoch_start = self.site.elapsed
        profile = self.link_profile
        if profile is not None:
            self._switch(profile.link_at(0.0))
            self._next_change = self.site.elapsed + profile.next_change_after(0.0)
        elif link is not None:
            self._switch(link)
        if self.trend is not None:
            self.trend.reset()

    def _repatriate(self) -> None:
        """Best effort: pull the partition home while the link works and
        remember it.  A client that cannot host it stays remote."""
        placement = self.site.offloaded_nodes()
        if not placement:
            return
        try:
            moved = self.site.place(frozenset())
        except MigrationError:
            return
        self._pending_reoffload = placement
        self.mobility_report.proactive_repatriations += 1
        self.mobility_report.proactively_repatriated_bytes += moved

    def _reoffload(self) -> None:
        """The link came back: re-apply the remembered placement (repair,
        not a fresh policy evaluation) unless the surrogate is gone."""
        placement = self._pending_reoffload
        if placement is None or self.peer_dead:
            return
        self._pending_reoffload = None
        try:
            self.site.place(placement)
        except MigrationError:
            return
        self.mobility_report.reoffloads += 1


__all__ = ["ReactionController", "ReactionSite"]
