"""The scan-based fleet serving simulation: the fleet parity oracle.

This is the straightforward reading of the serving model that
``repro.emulator.fleet`` shipped before its event loop was indexed:
every event asks every member for its next completion (a ``min`` over
that member's active sessions), and heap-pressure eviction filters all
N sessions for the member's idle residents.  The shipped simulation
keeps completion heaps and an idle-resident index instead, and must
produce the same outcomes bit for bit — every float in the same order —
so the parity suite runs seeded fleets through both and compares
fingerprints, per-surrogate counters, rebalances and makespan.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.emulator.fleet import (
    ADMISSION_QUEUE,
    ADMISSION_REJECT,
    ClientDemand,
    ClientOutcome,
    FleetConfig,
    SurrogateStats,
)


class ReferenceSession:
    """Mutable per-client simulation state."""

    __slots__ = (
        "demand", "outcome", "surrogate", "bursts_left", "burst_quanta",
        "remaining_s", "state", "enqueued_at", "vfinish", "resident",
        "evicted", "last_touch",
    )

    def __init__(self, demand: ClientDemand, outcome: ClientOutcome,
                 surrogate: "ReferenceMember", bursts: int,
                 quantum: float) -> None:
        self.demand = demand
        self.outcome = outcome
        self.surrogate = surrogate
        self.bursts_left = bursts
        per_burst = demand.service_s / bursts
        self.burst_quanta = max(1, math.ceil(per_burst / quantum))
        self.remaining_s = 0.0
        self.state = "pending"
        self.enqueued_at = 0.0
        self.vfinish = 0.0
        self.resident = False
        self.evicted = False
        self.last_touch = 0.0


class ReferenceMember:
    """One pool member: GPS service, admission queue, resident heap."""

    __slots__ = (
        "name", "index", "cap", "stats", "active", "queue",
        "resident_bytes", "vservice", "last_t", "speed",
    )

    def __init__(self, name: str, index: int, cap: int,
                 speed: float) -> None:
        self.name = name
        self.index = index
        self.cap = cap
        self.speed = speed
        self.stats = SurrogateStats(name=name)
        self.active: Dict[str, ReferenceSession] = {}
        self.queue: deque = deque()
        self.resident_bytes = 0
        self.vservice = 0.0
        self.last_t = 0.0

    def advance(self, t: float) -> None:
        """Accrue shared service up to virtual time ``t``."""
        if self.active and t > self.last_t:
            self.vservice += (
                (t - self.last_t) * self.speed / len(self.active)
            )
        self.last_t = t

    def next_completion(self) -> Tuple[float, Optional[str]]:
        if not self.active:
            return math.inf, None
        cid, session = min(
            self.active.items(), key=lambda item: (item[1].vfinish, item[0])
        )
        owed = max(0.0, session.vfinish - self.vservice)
        return self.last_t + owed * len(self.active) / self.speed, cid


class ReferenceFleetSimulation:
    """Deterministic virtual-time run of the shared pool."""

    def __init__(self, demands: List[ClientDemand],
                 placement: Dict[str, str],
                 config: FleetConfig) -> None:
        self.config = config
        names = [f"surrogate-{i:02d}" for i in range(config.surrogates)]
        self.members = [
            ReferenceMember(
                name, index,
                cap=(max(1, config.admission_cap)
                     if config.admission_policy == ADMISSION_QUEUE
                     else config.admission_cap),
                speed=config.surrogate_speed,
            )
            for index, name in enumerate(names)
        ]
        by_name = {member.name: member for member in self.members}
        self.sessions: Dict[str, ReferenceSession] = {}
        self.outcomes: List[ClientOutcome] = []
        for demand in sorted(demands, key=lambda d: d.client_id):
            member = by_name[placement[demand.client_id]]
            outcome = ClientOutcome(
                client_id=demand.client_id, surrogate=member.name,
                events=demand.events, demand_s=demand.service_s,
                replay_sha=demand.replay_sha,
            )
            self.sessions[demand.client_id] = ReferenceSession(
                demand, outcome, member, config.bursts_per_client,
                config.service_quantum_s,
            )
            member.stats.clients_placed += 1
            self.outcomes.append(outcome)
        #: Pending wake events: (time, sequence, client_id).  The
        #: sequence breaks ties deterministically (insertion order).
        self._wakes: List[Tuple[float, int, str]] = []
        self._wake_seq = 0
        self.rebalances = 0
        self._imbalance_streak = 0
        self.makespan_s = 0.0

    # -- event plumbing ---------------------------------------------------

    def _schedule_wake(self, t: float, client_id: str) -> None:
        heapq.heappush(self._wakes, (t, self._wake_seq, client_id))
        self._wake_seq += 1

    def run(self) -> None:
        for cid in sorted(self.sessions):
            self._schedule_wake(0.0, cid)
        while True:
            wake_t = self._wakes[0][0] if self._wakes else math.inf
            done_t = math.inf
            done_member: Optional[ReferenceMember] = None
            for member in self.members:
                t, cid = member.next_completion()
                if t < done_t:
                    done_t, done_member = t, member
            if done_t is math.inf and wake_t is math.inf:
                break
            # Completions run first at equal times: a freed slot must
            # be visible to an admission decision at the same instant.
            if done_t <= wake_t:
                self._complete_one(done_member, done_t)
                self._maybe_rebalance(done_t)
            else:
                t, _, cid = heapq.heappop(self._wakes)
                self._arrive(self.sessions[cid], t)

    # -- admission, service, eviction -------------------------------------

    def _arrive(self, session: ReferenceSession, t: float) -> None:
        """One burst arrival (first touch, think-over, or re-touch)."""
        member = session.surrogate
        if len(member.active) < member.cap:
            self._admit(session, t)
            return
        if self.config.admission_policy == ADMISSION_REJECT:
            outcome = session.outcome
            outcome.rejected = True
            outcome.reject_reason = (
                f"{member.name} at capacity {self.config.admission_cap}"
            )
            member.stats.rejections += 1
            session.state = "rejected"
            self._release_partition(session)
            return
        session.state = "queued"
        session.enqueued_at = t
        member.queue.append(session.demand.client_id)
        if len(member.queue) > member.stats.peak_queue:
            member.stats.peak_queue = len(member.queue)

    def _admit(self, session: ReferenceSession, t: float) -> None:
        member = session.surrogate
        member.advance(t)
        demand_quanta = session.burst_quanta
        if session.evicted:
            # The partition was repatriated under heap pressure: the
            # next touch re-offloads it before any service happens.
            demand_quanta += max(
                1, math.ceil(session.demand.reoffload_s
                             / self.config.service_quantum_s)
            ) if session.demand.reoffload_s > 0.0 else 0
            session.outcome.readmissions += 1
            session.evicted = False
        if not session.resident:
            self._make_room(member, session)
            session.resident = True
            member.resident_bytes += session.demand.partition_bytes
            if member.resident_bytes > member.stats.peak_resident_bytes:
                member.stats.peak_resident_bytes = member.resident_bytes
        if session.state == "queued":
            session.outcome.admission_wait_s += t - session.enqueued_at
        session.state = "active"
        session.remaining_s = (
            demand_quanta * self.config.service_quantum_s
        )
        session.outcome.quanta_served += demand_quanta
        member.stats.quanta_served += demand_quanta
        session.vfinish = member.vservice + session.remaining_s
        session.last_touch = t
        member.active[session.demand.client_id] = session
        member.stats.admissions += 1
        if len(member.active) > member.stats.peak_active:
            member.stats.peak_active = len(member.active)

    def _make_room(self, member: ReferenceMember,
                   incoming: ReferenceSession) -> None:
        """Evict coldest idle partitions until the watermark holds."""
        limit = (self.config.eviction_watermark
                 * self.config.heap_capacity)
        needed = member.resident_bytes + incoming.demand.partition_bytes
        if needed <= limit:
            return
        idle = sorted(
            (
                s for s in self.sessions.values()
                if s.surrogate is member and s.resident
                and s.state in ("idle", "queued")
            ),
            key=lambda s: (s.last_touch, s.demand.client_id),
        )
        for victim in idle:
            if needed <= limit:
                break
            # Zero-wire repatriation (the surrogate-loss recovery
            # path): dropping a cold partition costs nothing now; the
            # owner pays the re-offload on its next touch.
            victim.resident = False
            victim.evicted = True
            victim.outcome.evictions += 1
            member.resident_bytes -= victim.demand.partition_bytes
            member.stats.evictions += 1
            needed -= victim.demand.partition_bytes
        if needed > limit:
            member.stats.watermark_breaches += 1

    def _release_partition(self, session: ReferenceSession) -> None:
        if session.resident:
            session.surrogate.resident_bytes -= (
                session.demand.partition_bytes
            )
            session.resident = False

    def _complete_one(self, member: ReferenceMember, t: float) -> None:
        member.advance(t)
        cid, session = min(
            member.active.items(),
            key=lambda item: (item[1].vfinish, item[0]),
        )
        del member.active[cid]
        session.last_touch = t
        session.bursts_left -= 1
        if session.bursts_left <= 0:
            session.state = "done"
            session.outcome.completed = True
            session.outcome.completion_s = t
            member.stats.completions += 1
            self._release_partition(session)
            if t > self.makespan_s:
                self.makespan_s = t
        else:
            session.state = "idle"
            self._schedule_wake(t + self.config.think_time_s, cid)
        self._drain_queue(member, t)

    def _drain_queue(self, member: ReferenceMember, t: float) -> None:
        while member.queue and len(member.active) < member.cap:
            cid = member.queue.popleft()
            session = self.sessions[cid]
            self._admit(session, t)

    # -- rebalancing -------------------------------------------------------

    def _maybe_rebalance(self, t: float) -> None:
        if len(self.members) < 2:
            return
        depths = [len(member.queue) for member in self.members]
        spread = max(depths) - min(depths)
        if spread < self.config.rebalance_threshold:
            self._imbalance_streak = 0
            return
        self._imbalance_streak += 1
        if self._imbalance_streak < self.config.rebalance_patience:
            return
        self._imbalance_streak = 0
        longest = max(self.members,
                      key=lambda m: (len(m.queue), -m.index))
        shortest = min(self.members,
                       key=lambda m: (len(m.queue), m.index))
        to_move = spread // 2
        moved = 0
        # Pull movable clients (no partition resident on the loaded
        # member) off the tail — the youngest arrivals lose the least
        # accumulated queue position.
        kept: deque = deque()
        while longest.queue and moved < to_move:
            cid = longest.queue.pop()
            session = self.sessions[cid]
            if session.resident:
                kept.appendleft(cid)
                continue
            session.surrogate = shortest
            session.outcome.surrogate = shortest.name
            longest.stats.clients_placed -= 1
            shortest.stats.clients_placed += 1
            shortest.queue.append(cid)
            if len(shortest.queue) > shortest.stats.peak_queue:
                shortest.stats.peak_queue = len(shortest.queue)
            moved += 1
        longest.queue.extend(kept)
        if moved:
            self.rebalances += 1
            self._drain_queue(shortest, t)
