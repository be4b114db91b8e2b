"""Parity: the indexed fleet simulation against the scan-based oracle.

``_FleetSimulation`` finds the next completion through per-member
``(vfinish, client_id)`` heaps and a global ``(time, member index)``
heap, and finds eviction victims through a per-member idle-resident
index.  ``tests/emulator/reference_fleet.py`` is the same model with
plain scans.  Seeded random fleets run through both; every outcome
(via the fingerprint), every per-surrogate counter, the rebalance count
and the makespan must agree exactly.

Each scenario also asserts that the machinery it targets actually fired
(evictions, breaches, rebalances, rejections, ``vfinish`` ties), so a
scenario cannot silently stop covering what it is named for.
"""

import dataclasses
import random

import pytest

from repro.emulator.fleet import (
    ADMISSION_QUEUE,
    ADMISSION_REJECT,
    ClientDemand,
    FleetConfig,
    FleetResult,
    _FleetSimulation,
)
from repro.units import MB

from tests.emulator.reference_fleet import ReferenceFleetSimulation

SEEDS_PER_SCENARIO = 9


def _demands(rng, count, services, sizes, reoffloads):
    return [
        ClientDemand(
            client_id=f"c{index:04d}", events=rng.randrange(10, 1000),
            service_s=rng.choice(services) if services else
            rng.uniform(0.05, 5.0),
            partition_bytes=rng.choice(sizes),
            reoffload_s=rng.choice(reoffloads),
            predicted_load=1.0, replay_sha=f"sha-{index}",
        )
        for index in range(count)
    ]


def _placement(rng, demands, surrogates, skew):
    """Client -> member, with ``skew`` of the clients on member 0."""
    names = [f"surrogate-{i:02d}" for i in range(surrogates)]
    return {
        d.client_id: names[0] if rng.random() < skew
        else rng.choice(names)
        for d in demands
    }


def multi_burst(rng):
    config = FleetConfig(
        surrogates=rng.randint(1, 5), admission_cap=rng.randint(1, 6),
        bursts_per_client=rng.randint(2, 4),
        think_time_s=rng.choice([0.0, 0.5, 3.0, 20.0]),
        surrogate_speed=rng.choice([0.5, 1.0, 1.7]),
    )
    demands = _demands(rng, rng.randint(20, 400), None, [MB], [0.1])
    return config, demands, _placement(rng, demands, config.surrogates, 0.0)


def evicting(rng):
    config = FleetConfig(
        surrogates=rng.randint(1, 4), admission_cap=rng.randint(1, 6),
        heap_capacity=rng.choice([2, 3, 5]) * MB,
        eviction_watermark=rng.choice([0.5, 0.85, 1.0]),
        bursts_per_client=rng.randint(2, 3),
        think_time_s=rng.choice([0.0, 1.0, 10.0]),
    )
    demands = _demands(rng, rng.randint(20, 400), None,
                       [MB // 2, MB, 2 * MB], [0.0, 0.05, 0.4])
    return config, demands, _placement(rng, demands, config.surrogates, 0.2)


def rebalancing(rng):
    config = FleetConfig(
        surrogates=rng.randint(2, 6), admission_cap=rng.randint(1, 4),
        rebalance_threshold=rng.randint(1, 3),
        rebalance_patience=rng.randint(1, 2),
        bursts_per_client=rng.randint(1, 3),
        think_time_s=rng.choice([0.0, 2.0]),
        heap_capacity=rng.choice([4, 64]) * MB,
    )
    demands = _demands(rng, rng.randint(20, 400), [0.6, 1.2, 2.4],
                       [MB], [0.1])
    return config, demands, _placement(rng, demands, config.surrogates, 0.7)


def rejecting(rng):
    config = FleetConfig(
        surrogates=rng.randint(1, 4), admission_cap=rng.randint(1, 4),
        admission_policy=ADMISSION_REJECT,
        bursts_per_client=rng.randint(1, 3),
        think_time_s=rng.choice([0.0, 5.0]),
        heap_capacity=rng.choice([3, 64]) * MB,
    )
    demands = _demands(rng, rng.randint(20, 400), None, [MB, 2 * MB],
                       [0.2])
    return config, demands, _placement(rng, demands, config.surrogates, 0.3)


def zero_cap(policy):
    def scenario(rng):
        config = FleetConfig(
            surrogates=rng.randint(1, 3), admission_cap=0,
            admission_policy=policy,
            bursts_per_client=rng.randint(1, 2), think_time_s=1.0,
            heap_capacity=2 * MB,
        )
        demands = _demands(rng, rng.randint(20, 120), None, [MB], [0.1])
        return (config, demands,
                _placement(rng, demands, config.surrogates, 0.0))
    return scenario


def equal_service(rng):
    config = FleetConfig(
        surrogates=rng.randint(1, 4), admission_cap=rng.randint(2, 8),
        bursts_per_client=rng.randint(1, 3),
        think_time_s=rng.choice([0.0, 1.0]),
        rebalance_threshold=rng.randint(1, 3),
        rebalance_patience=rng.randint(1, 2),
        heap_capacity=rng.choice([4, 64]) * MB,
    )
    demands = _demands(rng, rng.randint(20, 400), [1.0], [MB], [0.1])
    return config, demands, _placement(rng, demands, config.surrogates, 0.5)


SCENARIOS = {
    "multi_burst": multi_burst,
    "evicting": evicting,
    "rebalancing": rebalancing,
    "rejecting": rejecting,
    "zero_cap_queue": zero_cap(ADMISSION_QUEUE),
    "zero_cap_reject": zero_cap(ADMISSION_REJECT),
    "equal_service": equal_service,
}


def _result(simulation, config):
    return FleetResult(
        config=config, outcomes=simulation.outcomes,
        surrogates=[m.stats for m in simulation.members],
        rebalances=simulation.rebalances, makespan_s=simulation.makespan_s,
    )


def _run_both(config, demands, placement):
    shipped = _FleetSimulation(demands, placement, config)
    shipped.run()
    reference = ReferenceFleetSimulation(demands, placement, config)
    reference.run()
    return _result(shipped, config), _result(reference, config)


def _vfinish_ties(config, demands, placement):
    """Admissions whose ``vfinish`` equals another active session's."""
    ties = 0
    simulation = ReferenceFleetSimulation(demands, placement, config)
    admit = simulation._admit

    def counting_admit(session, t):
        nonlocal ties
        admit(session, t)
        if any(other.vfinish == session.vfinish
               for other in session.surrogate.active.values()
               if other is not session):
            ties += 1

    simulation._admit = counting_admit
    simulation.run()
    return ties


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_shipped_simulation_matches_reference(scenario):
    totals = dict(evictions=0, breaches=0, rebalances=0, rejections=0,
                  completions=0, multi_burst=0)
    for seed in range(SEEDS_PER_SCENARIO):
        rng = random.Random(f"fleet-parity:{scenario}:{seed}")
        config, demands, placement = SCENARIOS[scenario](rng)
        shipped, reference = _run_both(config, demands, placement)
        where = f"{scenario} seed {seed} ({len(demands)} clients)"
        assert shipped.fingerprint() == reference.fingerprint(), where
        assert ([dataclasses.asdict(s) for s in shipped.surrogates]
                == [dataclasses.asdict(s) for s in reference.surrogates]), \
            where
        assert shipped.rebalances == reference.rebalances, where
        assert shipped.makespan_s == reference.makespan_s, where
        totals["evictions"] += shipped.total_evictions
        totals["breaches"] += sum(s.watermark_breaches
                                  for s in shipped.surrogates)
        totals["rebalances"] += shipped.rebalances
        totals["rejections"] += shipped.rejected_clients
        totals["completions"] += shipped.completed_clients
        totals["multi_burst"] += config.bursts_per_client > 1
    # The scenario exercised what it is named for.
    expected = {
        "multi_burst": ("multi_burst", "completions"),
        "evicting": ("evictions", "breaches"),
        "rebalancing": ("rebalances",),
        "rejecting": ("rejections", "completions"),
        "zero_cap_queue": ("completions",),
        "zero_cap_reject": ("rejections",),
        "equal_service": ("rebalances", "completions"),
    }[scenario]
    for key in expected:
        assert totals[key] > 0, f"{scenario}: no {key} across the seeds"


def test_equal_service_scenario_produces_vfinish_ties():
    """Ties on ``vfinish`` reach the id tie-break in the parity suite."""
    ties = 0
    for seed in range(SEEDS_PER_SCENARIO):
        rng = random.Random(f"fleet-parity:equal_service:{seed}")
        ties += _vfinish_ties(*equal_service(rng))
    assert ties > 0


class _CheckedSimulation(_FleetSimulation):
    """Asserts, at every eviction check, that each member's idle index
    holds exactly the sessions the oracle's scan would pick."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checks = 0

    def _make_room(self, member, incoming):
        scanned = {
            cid for cid, s in self.sessions.items()
            if s.surrogate is member and s.resident
            and s.state in ("idle", "queued")
        }
        assert set(member.idle_residents) == scanned
        self.checks += 1
        super()._make_room(member, incoming)


@pytest.mark.parametrize("scenario",
                         ["evicting", "multi_burst", "rebalancing"])
def test_idle_resident_index_matches_the_scan(scenario):
    checks = 0
    for seed in range(SEEDS_PER_SCENARIO):
        rng = random.Random(f"fleet-parity:{scenario}:{seed}")
        config, demands, placement = SCENARIOS[scenario](rng)
        simulation = _CheckedSimulation(demands, placement, config)
        simulation.run()
        checks += simulation.checks
    assert checks > 0
