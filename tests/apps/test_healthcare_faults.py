"""Chaos acceptance: the Figure-1 federation at 20% co-database failure.

With three of the fourteen co-databases hard-dead, a deadline-bounded
discovery must still complete in budget, return every lead reachable
through healthy paths, and name each failed co-database it encountered
in the degraded report — the difference between "no answer" and "no
answer from the part of the space we could reach".
"""

import random
import time

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.resilience import (HealthBoard, ResiliencePolicy,
                                   RetryPolicy)
from repro.orb.faults import ANY, FaultyTransport
from repro.orb.transport import InMemoryNetwork

QUERY = "Medical Insurance"
DEADLINE = 5.0
GRACE = 1.0
FAILURE_COUNT = 3  # ~20% of 14 sources


def pick_dead(seed):
    """Seeded choice of failed sources (never QUT, the user's home)."""
    candidates = [name for name in topo.ALL_DATABASES if name != topo.QUT]
    return set(random.Random(seed).sample(candidates, FAILURE_COUNT))


def sweep(deployment, **kwargs):
    engine = deployment.system.query_processor().discovery
    return engine.discover(QUERY, topo.QUT, stop_at_first=False,
                           max_hops=6, **kwargs)


@pytest.fixture(scope="module")
def healthy_leads():
    """Lead name -> via path, from an unfaulted full sweep."""
    deployment = build_healthcare_system()
    result = sweep(deployment)
    return {lead.name: list(lead.via) for lead in result.leads}


@pytest.mark.chaos
def test_discovery_survives_twenty_percent_failures(healthy_leads,
                                                    chaos_seed):
    dead = pick_dead(chaos_seed)
    faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                          max_delay=0.01, seed=chaos_seed),
        health=HealthBoard(failure_threshold=3))
    deployment = build_healthcare_system(
        transport=faulty, resilience=policy, isolate_sources=True)
    faulty.delay(ANY, latency=0.0005, jitter=0.0005)  # a lossy WAN
    for name in dead:
        faulty.refuse(deployment.codatabase_endpoint(name))

    started = time.monotonic()
    result = sweep(deployment, deadline=DEADLINE)
    elapsed = time.monotonic() - started

    # 1. Completes within the budget (plus collection grace).
    assert elapsed <= DEADLINE + GRACE

    # 2. Every lead whose healthy-run path avoids the dead set is
    #    still found.
    found = {lead.name for lead in result.leads}
    for lead_name, via in healthy_leads.items():
        if not (set(via) & dead):
            assert lead_name in found, \
                f"{lead_name} reachable via healthy path {via} but lost"

    # 3. The degraded report blames only dead co-databases, and names
    #    every dead one the exploration reached through a healthy path.
    blamed = set(result.degraded.names())
    assert blamed <= dead
    assert set(result.unreachable) <= blamed
    for via in healthy_leads.values():
        for index, database in enumerate(via):
            if database in dead and not (set(via[:index]) & dead):
                assert database in blamed, \
                    f"{database} was reachable (via {via[:index]}) " \
                    f"and dead, but never reported"

    # 4. The report is renderable and specific.
    summary = result.degraded.summary()
    for name in blamed:
        assert name in summary

    # 5. Faults actually fired.
    assert faulty.injected["refuse"] >= 1
    assert faulty.injected["delay"] >= 1


@pytest.mark.chaos
def test_breakers_trip_and_skip_on_repeat_queries(chaos_seed):
    """Repeated queries against the same dead sites stop burning budget:
    the shared health board trips and later sweeps skip without a call."""
    dead = pick_dead(chaos_seed)
    faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1, base_delay=0.001, seed=chaos_seed),
        health=HealthBoard(failure_threshold=2, reset_timeout=60.0))
    deployment = build_healthcare_system(transport=faulty, resilience=policy,
                                         isolate_sources=True)
    for name in dead:
        faulty.refuse(deployment.codatabase_endpoint(name))

    results = [sweep(deployment, deadline=DEADLINE) for __ in range(3)]
    tripped = results[-1].degraded.by_reason().get("tripped", [])
    attempted = {entry for result in results
                 for entry in result.unreachable}
    # Everything that kept failing is eventually skipped unvisited.
    assert set(tripped) == attempted & dead
    snapshot = deployment.system.metrics()["resilience"]
    assert any(stats["state"] == "open" for stats in snapshot.values())
