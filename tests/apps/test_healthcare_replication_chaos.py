"""Chaos acceptance for the availability layer (docs/availability.md).

With two replica servants per co-database, killing any *single*
replica — primary or backup, before a BFS or between two requests it
has answered — must be invisible: the degraded report stays empty and the leads match a
never-faulted run exactly.  Only killing *every* replica of a source
reproduces the single-servant degraded report the resilience layer
already guarantees.

CI's tier-2 job sweeps CHAOS_SEED over {7, 23, 1999}; the kill-mode
matrix (primary / backup / kill-then-restart) is parametrized here,
each mode with and without a metadata cache deployed (``-cache`` ids
and ``*_with_a_metadata_cache`` twins — a replicated source reads
through the cache like any other, so losing a replica must stay
invisible with it in the path).
"""

import random

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.metacache import MetadataCache
from repro.core.resilience import (HealthBoard, ResiliencePolicy,
                                   RetryPolicy)
from repro.orb.faults import ANY, FaultyTransport
from repro.orb.transport import InMemoryNetwork

QUERY = "Medical Insurance"
DEADLINE = 5.0
REPLICAS = 2
FAILURE_COUNT = 3  # sources fully killed in the all-replicas scenario


def build_replicated(seed, transport=None, cached=False):
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                          max_delay=0.01, seed=seed),
        health=HealthBoard(failure_threshold=3))
    return build_healthcare_system(transport=transport, resilience=policy,
                                   replication_factor=REPLICAS,
                                   metadata_cache=(MetadataCache()
                                                   if cached else None))


def sweep(deployment, query=QUERY, **kwargs):
    engine = deployment.system.query_processor().discovery
    return engine.discover(query, topo.QUT, stop_at_first=False,
                           max_hops=6, **kwargs)


def pick_dead(seed):
    candidates = [name for name in topo.ALL_DATABASES if name != topo.QUT]
    return set(random.Random(seed).sample(candidates, FAILURE_COUNT))


@pytest.fixture(scope="module")
def healthy_leads():
    """Leads of an unfaulted replicated run (the ground truth)."""
    result = sweep(build_replicated(seed=0))
    return {lead.name: list(lead.via) for lead in result.leads}


KILL_MODES = [
    ("kill-primary", 0, False),   # primary dead before the BFS starts
    ("kill-backup", 1, False),    # backup dead before the BFS starts
    ("kill-primary-mid-bfs", 0, True),  # primary dies between two
                                  # requests (endpoint starts refusing
                                  # after a seeded number of them)
]


@pytest.mark.chaos
@pytest.mark.parametrize("kill_index, mid_flight, cached", [
    pytest.param(kill_index, mid_flight, cached,
                 id=mode + ("-cache" if cached else ""))
    for cached in (False, True)
    for mode, kill_index, mid_flight in KILL_MODES])
def test_single_replica_loss_is_invisible(healthy_leads, chaos_seed,
                                          kill_index, mid_flight,
                                          cached):
    faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
    deployment = build_replicated(chaos_seed, transport=faulty,
                                  cached=cached)
    faulty.delay(ANY, latency=0.0005, jitter=0.0005)
    rng = random.Random(chaos_seed)
    for name in topo.ALL_DATABASES:
        endpoint = deployment.codatabase_replica_endpoint(name, kill_index)
        # At most 2: a source is asked once per resolution, so over
        # the two sweeps below a primary that answers one request dies
        # between them and one that answers two survives — whatever the
        # seed, some of each.
        after = rng.randint(1, 2) if mid_flight else 0
        faulty.refuse(endpoint, after=after)

    if mid_flight:
        # Another topic, so the cache cannot answer the sweep
        # under test; a full sweep visits the same sources for any.
        sweep(deployment, query="Medical Research", deadline=DEADLINE)
    result = sweep(deployment, deadline=DEADLINE)

    # One dead replica per source must not cost a single lead ...
    assert {lead.name for lead in result.leads} == set(healthy_leads)
    # ... nor put anything in the degraded report.
    assert list(result.degraded.names()) == []
    assert result.unreachable == []
    # ... and it was the failover that bought that, not a refuse rule
    # that never matched: a dead primary is routed around, a dead
    # backup is never even asked.
    if kill_index == 0:
        assert result.failovers >= 1
    else:
        assert result.failovers == 0


@pytest.mark.chaos
def test_all_replicas_down_reproduces_the_degraded_report(healthy_leads,
                                                          chaos_seed,
                                                          cached=False):
    """Killing every replica of a source is a dead source: the degraded
    report must blame it, exactly as in the single-servant federation."""
    dead = pick_dead(chaos_seed)
    faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
    deployment = build_replicated(chaos_seed, transport=faulty,
                                  cached=cached)
    for name in dead:
        for index in range(REPLICAS):
            faulty.refuse(
                deployment.codatabase_replica_endpoint(name, index))

    result = sweep(deployment, deadline=DEADLINE)

    found = {lead.name for lead in result.leads}
    for lead_name, via in healthy_leads.items():
        if not (set(via) & dead):
            assert lead_name in found, \
                f"{lead_name} reachable via healthy path {via} but lost"
    blamed = set(result.degraded.names())
    assert blamed <= dead
    assert set(result.unreachable) <= blamed
    for via in healthy_leads.values():
        for index, database in enumerate(via):
            if database in dead and not (set(via[:index]) & dead):
                assert database in blamed


@pytest.mark.chaos
def test_all_replicas_down_with_a_metadata_cache(healthy_leads, chaos_seed):
    test_all_replicas_down_reproduces_the_degraded_report(
        healthy_leads, chaos_seed, cached=True)


@pytest.mark.chaos
def test_kill_then_restart_during_bfs(healthy_leads, chaos_seed,
                                      cached=False):
    """A replica killed between sweeps and restarted must rejoin with
    no journal lag, heal stale proxies in place, and leave later sweeps
    indistinguishable from healthy ones."""
    deployment = build_replicated(chaos_seed, cached=cached)
    system = deployment.system
    rng = random.Random(chaos_seed)
    victims = rng.sample(sorted(set(topo.ALL_DATABASES) - {topo.QUT}), 3)

    for victim in victims:
        system.kill_replica(victim, 0)
    degraded_sweep = sweep(deployment, deadline=DEADLINE)
    # Backups carried the victims: nothing lost, nothing degraded.
    assert {lead.name for lead in degraded_sweep.leads} \
        == set(healthy_leads)
    assert list(degraded_sweep.degraded.names()) == []

    # Maintenance writes land while the replicas are down ...
    for victim in victims:
        system.attach_document(victim, "text", f"written while {victim} r0 "
                                               f"was down")
    # ... and recovery catches every victim up (journal + anti-entropy).
    for victim in victims:
        system.restart_replica(victim, 0)
        status = system.replica_status(victim)
        assert all(r["alive"] and r["lag"] == 0
                   for r in status["replicas"]), victim

    healed_sweep = sweep(deployment, deadline=DEADLINE)
    assert {lead.name for lead in healed_sweep.leads} == set(healthy_leads)
    assert list(healed_sweep.degraded.names()) == []
    # The restarted primaries really serve: reads through a fresh
    # client reach r0 (closed breaker, fresh binding generation).
    for victim in victims:
        client = system.codatabase_client(victim)
        contents = [d["content"] for d in client.documents_of(victim)]
        assert f"written while {victim} r0 was down" in contents
        assert client.failovers == 0


@pytest.mark.chaos
def test_kill_then_restart_with_a_metadata_cache(healthy_leads, chaos_seed):
    test_kill_then_restart_during_bfs(healthy_leads, chaos_seed,
                                      cached=True)
