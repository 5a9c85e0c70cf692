"""Pipeline invariance: one co-database client over every deployment.

What used to be four client classes chosen by ``if/elif`` is one
:class:`CoDatabaseClient` built over a *route* (one servant's proxy or
a replica route) and a *cache* (none, the process-local one, or the
shared tier).  Any combination is legal, so this module deploys the
whole matrix and states what must not depend on the cell:

* discovery answers — leads, ``via`` paths, co-databases contacted,
  the degraded report — and the paper's Figure 4–6 statements;
* the accounting: on a warm run ``metadata_calls + cache_hits`` is the
  same number everywhere (a read is answered by exactly one of the
  two), and every GIOP request the run sends is a counted metadata
  call or a counted cache-tier request — no stage talks off the books;
* the class: ``type(system.codatabase_client(n)) is CoDatabaseClient``.

Below the matrix, the one cache-coherence rule (epoch floors, see
``docs/availability.md``) is stated as four properties, each run for
both cache kinds from one body, plus the regressions the merge fixed:
the late fill into the local cache, and the replicated source that
ignored the tier it was deployed with.

``WEBFINDIT_SHARDS`` sets the shard count (CI's tier-2 sharding job
sweeps {1, 4} × threaded / event-loop transports).
"""

import os

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.cachetier import (CacheTierClient, CacheTierServant,
                                  InvalidationBroadcaster)
from repro.core.discovery import CoDatabaseClient, DiscoveryResult
from repro.core.metacache import MetadataCache
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.replication import ReplicatedCoDatabase
from repro.core.system import WebFinditSystem
from repro.errors import CommFailure
from repro.oodb.database import ObjectDatabase
from repro.orb.transport import TcpTransport

from tests.core.test_discovery_properties import lead_fingerprint
from tests.core.test_metacache import FakeClock

SHARDS = int(os.environ.get("WEBFINDIT_SHARDS", "1"))
QUERY = "Medical Insurance"

#: replication factor × cache kind, plus one cell over real sockets.
CELLS = [pytest.param((replicas, cache, False), id=f"r{replicas}-{cache}")
         for replicas in (1, 2) for cache in ("none", "local", "tier")] \
    + [pytest.param((2, "tier", True), id="r2-tier-tcp")]

STATEMENTS = (
    "Display Coalitions With Information Medical Research",
    "Display Instances of Class Research",
    "Display Documentation of Instance Royal Brisbane Hospital "
    "of Class Research",
)


def cache_options(cache):
    return {"metadata_cache": MetadataCache() if cache == "local" else None,
            "cache_tier": cache == "tier"}


def tier_requests(system):
    """Requests the cache-tier servant has answered (0 without one)."""
    servant = system.cache_tier_servant
    if servant is None:
        return 0
    stats = servant.stats()
    return (stats["lookups"] + stats["stores"]
            + stats["stale_stores_refused"])


def answer(result):
    """What the user is told, minus the cost accounting."""
    if isinstance(result.data, DiscoveryResult):
        return (lead_fingerprint(result.data),
                result.data.codatabases_contacted,
                result.data.degraded.names())
    return result.text


class Cell:
    """One deployed healthcare federation, run cold then warm."""

    def __init__(self, replicas, cache, tcp):
        self.transport = TcpTransport() if tcp else None
        self.deployment = build_healthcare_system(
            transport=self.transport, replication_factor=replicas,
            shards=SHARDS, **cache_options(cache))
        self.system = self.deployment.system
        self.engine = self.system.query_processor().discovery
        self.cold = self.engine.discover(QUERY, topo.QUT)
        self.system.reset_metrics()
        tier_before = tier_requests(self.system)
        self.warm = self.engine.discover(QUERY, topo.QUT)
        self.warm_giop = self.system.metrics()["giop_messages"]
        self.warm_tier_requests = tier_requests(self.system) - tier_before

    def close(self):
        self.engine.close()
        if self.transport is not None:
            self.transport.close()


@pytest.fixture(scope="module")
def reference():
    cell = Cell(1, "none", False)
    yield cell
    cell.close()


@pytest.fixture(scope="module", params=CELLS)
def cell(request):
    deployed = Cell(*request.param)
    yield deployed
    deployed.close()


class TestInvarianceMatrix:
    def test_discovery_answers_do_not_depend_on_the_cell(self, cell,
                                                         reference):
        for result in (cell.cold, cell.warm):
            assert lead_fingerprint(result) == \
                lead_fingerprint(reference.cold)
            assert result.codatabases_contacted == \
                reference.cold.codatabases_contacted
            assert result.degraded.names() == []
            assert result.unreachable == []

    def test_scenario_statements_do_not_depend_on_the_cell(self, cell,
                                                           reference):
        ours = cell.deployment.browser(topo.QUT)
        theirs = reference.deployment.browser(topo.QUT)
        for statement in STATEMENTS:
            assert answer(ours.submit(statement)) == \
                answer(theirs.submit(statement)), statement
        sql = "SELECT * FROM MedicalStudent"
        assert ours.fetch(topo.RBH, sql).data.rows == \
            theirs.fetch(topo.RBH, sql).data.rows

    def test_a_read_is_a_call_or_a_hit(self, cell, reference):
        for ours, theirs in ((cell.cold, reference.cold),
                             (cell.warm, reference.warm)):
            assert ours.metadata_calls + ours.cache_hits == \
                theirs.metadata_calls
            assert ours.cache_bypassed == 0 and ours.failovers == 0

    def test_no_stage_talks_off_the_books(self, cell):
        """Every GIOP request of a warm discovery is a counted metadata
        call or a counted cache-tier request (the failover client used
        to probe ``epoch`` once per co-database, uncounted)."""
        assert cell.warm_giop == \
            cell.warm.metadata_calls + cell.warm_tier_requests
        if cell.system.cache_tier_servant is None:
            assert cell.warm_giop == cell.warm.metadata_calls

    def test_one_client_class(self, cell):
        for name in topo.ALL_DATABASES:
            assert type(cell.system.codatabase_client(name)) \
                is CoDatabaseClient


# ---------------------------------------------------------------------------
# The coherence rule, for every route × cache
# ---------------------------------------------------------------------------

SOURCES = ("Alpha", "Beta", "Gamma", "Delta")
CACHE_KINDS = ["local", "tier"]


def small_system(replicas, cache):
    system = WebFinditSystem(replication_factor=replicas, shards=SHARDS,
                             **cache_options(cache))
    for name in SOURCES:
        database = ObjectDatabase(name=name.lower(), product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name=name, information_type="cardiology",
            location=f"{name.lower()}.net"))
    system.create_coalition("Cardio", "cardiology")
    system.create_coalition("Onco", "oncology")
    system.join("Alpha", "Cardio")
    system.join("Beta", "Cardio")
    system.join("Gamma", "Onco")
    return system


def refused_stores(system):
    if system.cache_tier_servant is not None:
        return system.cache_tier_servant.stats()["stale_stores_refused"]
    return system.metadata_cache.stats()["stale_stores_refused"]


def cached_reads(client):
    """The four cacheable reads, as the discovery engine shapes them."""
    return {"memberships": client.memberships(),
            "known_coalitions": client.known_coalitions(),
            "service_links": [link.to_wire()
                              for link in client.service_links()],
            "find_coalitions": client.find_coalitions("cardiology")}


def authoritative_reads(system, name):
    """The same four reads, asked of the co-database itself."""
    codatabase = system.registry.codatabase(name)
    if isinstance(codatabase, ReplicatedCoDatabase):
        codatabase = codatabase.primary
    return cached_reads(CoDatabaseClient(codatabase, name))


class MutateBeforeReturning:
    """A route on which a registry mutation lands between the reply
    arriving and the client seeing it — the late fill, made
    deterministic."""

    def __init__(self, route, mutate):
        self._route = route
        self._mutate = mutate

    def invoke(self, operation, *args):
        reply = self._route.invoke(operation, *args)
        mutate, self._mutate = self._mutate, None
        if mutate is not None:
            mutate()
        return reply


@pytest.mark.parametrize("cache", CACHE_KINDS)
@pytest.mark.parametrize("replicas", [1, 2], ids=["r1", "r2"])
def test_a_delivered_mutation_is_never_followed_by_a_stale_read(replicas,
                                                                cache):
    """(a) Once a registry mutation has returned and its floors are
    delivered, no route × cache combination serves a pre-mutation
    value for a source in the mutation's audience."""
    system = small_system(replicas, cache)
    mutations = [
        lambda: system.join("Gamma", "Cardio"),
        lambda: system.link("coalition", "Cardio", "coalition", "Onco",
                            information_type="oncology"),
        lambda: system.leave("Beta", "Cardio"),
        lambda: system.join("Delta", "Onco"),
    ]
    for mutate in mutations:
        for name in SOURCES:  # warm every entry a mutation could retire
            cached_reads(system.codatabase_client(name))
        mutate()
        assert all(broadcaster.status()["pending_floors"] == 0
                   for broadcaster in system._broadcasters)
        for name in SOURCES:
            client = system.codatabase_client(name)
            assert cached_reads(client) == \
                authoritative_reads(system, name), name
    warm = system.codatabase_client("Alpha")
    cached_reads(warm)
    assert warm.cache_hits == 4  # ... and the cache still caches


@pytest.mark.parametrize("cache", CACHE_KINDS)
@pytest.mark.parametrize("replicas", [1, 2], ids=["r1", "r2"])
def test_b_a_fill_fetched_before_a_mutation_is_refused_after_it(replicas,
                                                                cache):
    """(b) The late fill: a cacheable read whose reply is in flight
    while ``join`` runs must not store its pre-mutation value after the
    invalidation.  (The process-local cache used to accept it and serve
    ``['Cardio']`` for a whole TTL; the tier always refused it.)"""
    system = small_system(replicas, cache)
    fresh = system.codatabase_client("Alpha")
    racing = CoDatabaseClient(
        MutateBeforeReturning(fresh.target,
                              lambda: system.join("Alpha", "Onco")),
        "Alpha", cache=fresh._cache)
    assert racing.memberships() == ["Cardio"]  # what was in flight
    assert refused_stores(system) == 1
    assert system.codatabase_client("Alpha").memberships() == \
        list(system.registry.codatabase("Alpha").memberships) == \
        ["Cardio", "Onco"]


@pytest.mark.parametrize("cache", CACHE_KINDS)
def test_d_undeliverable_floors_are_visible_and_ttl_bounded(cache):
    """(d) A floor batch that cannot be delivered stays visible as
    ``pending_floors > 0``; what the cache may serve meanwhile is stale
    for at most one TTL."""
    clock = FakeClock()
    store = MetadataCache(ttl=30.0, clock=clock)
    servant = CacheTierServant(cache=store)
    # The two kinds differ only in whether reads cross the tier's IDL.
    reader = store if cache == "local" else CacheTierClient(servant)
    registry = Registry()
    for name in ("Alpha", "Beta"):
        registry.add_source(SourceDescription(
            name=name, information_type="cardiology"))
    registry.create_coalition("Cardio", "cardiology")
    registry.create_coalition("Onco", "oncology")
    registry.join("Alpha", "Cardio")
    path_up = False

    def deliver(origin, seq, floors):
        if not path_up:
            raise CommFailure("broadcast path is down")
        return servant.invalidate(origin, seq, floors)

    [shard] = registry.shards
    broadcaster = InvalidationBroadcaster(shard, deliver, retries=0)
    shard.add_invalidation_listener(broadcaster)

    def memberships():
        return CoDatabaseClient(registry.codatabase("Alpha"), "Alpha",
                                cache=reader).memberships()

    assert memberships() == ["Cardio"]
    registry.join("Alpha", "Onco")
    assert broadcaster.status()["pending_floors"] > 0
    assert memberships() == ["Cardio"]  # stale, and visibly so
    clock.advance(30.0)
    assert memberships() == ["Cardio", "Onco"]  # ... for one TTL at most
    path_up = True
    assert broadcaster.flush() is True
    assert broadcaster.status()["pending_floors"] == 0
    assert memberships() == ["Cardio", "Onco"]


# (c) — failing over to a replica behind the floor never lowers what
# the cache serves or keeps — needs a scripted lagging replica and
# lives beside that double:
# tests/core/test_replication.py::TestFailoverCacheCoherence::
# test_lagging_replica_fills_refused[local|tier].


# ---------------------------------------------------------------------------
# A replicated source uses the tier it was deployed with
# ---------------------------------------------------------------------------


class TestReplicatedSourcesUseTheTier:
    @pytest.fixture()
    def tiered(self):
        deployed = Cell(2, "tier", False)
        yield deployed
        deployed.close()

    def lookups(self, tiered):
        return tiered.system.cache_tier_servant.stats()["lookups"]

    def test_second_discovery_is_answered_by_the_tier(self, tiered):
        assert self.lookups(tiered) > 0
        assert tiered.warm.cache_hits > 0
        assert tiered.warm.metadata_calls < tiered.cold.metadata_calls

    def test_losing_a_primary_is_invisible_and_the_tier_still_hits(
            self, tiered):
        for name in topo.ALL_DATABASES:
            tiered.system.kill_replica(name, 0)
        before = self.lookups(tiered)
        result = tiered.engine.discover(QUERY, topo.QUT)
        assert lead_fingerprint(result) == lead_fingerprint(tiered.cold)
        assert result.degraded.names() == []
        assert result.cache_hits > 0 and self.lookups(tiered) > before
        # A warm resolution crosses no ORB to a co-database, so it had
        # nothing to fail over; an uncacheable read does route.
        assert result.metadata_calls == 0 and result.failovers == 0
        client = tiered.system.codatabase_client(topo.QUT)
        assert topo.QUT in [member.name
                            for member in client.instances_of("Research")]
        assert client.failovers >= 1

    def test_losing_the_tier_degrades_to_direct_reads(self, tiered):
        tiered.system.kill_cache_tier()
        result = tiered.engine.discover(QUERY, topo.QUT)
        assert lead_fingerprint(result) == lead_fingerprint(tiered.cold)
        assert result.degraded.names() == []
        assert result.cache_bypassed > 0 and result.cache_hits == 0

    def test_restart_replica_retires_that_sources_tier_entries(
            self, tiered):
        entries = tiered.system.cache_tier_servant.cache._entries
        assert any(key[0] == topo.RBH for key in entries)
        tiered.system.kill_replica(topo.RBH, 0)
        tiered.system.restart_replica(topo.RBH, 0)
        assert not any(key[0] == topo.RBH for key in entries)
        assert any(key[0] == topo.QUT for key in entries)  # only RBH's
