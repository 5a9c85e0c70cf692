"""Pipeline invariance: one co-database client over every deployment.

What used to be four client classes chosen by ``if/elif`` is one
:class:`CoDatabaseClient` built over a *route* (one servant's proxy or
a replica route) and a *cache* (none, or the process-local
:class:`MetadataCache`).  Any combination is legal, so this module
deploys the whole matrix and states what must not depend on the cell:

* discovery answers — leads, ``via`` paths, co-databases contacted,
  the degraded report — and the paper's Figure 4–6 statements;
* the accounting: on a warm run ``metadata_calls + cache_hits`` is the
  same number everywhere (a read is answered by exactly one of the
  two), and every GIOP request the run sends is a counted metadata
  call — no stage talks off the books;
* the class: ``type(system.codatabase_client(n)) is CoDatabaseClient``.

Below the matrix, the one cache-coherence rule (epoch floors, see
``docs/availability.md``) is stated as properties over both routes,
plus the regressions it fixed: the late fill, into a system's cache
and into a cache wired to a bare registry, and the replicated source
that ignored the cache it was deployed with.
"""

import threading

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.codatabase import CoDatabaseServant
from repro.core.discovery import CoDatabaseClient, DiscoveryResult
from repro.core.metacache import TOMBSTONE, MetadataCache
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.replication import ReplicatedCoDatabase
from repro.core.system import WebFinditSystem
from repro.oodb.database import ObjectDatabase
from repro.orb.transport import TcpTransport

from tests.core.test_discovery_properties import lead_fingerprint

QUERY = "Medical Insurance"

#: replication factor × cache kind, plus one cell over real sockets.
CELLS = [pytest.param((replicas, cache, False), id=f"r{replicas}-{cache}")
         for replicas in (1, 2) for cache in ("none", "local")] \
    + [pytest.param((2, "local", True), id="r2-local-tcp")]

STATEMENTS = (
    "Display Coalitions With Information Medical Research",
    "Display Instances of Class Research",
    "Display Documentation of Instance Royal Brisbane Hospital "
    "of Class Research",
)


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
            metadata_cache=MetadataCache() if cache == "local" else None)
        self.system = self.deployment.system
        self.engine = self.system.query_processor().discovery
        self.cold = self.engine.discover(QUERY, topo.QUT)
        self.system.reset_metrics()
        self.warm = self.engine.discover(QUERY, topo.QUT)
        self.warm_giop = self.system.metrics()["giop_messages"]

    def close(self):
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
            assert ours.failovers == 0

    def test_no_stage_talks_off_the_books(self, cell):
        """Every GIOP request of a warm discovery is a counted metadata
        call (the failover client used to probe ``epoch`` once per
        co-database, uncounted)."""
        assert cell.warm_giop == cell.warm.metadata_calls

    def test_one_client_class(self, cell):
        for name in topo.ALL_DATABASES:
            assert type(cell.system.codatabase_client(name)) \
                is CoDatabaseClient


# ---------------------------------------------------------------------------
# The coherence rule, for every route
# ---------------------------------------------------------------------------

SOURCES = ("Alpha", "Beta", "Gamma", "Delta")

#: Both routes, each behind the local cache.
REPLICAS = pytest.mark.parametrize("replicas", [1, 2],
                                   ids=["r1-local", "r2-local"])


def small_system(replicas=1):
    system = WebFinditSystem(replication_factor=replicas,
                             metadata_cache=MetadataCache())
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


def cardio_lists(system, observer, member):
    """Does *observer*'s co-database, read through the cache, currently
    list *member* as a Cardio member?"""
    for coalition in system.codatabase_client(observer).known_coalitions():
        if coalition.name == "Cardio":
            return member in coalition.members
    return False


class MutateBeforeReturning:
    """A route on which a registry mutation lands between the reply
    arriving and the client seeing it — the late fill, made
    deterministic.  *route* is a proxy or replica route, or an
    in-process :class:`CoDatabaseServant`."""

    def __init__(self, route, mutate):
        self._route = route
        self._mutate = mutate

    def invoke(self, operation, *args):
        if hasattr(self._route, "invoke"):
            reply = self._route.invoke(operation, *args)
        else:
            reply = getattr(self._route, operation)(*args)
        mutate, self._mutate = self._mutate, None
        if mutate is not None:
            mutate()
        return reply


@REPLICAS
def test_a_delivered_mutation_is_never_followed_by_a_stale_read(replicas):
    """(a) Once a registry mutation has returned, no route serves a
    pre-mutation value for a source in the mutation's audience."""
    system = small_system(replicas)
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
        for name in SOURCES:
            client = system.codatabase_client(name)
            assert cached_reads(client) == \
                authoritative_reads(system, name), name
    warm = system.codatabase_client("Alpha")
    cached_reads(warm)
    assert warm.cache_hits == 4  # ... and the cache still caches


@REPLICAS
def test_b_a_fill_fetched_before_a_mutation_is_refused_after_it(replicas):
    """(b) The late fill: a cacheable read whose reply is in flight
    while ``join`` runs must not store its pre-mutation value after the
    mutation retired it.  (The process-local cache used to accept it
    and serve ``['Cardio']`` for a whole TTL.)"""
    system = small_system(replicas)
    fresh = system.codatabase_client("Alpha")
    racing = CoDatabaseClient(
        MutateBeforeReturning(fresh.target,
                              lambda: system.join("Alpha", "Onco")),
        "Alpha", cache=system.metadata_cache)
    assert racing.memberships() == ["Cardio"]  # what was in flight
    assert system.metadata_cache.stats()["stale_stores_refused"] == 1
    assert system.codatabase_client("Alpha").memberships() == \
        list(system.registry.codatabase("Alpha").memberships) == \
        ["Cardio", "Onco"]


def test_b_a_cache_wired_to_a_bare_registry_refuses_the_late_fill():
    """(b) without a system: a cache subscribed to a bare registry
    through :meth:`MetadataCache.retire` gets the mutation's floors
    with the drop.  (Subscribed through ``invalidate``, it dropped
    entries but raised no floor, so the late fill was stored and hit as
    ``['Cardio']`` for a whole TTL.)"""
    registry = Registry()
    for name in ("Alpha", "Beta"):
        registry.add_source(SourceDescription(
            name=name, information_type="cardiology"))
    registry.create_coalition("Cardio", "cardiology")
    registry.create_coalition("Onco", "oncology")
    registry.join("Alpha", "Cardio")
    cache = MetadataCache(ttl=1e9)  # TTL can never save us here
    registry.add_invalidation_listener(cache.retire)
    racing = CoDatabaseClient(
        MutateBeforeReturning(CoDatabaseServant(registry.codatabase("Alpha")),
                              lambda: registry.join("Alpha", "Onco")),
        "Alpha", cache=cache)
    assert racing.memberships() == ["Cardio"]  # what was in flight
    assert cache.stats()["stale_stores_refused"] == 1
    reader = CoDatabaseClient(registry.codatabase("Alpha"), "Alpha",
                              cache=cache)
    assert reader.memberships() == ["Cardio", "Onco"]


def test_reads_after_mutation_are_never_stale():
    """Once a mutation returns, every read-through observes the
    post-mutation state — under concurrent reader threads racing their
    own fills against the floors the mutation hands the cache."""
    system = small_system()
    stop = threading.Event()
    reader_errors = []

    def hammer():
        while not stop.is_set():
            try:
                client = system.codatabase_client("Alpha")
                client.memberships()
                client.known_coalitions()
                system.codatabase_client("Delta").memberships()
            except Exception as exc:  # noqa: BLE001 — reported below
                reader_errors.append(exc)
                return
    threads = [threading.Thread(target=hammer) for __ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for round_index in range(24):
            joined = round_index % 2 == 0
            if joined:
                system.join("Delta", "Cardio")
            else:
                system.leave("Delta", "Cardio")
            assert cardio_lists(system, "Alpha", "Delta") is joined
            memberships = system.codatabase_client("Delta").memberships()
            assert ("Cardio" in memberships) is joined
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not reader_errors
    assert system.metadata_cache.stats()["invalidations"] > 0


def test_remove_source_pushes_a_tombstone():
    system = small_system()
    cache = system.metadata_cache
    system.codatabase_client("Delta").memberships()  # warm an entry
    system.registry.remove_source("Delta")
    assert cache._floors.get("Delta") == TOMBSTONE
    assert not any(key[0] == "Delta" for key in cache._entries)
    assert not cache.store("Delta", "memberships", (), [], 99)


# (c) — failing over to a replica behind the floor never lowers what
# the cache serves or keeps — needs a scripted lagging replica and
# lives beside that double:
# tests/core/test_replication.py::TestFailoverCacheCoherence::
# test_lagging_replica_fills_refused.
#
# (d) — floors are applied inside the mutating call, so there is no
# undelivered floor to wait out; TTL bounds out-of-band staleness:
# tests/core/test_metacache.py::TestMetadataCache::test_ttl_expiry.


# ---------------------------------------------------------------------------
# A replicated source uses the cache it was deployed with
# ---------------------------------------------------------------------------


class TestReplicatedSourcesUseTheCache:
    @pytest.fixture()
    def cached(self):
        deployed = Cell(2, "local", False)
        yield deployed
        deployed.close()

    def hits(self, cached):
        return cached.system.metadata_cache.stats()["hits"]

    def test_second_discovery_is_answered_by_the_cache(self, cached):
        assert self.hits(cached) > 0
        assert cached.warm.cache_hits > 0
        assert cached.warm.metadata_calls < cached.cold.metadata_calls

    def test_losing_a_primary_is_invisible_and_the_cache_still_hits(
            self, cached):
        for name in topo.ALL_DATABASES:
            cached.system.kill_replica(name, 0)
        before = self.hits(cached)
        result = cached.engine.discover(QUERY, topo.QUT)
        assert lead_fingerprint(result) == lead_fingerprint(cached.cold)
        assert result.degraded.names() == []
        assert result.cache_hits > 0 and self.hits(cached) > before
        # A warm resolution crosses no ORB to a co-database, so it had
        # nothing to fail over; an uncacheable read does route.
        assert result.metadata_calls == 0 and result.failovers == 0
        client = cached.system.codatabase_client(topo.QUT)
        assert topo.QUT in [member.name
                            for member in client.instances_of("Research")]
        assert client.failovers >= 1

    def test_restart_replica_retires_that_sources_cache_entries(
            self, cached):
        entries = cached.system.metadata_cache._entries
        assert any(key[0] == topo.RBH for key in entries)
        cached.system.kill_replica(topo.RBH, 0)
        cached.system.restart_replica(topo.RBH, 0)
        assert not any(key[0] == topo.RBH for key in entries)
        assert any(key[0] == topo.QUT for key in entries)  # only RBH's
