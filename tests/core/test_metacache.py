"""Metadata-cache tests: TTL, coherence, and discovery integration.

The cache in front of co-database clients must (a) cut remote metadata
calls on the read-heavy discovery path, (b) surface hit/miss counters
in DiscoveryResult, and (c) be *provably* invalidated by registry
mutations — a stale answer after a join/leave/link change would break
the locality rule the co-databases guarantee.
"""

import pytest

from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.metacache import (CACHEABLE_OPERATIONS, TOMBSTONE,
                                  MetadataCache)
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def build_world():
    registry = Registry()
    for name, info in [("QUT", "Medical Research"),
                       ("RBH", "Research and Medical"),
                       ("RMIT", "Medical Research"),
                       ("Medibank", "Medical Insurance")]:
        registry.add_source(SourceDescription(name=name,
                                              information_type=info))
    registry.create_coalition("Research", "Medical Research")
    registry.create_coalition("Medical", "Medical")
    registry.create_coalition("Insurance", "Medical Insurance")
    registry.join("QUT", "Research")
    registry.join("RBH", "Research")
    registry.join("RMIT", "Research")
    registry.join("RBH", "Medical")
    registry.join("Medibank", "Insurance")
    registry.add_service_link(ServiceLink(
        EndpointKind.COALITION, "Medical", EndpointKind.COALITION,
        "Insurance", information_type="Medical Insurance"))
    return registry


def engines(registry, cache):
    return DiscoveryEngine(
        lambda name: CoDatabaseClient(registry.codatabase(name), name,
                                      cache=cache))


class TestMetadataCache:
    def test_hit_after_store(self):
        cache = MetadataCache()
        cache.store("QUT", "service_links", (), ["payload"])
        hit, value = cache.lookup("QUT", "service_links", ())
        assert hit and value == ["payload"]
        assert cache.stats()["hits"] == 1

    def test_miss_records_counter(self):
        cache = MetadataCache()
        hit, value = cache.lookup("QUT", "service_links", ())
        assert not hit and value is None
        assert cache.stats()["misses"] == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = MetadataCache(ttl=10.0, clock=clock)
        cache.store("QUT", "memberships", (), ["Research"])
        clock.advance(9.9)
        assert cache.lookup("QUT", "memberships", ())[0]
        clock.advance(0.2)
        hit, __ = cache.lookup("QUT", "memberships", ())
        assert not hit
        assert cache.stats()["expirations"] == 1

    def test_invalidate_only_affected_database(self):
        cache = MetadataCache()
        cache.store("QUT", "service_links", (), ["a"])
        cache.store("RBH", "service_links", (), ["b"])
        cache.invalidate(["QUT"])
        assert not cache.lookup("QUT", "service_links", ())[0]
        assert cache.lookup("RBH", "service_links", ())[0]
        assert cache.stats()["invalidations"] == 1

    def test_bounded_size_evicts_oldest(self):
        cache = MetadataCache(max_entries=3)
        for index in range(5):
            cache.store(f"db{index}", "memberships", (), [index])
        assert len(cache) == 3
        assert not cache.lookup("db0", "memberships", ())[0]
        assert cache.lookup("db4", "memberships", ())[0]


class TestCachingClient:
    def test_cacheable_reads_skip_remote_call(self):
        registry = build_world()
        cache = MetadataCache()
        client = CoDatabaseClient(
            registry.codatabase("QUT"), "QUT", cache=cache)
        first = client.service_links()
        calls_after_first = client.calls
        second = client.service_links()
        assert [l.label for l in first] == [l.label for l in second]
        # The second read was a hit: no further remote call counted.
        assert client.calls == calls_after_first
        assert client.cache_hits == 1
        assert client.cache_misses >= 1

    def test_uncacheable_reads_always_go_remote(self):
        registry = build_world()
        cache = MetadataCache()
        client = CoDatabaseClient(
            registry.codatabase("QUT"), "QUT", cache=cache)
        assert "describe_instance" not in CACHEABLE_OPERATIONS
        client.describe_instance("QUT")
        calls = client.calls
        client.describe_instance("QUT")
        assert client.calls == calls + 1
        assert client.cache_hits == 0

    def test_distinct_queries_cached_separately(self):
        registry = build_world()
        cache = MetadataCache()
        client = CoDatabaseClient(
            registry.codatabase("QUT"), "QUT", cache=cache)
        research = client.find_coalitions("Medical Research")
        insurance = client.find_coalitions("Medical Insurance")
        # Different args → different cache keys: both calls miss, and the
        # second query's (different) scores are not overwritten by the
        # first's cached value.
        assert client.cache_misses == 2
        assert client.cache_hits == 0
        assert research != insurance
        assert client.find_coalitions("Medical Research") == research
        assert client.cache_hits == 1


class TestDiscoveryIntegration:
    def test_counters_surface_in_discovery_result(self):
        registry = build_world()
        cache = MetadataCache()
        engine = engines(registry, cache)
        cold = engine.discover("Medical Insurance", "QUT")
        warm = engine.discover("Medical Insurance", "QUT")
        assert cold.cache_hits == 0
        assert cold.cache_misses > 0
        assert warm.cache_hits > 0
        # Warm resolution costs strictly fewer remote metadata calls.
        assert warm.metadata_calls < cold.metadata_calls
        assert [l.name for l in warm.leads] == [l.name for l in cold.leads]

    def test_uncached_engine_reports_zero_counters(self):
        registry = build_world()
        engine = engines(registry, None)
        result = engine.discover("Medical Insurance", "QUT")
        assert result.cache_hits == 0
        assert result.cache_misses == 0

    def test_registry_mutation_invalidates_affected_entries(self):
        """A new service link must be visible immediately: the registry
        writes to the audience co-databases and the cache drops exactly
        those entries."""
        registry = build_world()
        cache = MetadataCache(ttl=1e9)  # TTL can never save us here
        registry.add_invalidation_listener(cache.retire)
        engine = engines(registry, cache)

        before = engine.discover("state funding records", "QUT",
                                 stop_at_first=False)
        assert not before.resolved  # nothing advertises this topic yet
        warm = engine.discover("state funding records", "QUT",
                               stop_at_first=False)
        assert warm.cache_hits > 0  # the miss path is genuinely cached

        registry.add_source(SourceDescription(
            name="Treasury", information_type="state funding records"))
        registry.create_coalition("Funding", "state funding records")
        registry.join("Treasury", "Funding")
        registry.add_service_link(ServiceLink(
            EndpointKind.COALITION, "Research", EndpointKind.COALITION,
            "Funding", information_type="state funding records"))

        after = engine.discover("state funding records", "QUT",
                                stop_at_first=False)
        assert after.resolved
        assert after.best().name == "Funding"
        assert cache.stats()["invalidations"] > 0

    def test_leave_invalidates_membership_view(self):
        registry = build_world()
        cache = MetadataCache(ttl=1e9)
        registry.add_invalidation_listener(cache.retire)
        client = CoDatabaseClient(
            registry.codatabase("QUT"), "QUT", cache=cache)
        assert "RMIT" in [m for m in client.neighbor_databases()]
        client.find_coalitions("Medical Research")  # warm the cache
        registry.leave("RMIT", "Research")
        fresh = client.find_coalitions("Medical Research")
        research = next(m for m in fresh if m["name"] == "Research")
        assert "RMIT" not in research["members"]


class TestSystemWiring:
    def test_system_level_cache_and_invalidation(self):
        """End-to-end over the ORB: a cached system answers repeat
        discoveries from the cache, and a registry mutation through the
        system facade invalidates it."""
        from repro.core.system import WebFinditSystem
        from repro.sql.engine import Database

        cache = MetadataCache()
        system = WebFinditSystem(metadata_cache=cache)
        for name, topic in [("alpha", "astronomy"), ("beta", "astronomy"),
                            ("gamma", "geology")]:
            database = Database(name)
            database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            system.register_relational_source(
                database, SourceDescription(name=name,
                                            information_type=topic))
        system.create_coalition("Stars", "astronomy")
        system.create_coalition("Rocks", "geology")
        system.join("alpha", "Stars")
        system.join("beta", "Stars")
        system.join("gamma", "Rocks")

        processor = system.query_processor()
        cold = processor.discovery.discover("geology", "alpha",
                                            stop_at_first=False)
        warm = processor.discovery.discover("geology", "alpha",
                                            stop_at_first=False)
        assert warm.cache_hits > 0
        assert warm.metadata_calls < cold.metadata_calls
        assert system.metrics()["metadata_cache"]["hits"] > 0

        # A link mutation is visible on the very next resolution.
        system.link("coalition", "Stars", "coalition", "Rocks",
                    information_type="geology")
        after = processor.discovery.discover("geology", "alpha")
        assert after.resolved


@pytest.mark.parametrize("operation", sorted(CACHEABLE_OPERATIONS))
def test_every_cacheable_operation_round_trips(operation):
    """Each declared-cacheable operation actually produces a hit on its
    second invocation (guards against signature drift)."""
    registry = build_world()
    cache = MetadataCache()
    client = CoDatabaseClient(
        registry.codatabase("RBH"), "RBH", cache=cache)
    call = {
        "consult": lambda: client.consult("Medical", True, 0.5),
        "find_coalitions": lambda: client.find_coalitions("Medical"),
        "service_links": client.service_links,
        "memberships": client.memberships,
        "known_coalitions": client.known_coalitions,
    }[operation]
    call()
    call()
    assert client.cache_hits == 1


class TestEpochTaggedEntries:
    """The one coherence rule: entries carry the epoch tag they were
    read at and live while that tag is at or above their source's
    floor (see docs/availability.md)."""

    def test_same_epoch_hits(self):
        cache = MetadataCache()
        cache.store("RBH", "memberships", (), ["Research"], epoch=4)
        cache.raise_floors({"RBH": 4})
        hit, value = cache.lookup("RBH", "memberships", ())
        assert hit and value == ["Research"]

    def test_mismatched_epoch_drops_the_entry(self):
        """Mismatched *downwards*: a tag above the floor is fresher
        than the mutation and keeps hitting."""
        cache = MetadataCache()
        cache.store("RBH", "memberships", (), ["Research"], epoch=4)
        cache.raise_floors({"RBH": 3})
        assert cache.lookup("RBH", "memberships", ())[0]
        cache.raise_floors({"RBH": 5})
        hit, __ = cache.lookup("RBH", "memberships", ())
        assert not hit
        assert cache.stats()["epoch_invalidations"] == 1
        assert len(cache) == 0  # dropped, not just skipped

    def test_untagged_entries_never_satisfy_a_floor(self):
        cache = MetadataCache()
        cache.store("RBH", "memberships", (), ["Research"])
        assert cache.lookup("RBH", "memberships", ())[0]  # no floor yet
        cache.raise_floors({"RBH": 1})
        assert not cache.lookup("RBH", "memberships", ())[0]
        assert not cache.store("RBH", "memberships", (), ["Research"])

    def test_versioned_entries_match_unversioned_lookups(self):
        cache = MetadataCache()
        cache.store("RBH", "memberships", (), ["Research"], epoch=4)
        hit, __ = cache.lookup("RBH", "memberships", ())
        assert hit

    def test_stores_below_the_floor_are_refused_and_counted(self):
        cache = MetadataCache()
        cache.raise_floors({"RBH": 5, "Gone": TOMBSTONE})
        assert not cache.store("RBH", "memberships", (), ["old"], epoch=4)
        assert cache.store("RBH", "memberships", (), ["new"], epoch=5)
        assert not cache.store("Gone", "memberships", (), ["any"], epoch=99)
        assert cache.stats()["stale_stores_refused"] == 2
        assert cache.lookup("RBH", "memberships", ()) == (True, ["new"])

    def test_invalidate_source_drops_only_that_owner(self):
        """One source's floors, as the registry hands them over."""
        cache = MetadataCache()
        cache.store("RBH", "memberships", (), ["Research"], epoch=4)
        cache.store("QUT", "memberships", (), ["Research"], epoch=2)
        assert cache.retire({"RBH": 4}) == 1
        assert not cache.lookup("RBH", "memberships", ())[0]
        assert cache.lookup("QUT", "memberships", ())[0]
        assert not cache.store("RBH", "memberships", (), ["old"], epoch=3)
