"""Chaos suite for the shared cache tier.

Three failure families, all on the path between registry shards, the
cache-tier servant, and tiered co-database clients:

* **Races** — concurrent mutate-on-one-shard / read-through-on-another
  must never serve an entry older than the pre-mutation epoch once the
  invalidation broadcast has landed, and a late read-through fill of
  pre-mutation data must be refused by its epoch floor rather than
  resurrected.
* **Outages** — killing the cache-tier server degrades every client
  to direct GIOP (counted in ``cache_bypassed``); queries stay
  complete (identical leads to an untiered deployment, nothing
  degraded).  A restarted tier comes back cold and refills.
* **Lossy broadcast** — with a seeded :class:`FaultyTransport`
  dropping/delaying the invalidation path, a stale read is only ever
  possible while the failed broadcast is *tracked* in
  ``pending_floors`` (bounded, observable staleness — never silent),
  and healing plus one flush makes the federation fresh again.

``WEBFINDIT_SHARDS`` sets the shard count (CI sweeps {1, 4}).
"""

import os
import threading

import pytest

from repro.core.cachetier import TOMBSTONE, CacheTierServant
from repro.core.model import SourceDescription
from repro.core.system import WebFinditSystem
from repro.oodb.database import ObjectDatabase
from repro.orb.faults import FaultyTransport
from repro.orb.transport import InMemoryNetwork

from tests.core.test_discovery_properties import lead_fingerprint

SHARDS = int(os.environ.get("WEBFINDIT_SHARDS", "4"))

SOURCES = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta")


def build_system(transport=None, cache_tier=True):
    system = WebFinditSystem(transport=transport, shards=SHARDS,
                             cache_tier=cache_tier)
    for name in SOURCES:
        database = ObjectDatabase(name=name.lower(), product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name=name, information_type="cardiology",
            location=f"{name.lower()}.net"))
    system.create_coalition("Cardio", "cardiology")
    for name in SOURCES[:4]:
        system.join(name, "Cardio")
    return system


def epsilon_visible_from(system, observer):
    """Does *observer*'s co-database (read through the tier) currently
    list Epsilon as a Cardio member?"""
    for coalition in system.codatabase_client(observer).known_coalitions():
        if coalition.name == "Cardio":
            return "Epsilon" in coalition.members
    return False


def pending_floors(system):
    tier = system.metrics()["cache_tier"]
    return sum(entry["pending_floors"] for entry in tier["broadcasters"])


# ---------------------------------------------------------------------------
# Races
# ---------------------------------------------------------------------------


class TestInvalidationRaces:
    def test_reads_after_mutation_are_never_stale(self):
        """The bounded-staleness contract: once a mutation (and its
        synchronous invalidation broadcast) returns, every read-through
        observes the post-mutation state — under concurrent reader
        threads racing their own fills against the floor updates."""
        system = build_system()
        stop = threading.Event()
        reader_errors = []

        def hammer():
            while not stop.is_set():
                try:
                    client = system.codatabase_client("Alpha")
                    client.memberships()
                    client.known_coalitions()
                    system.codatabase_client("Epsilon").memberships()
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
                    system.join("Epsilon", "Cardio")
                else:
                    system.leave("Epsilon", "Cardio")
                assert epsilon_visible_from(system, "Alpha") is joined
                memberships = system.codatabase_client(
                    "Epsilon").memberships()
                assert ("Cardio" in memberships) is joined
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not reader_errors
        stats = system.cache_tier_servant.stats()
        assert stats["invalidation_batches"] > 0
        assert pending_floors(system) == 0

    def test_late_fill_below_floor_is_refused(self):
        """A read-through that fetched pre-mutation data races the
        invalidation and arrives late: the floor refuses the store, so
        stale data cannot be resurrected with unbounded lifetime."""
        servant = CacheTierServant()
        # The mutation's broadcast landed first: floor is epoch 3.
        servant.invalidate("shard1", 1, {"Alpha": 3})
        assert servant.store("Alpha", "memberships", [],
                             ["pre-mutation"], 2) is False
        assert servant.stats()["stale_stores_refused"] == 1
        assert servant.lookup("Alpha", "memberships", []) \
            == {"hit": False, "value": None}
        # A fill at (or above) the floor is the fresh one: accepted.
        assert servant.store("Alpha", "memberships", [],
                             ["post-mutation"], 3) is True
        reply = servant.lookup("Alpha", "memberships", [])
        assert reply == {"hit": True, "value": ["post-mutation"]}

    def test_replayed_broadcast_batches_are_idempotent(self):
        """A retried (duplicated) broadcast cannot regress a floor:
        per-origin sequence numbers deduplicate replays."""
        servant = CacheTierServant()
        servant.invalidate("shard0", 2, {"Alpha": 4})
        assert servant.store("Alpha", "memberships", [], ["v4"], 4)
        # Replay of an old batch (same origin, seq <= applied): no-op.
        servant.invalidate("shard0", 2, {"Alpha": 9})
        assert servant.lookup("Alpha", "memberships", [])["hit"] is True
        # A genuinely newer batch applies.
        servant.invalidate("shard0", 3, {"Alpha": 9})
        assert servant.lookup("Alpha", "memberships", [])["hit"] is False

    def test_tombstone_blocks_resurrection_after_remove(self):
        servant = CacheTierServant()
        assert servant.store("Gone", "memberships", [], ["Cardio"], 3)
        servant.invalidate("shard2", 1, {"Gone": TOMBSTONE})
        assert servant.lookup("Gone", "memberships", []) \
            == {"hit": False, "value": None}
        assert servant.store("Gone", "memberships", [],
                             ["Cardio"], 99) is False

    def test_remove_source_pushes_a_tombstone(self):
        system = build_system()
        system.codatabase_client("Zeta").memberships()  # warm an entry
        system.registry.remove_source("Zeta")
        floors = system.cache_tier_servant.cache._floors
        assert floors.get("Zeta") == TOMBSTONE
        assert pending_floors(system) == 0


# ---------------------------------------------------------------------------
# Outages
# ---------------------------------------------------------------------------


class TestTierOutage:
    def test_kill_degrades_to_direct_giop_with_full_completeness(self):
        system = build_system()
        reference = build_system(cache_tier=False)
        processor = system.query_processor()
        baseline = reference.query_processor()

        warm = processor.discovery.discover("cardiology", "Alpha")
        assert warm.cache_bypassed == 0 and warm.cache_misses > 0

        system.kill_cache_tier()
        degraded = processor.discovery.discover("cardiology", "Alpha")
        expected = baseline.discovery.discover("cardiology", "Alpha")
        # Completeness 1.00: identical leads, nothing skipped, nothing
        # unreachable — only the optimisation is gone.
        assert lead_fingerprint(degraded) == lead_fingerprint(expected)
        assert not degraded.partial
        assert degraded.unreachable == []
        assert degraded.cache_bypassed > 0
        assert degraded.cache_hits == 0
        assert system.metrics()["cache_tier"]["alive"] is False

    def test_restart_comes_back_cold_then_serves_hits(self):
        system = build_system()
        processor = system.query_processor()
        processor.discovery.discover("cardiology", "Alpha")
        system.kill_cache_tier()
        system.restart_cache_tier()
        refill = processor.discovery.discover("cardiology", "Alpha")
        assert refill.cache_bypassed == 0
        assert refill.cache_misses > 0  # the replacement starts empty
        warm = processor.discovery.discover("cardiology", "Alpha")
        assert warm.cache_hits > 0
        assert warm.cache_bypassed == 0
        assert system.metrics()["cache_tier"]["restarts"] == 1

    def test_mutations_during_outage_are_tracked_then_flushed(self):
        system = build_system()
        system.codatabase_client("Alpha").known_coalitions()  # warm
        system.kill_cache_tier()
        system.join("Epsilon", "Cardio")  # broadcast cannot be delivered
        tier = system.metrics()["cache_tier"]
        assert pending_floors(system) > 0
        assert any(entry["failed_broadcasts"] > 0
                   for entry in tier["broadcasters"])
        system.restart_cache_tier()  # flushes the pending floors
        assert pending_floors(system) == 0
        assert epsilon_visible_from(system, "Alpha") is True

    def test_kill_requires_a_deployed_tier(self):
        from repro.errors import WebFinditError
        system = build_system(cache_tier=False)
        with pytest.raises(WebFinditError):
            system.kill_cache_tier()
        with pytest.raises(WebFinditError):
            system.restart_cache_tier()


# ---------------------------------------------------------------------------
# Lossy broadcast path
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestLossyBroadcastPath:
    def test_staleness_is_bounded_and_observable_under_drops(
            self, chaos_seed):
        """With the invalidation path dropping and delaying requests, a
        post-mutation read may be stale ONLY while the failed broadcast
        is tracked in ``pending_floors``; heal + flush restores
        freshness everywhere."""
        faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
        system = build_system(transport=faulty)
        tier_endpoint = system.naming.resolve(
            "webfindit/cache/tier0").primary.endpoint
        system.codatabase_client("Alpha").known_coalitions()  # warm

        faulty.delay(tier_endpoint, latency=0.0005, jitter=0.001)
        faulty.drop_requests(tier_endpoint, rate=0.45)
        silent_staleness = 0
        for round_index in range(16):
            joined = round_index % 2 == 0
            if joined:
                system.join("Epsilon", "Cardio")
            else:
                system.leave("Epsilon", "Cardio")
            observed = epsilon_visible_from(system, "Alpha")
            if observed is not joined:
                # Stale is tolerated only when tracked: the broadcast
                # that failed must be sitting in pending_floors.
                if pending_floors(system) == 0:
                    silent_staleness += 1
        assert silent_staleness == 0
        assert faulty.injected["drop_request"] > 0

        faulty.heal()
        for broadcaster in system._broadcasters:
            assert broadcaster.flush() is True
        assert pending_floors(system) == 0
        final = round_index % 2 == 0  # noqa: F821 — bound by the loop
        assert epsilon_visible_from(system, "Alpha") is final

    def test_broadcast_retries_ride_through_transient_drops(
            self, chaos_seed):
        """A drop window shorter than the retry budget is invisible:
        the broadcaster's retries deliver every floor batch."""
        faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
        system = build_system(transport=faulty)
        tier_endpoint = system.naming.resolve(
            "webfindit/cache/tier0").primary.endpoint
        system.codatabase_client("Alpha").known_coalitions()  # warm
        # Exactly one drop, then the endpoint is clean again: attempt 1
        # fails, the in-line retry succeeds.
        faulty.drop_requests(tier_endpoint, rate=1.0)
        calls_before = faulty.injected["drop_request"]
        system.join("Epsilon", "Cardio")
        faulty.heal(tier_endpoint)
        assert faulty.injected["drop_request"] > calls_before
        for broadcaster in system._broadcasters:
            broadcaster.flush()
        assert pending_floors(system) == 0
        assert epsilon_visible_from(system, "Alpha") is True
