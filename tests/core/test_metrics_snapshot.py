"""Tear-checks: metrics snapshots stay coherent under writer storms.

``TransportMetrics`` and ``MetadataCache`` serve many threads at once;
both promise that one ``snapshot()``/``stats()`` call observes a single
consistent state, never a mix of before/after a concurrent update.
These tests hammer each with 8 writer threads while a reader asserts
cross-counter invariants that only hold for untorn reads — e.g. with
every ``record()`` carrying a fixed request size, ``bytes_sent`` must
equal ``messages_sent * size`` in *every* snapshot, and the
``per_endpoint`` histogram must sum to ``messages_sent`` exactly.

``system.metrics()`` is covered too: it must read ONE transport
snapshot rather than the live fields one by one.
"""

import threading

from repro.core.metacache import MetadataCache
from repro.core.model import SourceDescription
from repro.core.system import WebFinditSystem
from repro.oodb.database import ObjectDatabase
from repro.orb.transport import TransportMetrics

WRITERS = 8
ROUNDS = 400
REQUEST_SIZE = 100
REPLY_SIZE = 40


def run_writers(target, count=WRITERS):
    stop = threading.Event()
    errors = []

    def loop(index):
        try:
            while not stop.is_set():
                target(index)
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)
    threads = [threading.Thread(target=loop, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    return stop, threads, errors


def test_transport_snapshot_never_tears():
    metrics = TransportMetrics()

    def write(index):
        metrics.record(("host", 9000 + index), REQUEST_SIZE, REPLY_SIZE,
                       reused=index % 2 == 0)
        metrics.record_shed("deadline" if index % 2 else "queue")

    stop, threads, errors = run_writers(write)
    try:
        for __ in range(ROUNDS):
            snap = metrics.snapshot()
            # Every record() moves these three together, under one
            # lock: any snapshot where they disagree is a torn read.
            assert snap["bytes_sent"] == \
                snap["messages_sent"] * REQUEST_SIZE
            assert snap["bytes_received"] == \
                snap["messages_sent"] * REPLY_SIZE
            assert sum(snap["per_endpoint"].values()) == \
                snap["messages_sent"]
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    # Quiescent totals line up too (no lost increments).
    final = metrics.snapshot()
    assert final["messages_sent"] > 0
    assert sum(final["per_endpoint"].values()) == final["messages_sent"]
    assert set(final["per_endpoint"]) == \
        {f"host:{9000 + index}" for index in range(WRITERS)}


def test_transport_snapshot_is_monotonic():
    metrics = TransportMetrics()

    def write(index):
        metrics.record(("host", 7000), REQUEST_SIZE, REPLY_SIZE)

    stop, threads, errors = run_writers(write)
    try:
        previous = 0
        for __ in range(ROUNDS):
            snap = metrics.snapshot()
            assert snap["messages_sent"] >= previous
            previous = snap["messages_sent"]
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors


def test_metadata_cache_stats_never_tear():
    cache = MetadataCache(ttl=60.0, max_entries=64)

    def write(index):
        database = f"db{index}"
        cache.raise_floors({database: 1})
        cache.store(database, "memberships", (), ["Cardio"], epoch=1)
        cache.lookup(database, "memberships", ())          # hit
        cache.raise_floors({database: 2})
        cache.lookup(database, "memberships", ())          # epoch drop
        cache.lookup(f"absent{index}", "memberships", ())  # plain miss
        cache.retire({database: 3})

    stop, threads, errors = run_writers(write)
    try:
        previous_lookups = 0
        for __ in range(ROUNDS):
            stats = cache.stats()
            # Each lookup increments exactly one of hit/miss, and the
            # expiration / epoch-drop counters only ever move together
            # with a miss — both relations break on a torn read.
            lookups = stats["hits"] + stats["misses"]
            assert stats["misses"] >= \
                stats["expirations"] + stats["epoch_invalidations"]
            assert lookups >= previous_lookups
            assert stats["entries"] <= 64
            assert all(value >= 0 for value in stats.values())
            previous_lookups = lookups
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    assert cache.stats()["hits"] > 0
    assert cache.stats()["epoch_invalidations"] > 0


def test_system_metrics_reads_one_transport_snapshot():
    """``system.metrics()`` must take a single atomic transport
    snapshot: while worker threads drive real GIOP traffic, the
    per-endpoint histogram it reports always sums to exactly the
    message total it reports."""
    system = WebFinditSystem()
    for name in ("Alpha", "Beta", "Gamma"):
        database = ObjectDatabase(name=name.lower(), product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name=name, information_type="cardiology",
            location=f"{name.lower()}.net"))
    system.create_coalition("Cardio", "cardiology")
    system.join("Alpha", "Cardio")

    def write(index):
        source = ("Alpha", "Beta", "Gamma")[index % 3]
        system.codatabase_client(source).memberships()

    stop, threads, errors = run_writers(write)
    try:
        for __ in range(80):
            metrics = system.metrics()
            assert sum(metrics["giop_per_endpoint"].values()) == \
                metrics["giop_messages"]
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    final = system.metrics()
    assert final["giop_messages"] > 0
    assert sum(final["giop_per_endpoint"].values()) == \
        final["giop_messages"]
