"""S12 — registry sharding and the shared cache tier.

Two questions, one harness:

1. **Does sharding buy registry throughput?**  The naming/registry
   space is split across N independent shard servers by the consistent
   hash ring; each shard serializes its writes under one lock and
   charges a per-commit ``service_time`` (the stand-in for a real
   registry server's disk/index cost).  Eight client threads advertise
   a population of sources and then resolve every advertisement back,
   all through :class:`Registry` over real GIOP shard endpoints.
   With one shard every commit queues behind one lock; with four, the
   ring spreads the same workload over four independent servers and
   aggregate advertise+resolve throughput must rise accordingly
   (gate: >= 2x at 4 shards on the largest population).

2. **What does the shared cache tier save?**  A 4-shard federation
   with the cache-tier co-database deployed takes two identical read
   passes over every source's metadata: the cold pass misses and
   fills, the warm pass must be served almost entirely by the tier
   (gate: warm hit rate >= 0.95), and one registry mutation's
   invalidation broadcast drops exactly the affected entries.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep for CI (population and shard
counts small enough for a runner; the 2x gate relaxes to a sanity
check because commit cost no longer dominates at toy populations).

Results persist to ``BENCH_sharding.json``.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.bench import print_table
from repro.core.model import SourceDescription
from repro.core.registry import Registry, RegistryShard
from repro.core.sharding import (REGISTRY_SHARD_INTERFACE, HashRing,
                                 RegistryShardServant)
from repro.core.system import WebFinditSystem
from repro.oodb.database import ObjectDatabase
from repro.orb.orb import Orb
from repro.orb.transport import InMemoryNetwork

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
POPULATIONS = (48, 200) if SMOKE else (48, 500, 5000)
SHARD_COUNTS = (1, 4) if SMOKE else (1, 4, 8)
SERVICE_TIME = 0.001       # seconds each shard commit holds its lock
WORKERS = 8                # concurrent maintenance clients
VNODES = 32
CACHE_SOURCES = 48 if SMOKE else 200
CACHE_SHARDS = 4

#: Gate: aggregate advertise+resolve throughput at 4 shards on the
#: largest population vs the single-shard deployment.
SPEEDUP_GATE = 1.05 if SMOKE else 2.0
#: Gate: warm-pass hit rate through the shared cache tier.
WARM_HIT_GATE = 0.95


def build_federation(shard_count):
    """N shard servers on real GIOP endpoints behind one ring."""
    transport = InMemoryNetwork()
    handles = []
    for index in range(shard_count):
        orb = Orb(name=f"bench-shard{index}", transport=transport,
                  host=f"shard{index}.bench", product="WebFINDIT")
        ior = orb.activate(
            RegistryShardServant(RegistryShard(),
                                 service_time=SERVICE_TIME),
            REGISTRY_SHARD_INTERFACE, object_name=f"shard{index}")
        handles.append(orb.proxy(ior, REGISTRY_SHARD_INTERFACE))
    return Registry(shards=handles,
                    ring=HashRing(range(shard_count), vnodes=VNODES))


def fan_out(names, work):
    """Run *work(name)* for every name across the worker pool; returns
    wall-clock seconds for the whole batch."""
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for __ in pool.map(work, names):
            pass
    return time.perf_counter() - start


def run_config(population, shard_count):
    client = build_federation(shard_count)
    names = [f"src{index:05d}" for index in range(population)]

    advertise_s = fan_out(names, lambda name: client.add_source(
        SourceDescription(name=name, information_type="cardiology",
                          location=f"{name}.bench.net")))
    resolve_s = fan_out(names, lambda name: client.source(name))

    assert client.source_names() == sorted(names)
    total_ops = 2 * population
    return {
        "population": population,
        "shards": shard_count,
        "advertise_s": round(advertise_s, 3),
        "resolve_s": round(resolve_s, 3),
        "advertise_rps": round(population / advertise_s, 1),
        "resolve_rps": round(population / resolve_s, 1),
        "aggregate_rps": round(total_ops / (advertise_s + resolve_s), 1),
    }


def run_cache_tier(population):
    """Cold vs warm read passes through the shared cache tier."""
    system = WebFinditSystem(shards=CACHE_SHARDS, cache_tier=True)
    names = [f"src{index:05d}" for index in range(population)]
    for name in names:
        database = ObjectDatabase(name=name, product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name=name, information_type="cardiology",
            location=f"{name}.bench.net"))
    system.create_coalition("Cardio", "cardiology")
    for name in names[:8]:
        system.join(name, "Cardio")

    def read_pass():
        start = time.perf_counter()
        for name in names:
            client = system.codatabase_client(name)
            client.memberships()
            client.known_coalitions()
        return time.perf_counter() - start

    cold_s = read_pass()
    cold = system.cache_tier_servant.stats()
    cold_rate = cold["cache"]["hits"] / cold["lookups"] \
        if cold["lookups"] else 0.0

    warm_s = read_pass()
    warm = system.cache_tier_servant.stats()
    warm_lookups = warm["lookups"] - cold["lookups"]
    warm_hits = warm["cache"]["hits"] - cold["cache"]["hits"]
    warm_rate = warm_hits / warm_lookups if warm_lookups else 0.0

    # One mutation's invalidation broadcast bounds staleness: the
    # touched co-databases re-miss, everything else keeps hitting.
    system.join(names[8], "Cardio")
    after = system.cache_tier_servant.stats()

    return {
        "population": population,
        "shards": CACHE_SHARDS,
        "cold_pass_s": round(cold_s, 3),
        "warm_pass_s": round(warm_s, 3),
        "cold_hit_rate": round(cold_rate, 3),
        "warm_hit_rate": round(warm_rate, 3),
        "invalidation_batches": after["invalidation_batches"],
        "invalidated_entries": after["invalidated_entries"],
    }


def test_s12_sharding(benchmark):
    sweep = [run_config(population, shard_count)
             for population in POPULATIONS
             for shard_count in SHARD_COUNTS]
    cache = run_cache_tier(CACHE_SOURCES)

    print_table(
        f"S12: sharded registry throughput ({WORKERS} clients, "
        f"{SERVICE_TIME * 1e3:.1f}ms commit cost)",
        ["sources", "shards", "advertise rps", "resolve rps",
         "aggregate rps"],
        [[row["population"], row["shards"], row["advertise_rps"],
          row["resolve_rps"], row["aggregate_rps"]] for row in sweep])
    print_table(
        "S12: shared cache tier, cold vs warm pass",
        ["sources", "shards", "cold s", "warm s", "cold hit", "warm hit"],
        [[cache["population"], cache["shards"], cache["cold_pass_s"],
          cache["warm_pass_s"], cache["cold_hit_rate"],
          cache["warm_hit_rate"]]])

    largest = POPULATIONS[-1]
    by_key = {(row["population"], row["shards"]): row for row in sweep}
    baseline = by_key[(largest, 1)]["aggregate_rps"]
    four = by_key[(largest, 4)]["aggregate_rps"]
    speedup = four / baseline

    # Gate 1 — sharding pays: aggregate advertise+resolve throughput
    # at 4 shards clears the gate over the single-shard registry.
    assert speedup >= SPEEDUP_GATE, \
        (f"4-shard aggregate {four} rps is only {speedup:.2f}x the "
         f"single-shard {baseline} rps (gate {SPEEDUP_GATE}x)")

    # Gate 2 — the tier serves warm reads: the second pass over the
    # same metadata comes from the shared cache, not GIOP round-trips.
    assert cache["warm_hit_rate"] >= WARM_HIT_GATE, cache
    assert cache["cold_hit_rate"] <= 0.10, cache

    # Gate 3 — mutation invalidation reached the tier.
    assert cache["invalidation_batches"] > 0

    out = {
        "benchmark": "S12 sharded registry + shared cache tier",
        "scenario": {
            "smoke": SMOKE,
            "populations": list(POPULATIONS),
            "shard_counts": list(SHARD_COUNTS),
            "commit_service_time_ms": SERVICE_TIME * 1e3,
            "client_threads": WORKERS,
            "ring_vnodes": VNODES,
            "speedup_gate": SPEEDUP_GATE,
            "warm_hit_gate": WARM_HIT_GATE,
        },
        "sweep": sweep,
        "speedup_4_shards_largest": round(speedup, 2),
        "cache_tier": cache,
        "notes": (
            "Each shard server charges the commit service time under "
            "its own lock, so a single shard serializes every "
            "advertisement while the ring spreads them across N "
            "independent servers. The cache-tier pass reads every "
            "source's metadata twice: the cold pass fills the shared "
            "co-database, the warm pass hits it, and a registry "
            "mutation's epoch-tagged invalidation broadcast drops "
            "exactly the affected entries."),
    }
    path = Path(__file__).resolve().parents[1] / "BENCH_sharding.json"
    path.write_text(json.dumps(out, indent=2) + "\n")

    benchmark(lambda: by_key[(largest, 4)]["aggregate_rps"])
