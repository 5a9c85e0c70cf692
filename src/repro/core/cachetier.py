"""The shared metadata cache tier.

A per-process :class:`~repro.core.metacache.MetadataCache` stops paying
off once the registry is sharded: every client process re-fetches the
same hot coalition listings from the authoritative co-databases.  This
module adds the paper-era remedy — one cache *server* (itself just
another CORBA object on the fabric) that peers consult before making a
GIOP round-trip to an authoritative co-database.

Coherence reuses the PR 3 epoch machinery end to end:

* every cached value carries the epoch tag of the co-database state it
  was read from (:meth:`CoDatabaseServant.versioned` reads the
  ``applied`` watermark *before* the value, so a racing write can only
  make the tag conservative);
* a registry mutation bumps the owning co-database's epoch and the
  shard's :class:`InvalidationBroadcaster` pushes ``{name: floor}``
  batches to the tier — the floor is the post-mutation epoch, or
  :data:`TOMBSTONE` when the source was removed;
* the tier drops every entry below its floor, refuses *stores* below
  it (an in-flight read that fetched pre-mutation data cannot
  resurrect it), and deduplicates replayed batches by per-origin
  sequence number, so retrying a dropped broadcast is always safe.

Staleness after a mutation is therefore bounded by one broadcast delay
plus the configured retry budget — and it is never silent: a broadcast
that exhausts its retries stays in :attr:`InvalidationBroadcaster.
pending` and is re-pushed with the next batch.

Availability is strictly one-way: :class:`TieredCoDatabaseClient`
treats any tier failure (killed servant, refused connection, shed
request) as a miss and goes straight to the authoritative co-database,
counting the event in ``cache_bypassed`` — queries keep completeness
1.00 with the tier down (the chaos suite in
``tests/core/test_cachetier_chaos.py`` kills it mid-query to prove
this).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Optional

from repro.core.codatabase import CoDatabase
from repro.core.discovery import CoDatabaseClient
from repro.core.metacache import CACHEABLE_OPERATIONS, MetadataCache
from repro.core.resilience import call_policy
from repro.errors import CommFailure, ObjectNotExist, ServerBusy
from repro.orb.idl import InterfaceBuilder, InterfaceDef
from repro.orb.orb import RemoteSystemError

#: Floor value meaning "this source is gone: cache nothing for it".
TOMBSTONE = -1

#: Tier failures that degrade to a direct GIOP call instead of failing
#: the query: dead endpoint, deactivated servant, shed request, or any
#: unexpected server-side error.  The cache tier is an optimisation; it
#: is never allowed to subtract availability.
BYPASS_ERRORS = (CommFailure, ObjectNotExist, ServerBusy,
                 RemoteSystemError)

#: The cache-tier server interface.
CACHE_TIER_INTERFACE: InterfaceDef = (
    InterfaceBuilder("CacheTier", module="webfindit",
                     doc="Shared epoch-floored metadata cache")
    .operation("ping", doc="Liveness probe")
    .operation("lookup", "database", "operation", "arguments")
    .operation("store", "database", "operation", "arguments", "value",
               "epoch")
    .operation("invalidate", "origin", "seq", "floors",
               doc="Apply one epoch-floor batch from a registry shard")
    .operation("stats")
    .build())


class CacheTierServant:
    """CORBA servant for the shared cache tier.

    Entries live in a :class:`MetadataCache` (TTL + bounded size); the
    servant adds per-source epoch floors and the idempotent
    invalidation protocol.  Floor bookkeeping and entry access share
    one lock so a store racing an invalidation can never slip a
    pre-mutation value past its floor.
    """

    def __init__(self, cache: Optional[MetadataCache] = None,
                 ttl: float = 300.0, max_entries: int = 65536):
        self.cache = cache if cache is not None \
            else MetadataCache(ttl=ttl, max_entries=max_entries)
        self._floors: dict[str, int] = {}
        #: (origin, database) -> last applied broadcast sequence.
        self._applied_seq: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self.lookups = 0
        self.stores = 0
        self.stale_stores_refused = 0
        self.invalidation_batches = 0
        self.invalidated_entries = 0

    def ping(self) -> bool:
        return True

    def lookup(self, database: str, operation: str,
               arguments: list) -> dict[str, Any]:
        with self._lock:
            self.lookups += 1
            floor = self._floors.get(database)
            if floor == TOMBSTONE:
                return {"hit": False, "value": None}
            hit, value = self.cache.lookup_fresh(database, operation,
                                                 tuple(arguments), floor)
            return {"hit": hit, "value": value}

    def store(self, database: str, operation: str, arguments: list,
              value: Any, epoch: int) -> bool:
        """Accept a read-through fill unless it is provably stale.

        A fill tagged below the source's floor fetched pre-mutation
        state that an invalidation already retired; accepting it would
        resurrect stale data with no bound on how long it survives.
        """
        with self._lock:
            floor = self._floors.get(database)
            if floor == TOMBSTONE \
                    or (floor is not None
                        and (epoch is None or epoch < floor)):
                self.stale_stores_refused += 1
                return False
            self.cache.store(database, operation, tuple(arguments), value,
                             epoch)
            self.stores += 1
            return True

    def invalidate(self, origin: str, seq: int, floors: dict) -> bool:
        """Apply one floor batch from shard *origin*.

        Idempotent: each source's floor only moves when the batch
        sequence is newer than the last one applied for it from that
        origin, so dropped-and-retried or duplicated broadcasts cannot
        regress a floor (every source is owned by exactly one shard,
        hence one origin).
        """
        with self._lock:
            self.invalidation_batches += 1
            affected = []
            for database, floor in floors.items():
                key = (origin, database)
                last = self._applied_seq.get(key)
                if last is not None and seq <= last:
                    continue
                self._applied_seq[key] = seq
                self._floors[database] = floor
                affected.append(database)
            if affected:
                before = self.cache.invalidations
                self.cache.invalidate(affected)
                self.invalidated_entries += (self.cache.invalidations
                                             - before)
            return True

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "lookups": self.lookups,
                "stores": self.stores,
                "stale_stores_refused": self.stale_stores_refused,
                "invalidation_batches": self.invalidation_batches,
                "invalidated_entries": self.invalidated_entries,
                "floors": len(self._floors),
                "cache": self.cache.stats(),
            }


class CacheTierClient:
    """Thin client over the cache tier, local or behind the ORB.

    Raises the transport's own errors — the *caller* decides whether a
    tier failure degrades (discovery does) or propagates (tests).
    """

    def __init__(self, target):
        self._target = target

    def _invoke(self, operation: str, *args: Any) -> Any:
        if hasattr(self._target, "invoke"):
            # Cache-tier operations are all safe to resend: lookups and
            # stores are value-idempotent, invalidations carry seqs.
            with call_policy(idempotent=True):
                return self._target.invoke(operation, *args)
        return getattr(self._target, operation)(*args)

    def ping(self) -> bool:
        return bool(self._invoke("ping"))

    def lookup(self, database: str, operation: str,
               args: tuple) -> tuple[bool, Any]:
        reply = self._invoke("lookup", database, operation, list(args))
        return bool(reply.get("hit")), reply.get("value")

    def store(self, database: str, operation: str, args: tuple,
              value: Any, epoch: int) -> bool:
        return bool(self._invoke("store", database, operation, list(args),
                                 value, epoch))

    def invalidate(self, origin: str, seq: int, floors: dict) -> bool:
        return bool(self._invoke("invalidate", origin, seq, floors))

    def stats(self) -> dict[str, Any]:
        return dict(self._invoke("stats"))


def _wire(value: Any) -> Any:
    """Shape a read result for CDR: objects become their wire structs
    (what the cacheable operations' proxies return anyway)."""
    if isinstance(value, list):
        return [_wire(item) for item in value]
    if hasattr(value, "to_wire"):
        return value.to_wire()
    return value


class TieredCoDatabaseClient(CoDatabaseClient):
    """A co-database client that consults the shared cache tier before
    crossing the ORB to the authoritative co-database.

    Misses fetch through the co-database's ``versioned`` operation so
    the fill carries a conservative epoch tag.  Any tier failure counts
    in :attr:`cache_bypassed` and falls through to a direct call —
    results are always complete, with or without the tier.
    """

    def __init__(self, target: Any, name: str, tier: CacheTierClient):
        super().__init__(target, name)
        self._tier = tier
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bypassed = 0

    def _fetch_versioned(self, operation: str,
                         args: tuple) -> tuple[Any, int]:
        """One counted metadata call returning ``(value, epoch_tag)``."""
        self.calls += 1
        target = self.target
        if isinstance(target, CoDatabase):
            tag = target.applied
            if operation == "memberships":
                value: Any = list(target.memberships)
            else:
                value = getattr(target, operation)(*args)
            return _wire(value), tag
        with call_policy(idempotent=True):
            reply = target.invoke("versioned", operation, list(args))
        return reply["value"], int(reply["epoch"])

    def _call(self, operation: str, *args: Any) -> Any:
        if operation not in CACHEABLE_OPERATIONS:
            return super()._call(operation, *args)
        try:
            hit, value = self._tier.lookup(self.name, operation, args)
        except BYPASS_ERRORS:
            self.cache_bypassed += 1
            return super()._call(operation, *args)
        if hit:
            self.cache_hits += 1
            return value
        self.cache_misses += 1
        value, epoch = self._fetch_versioned(operation, args)
        try:
            self._tier.store(self.name, operation, args, value, epoch)
        except BYPASS_ERRORS:
            self.cache_bypassed += 1
        return value


class InvalidationBroadcaster:
    """Registry invalidation listener that pushes epoch floors to the
    cache tier.

    One broadcaster per registry shard, attached with
    :meth:`Registry.add_invalidation_listener`.  Each mutation's
    audience becomes a ``{name: floor}`` batch — the current
    co-database epoch, or :data:`TOMBSTONE` for a removed source —
    delivered with a per-origin sequence number and a bounded retry
    budget.  Undeliverable floors stay in :attr:`pending` and ride the
    next batch, so staleness is bounded and observable (the
    ``pending_floors`` metric), never silent.
    """

    def __init__(self, registry, deliver: Callable[[str, int, dict], Any],
                 origin: str = "shard0", retries: int = 2,
                 backoff: float = 0.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.registry = registry
        self._deliver = deliver
        self.origin = origin
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        self._lock = threading.Lock()
        self._seq = 0
        self.pending: dict[str, int] = {}
        self.broadcasts = 0
        self.retried = 0
        self.failed_broadcasts = 0

    def __call__(self, names: Iterable[str]) -> None:
        """The listener hook: compute floors for *names* and push."""
        floors: dict[str, int] = {}
        for name in names:
            if self.registry.has_source(name):
                floors[name] = self.registry.epoch_of(name)
            else:
                floors[name] = TOMBSTONE
        self.push(floors)

    def push(self, floors: dict) -> bool:
        with self._lock:
            # Later floors overwrite earlier pending ones: epochs only
            # grow and a tombstone is terminal until re-registration.
            self.pending.update(floors)
            if not self.pending:
                return True
            batch = dict(self.pending)
            self._seq += 1
            seq = self._seq
        for attempt in range(1 + self.retries):
            if attempt:
                self.retried += 1
                if self.backoff > 0:
                    self._sleep(self.backoff * attempt)
            try:
                self._deliver(self.origin, seq, batch)
            except BYPASS_ERRORS:
                continue
            with self._lock:
                for name, floor in batch.items():
                    if self.pending.get(name) == floor:
                        del self.pending[name]
            self.broadcasts += 1
            return True
        self.failed_broadcasts += 1
        return False

    def flush(self) -> bool:
        """Retry whatever is still pending (e.g. after a heal)."""
        return self.push({})

    def status(self) -> dict[str, Any]:
        with self._lock:
            return {"origin": self.origin, "seq": self._seq,
                    "broadcasts": self.broadcasts,
                    "retried": self.retried,
                    "failed_broadcasts": self.failed_broadcasts,
                    "pending_floors": len(self.pending)}
