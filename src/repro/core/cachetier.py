"""The shared metadata cache tier.

A per-process :class:`~repro.core.metacache.MetadataCache` stops paying
off once the registry is sharded: every client process re-fetches the
same hot coalition listings from the authoritative co-databases.  This
module adds the paper-era remedy — one cache *server* (itself just
another CORBA object on the fabric) that peers consult before making a
GIOP round-trip to an authoritative co-database.

The tier is the *same cache behind the same rule* as the process-local
one: :class:`CacheTierServant` holds a :class:`MetadataCache`, whose
epoch floors decide every lookup and store, and
:class:`CacheTierClient` offers the ``lookup`` / ``store`` pair
:class:`~repro.core.discovery.CoDatabaseClient` reads through — for
single-servant and replicated sources alike.  What this module adds is
the part that crosses the wire:

* a registry mutation bumps the owning co-database's epoch and the
  shard's :class:`InvalidationBroadcaster` pushes ``{name: floor}``
  batches — the floor is the post-mutation epoch, or
  :data:`TOMBSTONE` when the source was removed — to the tier, or to
  the local cache when that is what the system deploys;
* the servant deduplicates replayed batches by per-origin sequence
  number, so retrying a dropped broadcast is always safe.

Staleness after a mutation is therefore bounded by one broadcast delay
plus the configured retry budget — and it is never silent: a broadcast
that exhausts its retries stays in :attr:`InvalidationBroadcaster.
pending` and is re-pushed with the next batch.

Availability is strictly one-way: the client treats any tier failure
in :data:`BYPASS_ERRORS` (killed servant, refused connection, shed
request) as a miss and goes straight to the authoritative co-database,
counting the event in ``cache_bypassed`` — queries keep completeness
1.00 with the tier down (the chaos suite in
``tests/core/test_cachetier_chaos.py`` kills it mid-query to prove
this).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional

from repro.core.metacache import TOMBSTONE, MetadataCache
from repro.core.resilience import call_policy
from repro.errors import CommFailure, ObjectNotExist, ServerBusy
from repro.orb.idl import InterfaceBuilder, InterfaceDef
from repro.orb.orb import RemoteSystemError

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

    Entries and their epoch floors live in a :class:`MetadataCache`
    (TTL + bounded size, floor checked under the same lock as the entry
    insert); the servant adds the idempotent invalidation protocol and
    the tier's own counters.  A system with only a process-local cache
    applies its floor batches through :meth:`invalidate` too, in place.
    """

    def __init__(self, cache: Optional[MetadataCache] = None,
                 ttl: float = 300.0, max_entries: int = 65536):
        self.cache = cache if cache is not None \
            else MetadataCache(ttl=ttl, max_entries=max_entries)
        #: (origin, database) -> last applied broadcast sequence.
        self._applied_seq: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self.lookups = 0
        self.stores = 0
        self.invalidation_batches = 0
        self.invalidated_entries = 0

    def ping(self) -> bool:
        return True

    def lookup(self, database: str, operation: str,
               arguments: list) -> dict[str, Any]:
        with self._lock:
            self.lookups += 1
        hit, value = self.cache.lookup(database, operation,
                                       tuple(arguments))
        return {"hit": hit, "value": value}

    def store(self, database: str, operation: str, arguments: list,
              value: Any, epoch: int) -> bool:
        stored = self.cache.store(database, operation, tuple(arguments),
                                  value, epoch)
        if stored:
            with self._lock:
                self.stores += 1
        return stored

    def invalidate(self, origin: str, seq: int, floors: dict) -> bool:
        """Apply one floor batch from shard *origin*.

        Idempotent: each source's floor only moves when the batch
        sequence is newer than the last one applied for it from that
        origin, so dropped-and-retried or duplicated broadcasts cannot
        regress a floor (every source is owned by exactly one shard,
        hence one origin).  Floors move before the entries are retired:
        a fill racing the batch is refused by the floor, not dropped by
        luck.
        """
        with self._lock:
            self.invalidation_batches += 1
            fresh = {}
            for database, floor in floors.items():
                key = (origin, database)
                last = self._applied_seq.get(key)
                if last is not None and seq <= last:
                    continue
                self._applied_seq[key] = seq
                fresh[database] = floor
            if fresh:
                self.cache.raise_floors(fresh)
                self.invalidated_entries += self.cache.invalidate(fresh)
            return True

    def stats(self) -> dict[str, Any]:
        cache = self.cache.stats()
        with self._lock:
            return {
                "lookups": self.lookups,
                "stores": self.stores,
                "stale_stores_refused": cache["stale_stores_refused"],
                "invalidation_batches": self.invalidation_batches,
                "invalidated_entries": self.invalidated_entries,
                "floors": cache["floors"],
                "cache": cache,
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
                 origin: str = "shard0", retries: int = 2):
        self.registry = registry
        self._deliver = deliver
        self.origin = origin
        self.retries = retries
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
