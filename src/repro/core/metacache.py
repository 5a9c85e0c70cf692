"""Co-database metadata caching (hot-path optimisation for discovery).

Discovery is read-dominated: every resolution asks each frontier
co-database the same one question (``consult``), browsing asks a
handful more (``find_coalitions``, ``service_links``, ``memberships``,
``known_coalitions``), and the answers only change when the registry
mutates the information space — a join, a leave, a new service link.
:class:`MetadataCache` keeps those answers for a bounded TTL behind
**one coherence rule** (``WebFinditSystem(metadata_cache=...)`` wires
:meth:`MetadataCache.retire` to the registry):

* every entry carries the epoch tag its value was read at (the
  ``applied`` watermark :meth:`~repro.core.codatabase.
  CoDatabaseServant.versioned` returns with the value);
* every source has an epoch **floor**, raised inside each registry
  mutation that wrote to its co-database — the mutation's *audience*,
  not the whole cache — and :data:`TOMBSTONE` once the source is gone;
* a lookup hits iff the entry is inside its TTL and its tag is at or
  above the floor; a store below the floor is refused and counted, so
  a fill fetched before a mutation and arriving after it can never
  resurrect pre-mutation metadata.

:class:`~repro.core.discovery.CoDatabaseClient` is the one reader.
Only the five read-heavy operations above are ever cached — metadata
*about a specific lead* (``describe_instance``, ``documents_of``, …)
always goes to the authoritative co-database — and entries expire after
``ttl`` seconds regardless, bounding staleness for out-of-band
mutations (autonomous sources may change without telling the
registry).  ``docs/discovery.md`` has the full account.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Mapping, Optional

#: The read-heavy co-database operations worth caching.  Everything
#: else (instance descriptions, documents, subclass walks) stays
#: uncached: those answers feed user-facing detail views, not the
#: discovery hot path.
CACHEABLE_OPERATIONS = frozenset({
    "consult", "find_coalitions", "service_links", "memberships",
    "known_coalitions"})

#: Floor value meaning "this source is gone: cache nothing for it".
TOMBSTONE = -1

_Key = tuple[str, str, tuple]


def _below(tag: Optional[int], floor: Optional[int]) -> bool:
    """Is a value tagged *tag* older than its source's *floor*?  An
    untagged value can never prove itself fresh once a floor exists."""
    return floor is not None and (floor == TOMBSTONE or tag is None
                                  or tag < floor)


class MetadataCache:
    """A TTL + epoch-floor cache over co-database reads.

    Thread-safe: concurrent sessions hit it from many threads at
    once.  Floors and entries share one lock, so a store
    racing a floor update can never slip a pre-mutation value past its
    floor.  *clock* is injectable so tests can advance time without
    sleeping.
    """

    def __init__(self, ttl: float = 30.0, max_entries: int = 4096,
                 clock: Callable[[], float] = time.monotonic):
        self.ttl = ttl
        self.max_entries = max_entries
        self._clock = clock
        self._entries: dict[_Key, tuple[float, Any, Optional[int]]] = {}
        self._floors: dict[str, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.expirations = 0
        #: Entries dropped at lookup because their epoch tag had fallen
        #: below the source's floor.
        self.epoch_invalidations = 0
        #: Fills refused because they were fetched before a mutation
        #: whose floor had already arrived.
        self.stale_stores_refused = 0

    def lookup(self, database: str, operation: str,
               args: tuple) -> tuple[bool, Any]:
        """``(True, value)`` on a live hit, ``(False, None)`` otherwise.

        An entry is live while it is inside its TTL and its epoch tag
        is at or above the source's floor; a dead entry is dropped
        rather than served.
        """
        key = (database, operation, args)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return False, None
            expires, value, tag = entry
            if self._clock() >= expires:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return False, None
            if _below(tag, self._floors.get(database)):
                del self._entries[key]
                self.epoch_invalidations += 1
                self.misses += 1
                return False, None
            self.hits += 1
            return True, value

    def store(self, database: str, operation: str, args: tuple,
              value: Any, epoch: Optional[int] = None) -> bool:
        """Accept a read-through fill unless it is provably stale.

        A fill tagged below the source's floor fetched pre-mutation
        state that a mutation already retired; accepting it would
        resurrect stale data for a whole TTL.
        """
        key = (database, operation, args)
        with self._lock:
            if _below(epoch, self._floors.get(database)):
                self.stale_stores_refused += 1
                return False
            while len(self._entries) >= self.max_entries:
                # Evict the oldest insertion (dicts preserve order).
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = (self._clock() + self.ttl, value, epoch)
            return True

    def raise_floors(self, floors: Mapping[str, int]) -> None:
        """Set each named source's floor to its post-mutation epoch
        (:data:`TOMBSTONE` for a removed source).

        Assignment, not ``max``: a re-registered source restarts its
        epochs below its old floor.
        """
        with self._lock:
            self._floors.update(floors)

    def retire(self, floors: Mapping[str, int]) -> int:
        """Apply one mutation's ``{name: floor}`` map: raise the floors,
        then drop the named sources' entries; returns how many went.

        This is the listener
        :meth:`~repro.core.registry.Registry.add_invalidation_listener`
        expects.  Floors and entries move under one lock, so a fill
        racing the mutation is refused by the floor, not dropped by
        luck.
        """
        with self._lock:
            self._floors.update(floors)
            return self._drop(floors)

    def invalidate(self, databases: Iterable[str] | str) -> int:
        """Drop every cached entry for the given co-database owner(s);
        returns how many went."""
        if isinstance(databases, str):
            databases = (databases,)
        with self._lock:
            return self._drop(set(databases))

    def _drop(self, affected) -> int:
        doomed = [key for key in self._entries if key[0] in affected]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "invalidations": self.invalidations,
                    "expirations": self.expirations,
                    "epoch_invalidations": self.epoch_invalidations,
                    "stale_stores_refused": self.stale_stores_refused,
                    "floors": len(self._floors),
                    "entries": len(self._entries)}
