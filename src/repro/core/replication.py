"""Replicated co-databases: the availability layer of the metadata tier.

The paper's sources "join and leave at their own discretion" — which
the client-side resilience of :mod:`repro.core.resilience` can only
*report*.  This module adds the server-side half:

* :class:`ReplicatedCoDatabase` — a drop-in for
  :class:`~repro.core.codatabase.CoDatabase` that the registry writes
  through.  One routine commits every maintenance write: the entry is
  appended to the write-ahead journal (:mod:`repro.core.journal`) of
  each replica it is offered to and, once enough copies exist, applied
  to those replicas' co-databases, carrying one monotonic
  per-co-database **epoch**.  Fan-out and quorum differ only in who is
  offered a write and how many copies it needs.  Reads delegate to the
  primary, so registry code and the ``update_operations`` accounting
  are untouched.
* :class:`ReplicaRuntime` — one replica servant's state: its
  co-database, journal, aliveness, and (filled in by the system layer)
  the ORB/IOR it is served on.  Killing a replica freezes its journal
  at the crash epoch; restarting replays snapshot + journal and, when
  the set advanced past the crash epoch, catches up by **anti-entropy**
  from a live peer (a peer snapshot install).
* :class:`ReplicaRoute` — the routing half: what a
  :class:`~repro.core.discovery.CoDatabaseClient` targets in place of a
  single servant's proxy.  Calls prefer the first replica whose
  circuit breaker admits them, fail over to siblings on transport
  faults or timeouts, and re-resolve through the naming service when a
  cached IOR's generation went stale.  It knows nothing of caching: the
  client's cache stage sits in front of it as in front of any target,
  and the cache's epoch floors are what keep a lagging replica's
  answers out of it.

``docs/availability.md`` and ``docs/quorum.md`` document the protocol;
``tests/apps/test_healthcare_replication_chaos.py`` and
``tests/apps/test_healthcare_quorum_chaos.py`` hold what it buys.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.codatabase import (MAINTENANCE_WRITES, CoDatabase,
                                   write_arguments)
from repro.core.journal import (JournalEntry, ReplicaJournal, apply_entry,
                                encode_operation, replay_entries)
from repro.core.model import Ontology
from repro.core.quorum import LeaseState, PrimaryLease, majority
from repro.core.resilience import FAILURE_ERRORS, HealthBoard, call_policy
from repro.core.snapshot import export_codatabase, import_codatabase
from repro.errors import (CommFailure, ElectionLost, FencedOut, LeaseExpired,
                          QuorumLost, WebFinditError)

#: Default replication factor: primary only (no behaviour change).
DEFAULT_REPLICAS = 1

#: Default primary-lease duration (seconds); see docs/quorum.md.
DEFAULT_LEASE_DURATION = 30.0

#: Connectivity oracle between two replica endpoints: ``link(a, b)`` is
#: True when messages flow.  ``None`` means fully connected.  A
#: :class:`~repro.orb.faults.FaultyTransport` provides one via
#: :meth:`~repro.orb.faults.FaultyTransport.link_oracle`.
LinkOracle = Callable[[tuple, tuple], bool]


def replica_binding(source_name: str, index: int) -> str:
    """Naming-service path of one co-database replica."""
    return f"webfindit/codb/{source_name}/r{index}"


@dataclass
class ReplicaRuntime:
    """One replica servant of a co-database, primary or backup."""

    index: int
    codatabase: CoDatabase
    journal: ReplicaJournal
    alive: bool = True
    #: How often this replica crashed and recovered (for status views).
    restarts: int = 0
    #: Deployment details, owned by the system layer.
    orb: Any = None
    ior: Any = None
    servant: Any = None
    #: (host, port) this replica answers on — what partition rules key
    #: on.  Synthetic until the system layer deploys a real server.
    endpoint: Optional[tuple] = None
    #: Replica-side lease memory: the newest fence promised, to whom.
    lease: LeaseState = field(default_factory=LeaseState)

    @property
    def name(self) -> str:
        return f"r{self.index}"

    @property
    def epoch(self) -> int:
        return self.codatabase.epoch


class ReplicatedCoDatabase:
    """N replica co-databases behind one registry-facing facade.

    The mutators :data:`~repro.core.codatabase.MAINTENANCE_WRITES`
    declares are journaled (WAL) and committed by one routine,
    :meth:`_commit`; reads delegate to the primary.  The facade's
    :attr:`epoch` counts logical maintenance writes — each replica that
    applied the full prefix carries the same number.

    A write discipline decides two things only — who is *offered* a
    write and how many journaled copies it *needs*:

    * **fan-out** (``quorum=False``): every live replica is offered
      each write and one copy commits it; the facade is the implicit,
      unchallenged primary.
    * **quorum** (``quorum=True``): writes require a
      :class:`~repro.core.quorum.PrimaryLease` won by majority
      election, are offered to the live replicas the lease holder can
      reach that admit its fence, and need a **majority of the
      configured replica set**.  A partitioned old primary can
      therefore never commit once a newer lease exists, and writes
      stay available as long as some candidate reaches a majority
      (the facade fails over its own lease automatically).  *link*
      is the connectivity oracle partitions act through;  *clock* is
      injectable for deterministic lease-expiry tests.
    """

    def __init__(self, owner_name: str, ontology: Optional[Ontology] = None,
                 product: str = "ObjectStore",
                 replicas: int = DEFAULT_REPLICAS,
                 journal_factory: Optional[
                     Callable[[str, int], ReplicaJournal]] = None,
                 snapshot_every: Optional[int] = None,
                 quorum: bool = False,
                 lease_duration: float = DEFAULT_LEASE_DURATION,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 link: Optional[LinkOracle] = None):
        if replicas < 1:
            raise WebFinditError("a co-database needs at least one replica")
        self.owner_name = owner_name
        self.ontology = ontology
        self._product = product
        #: Logical maintenance-write version of the whole set.
        self.epoch = 0
        self.snapshot_every = snapshot_every
        self._quorum = quorum
        self.lease_duration = lease_duration
        self._clock = clock
        self._sleep = sleep
        self._link = link
        #: The facade's own primary lease (quorum mode; lazily elected).
        self._lease: Optional[PrimaryLease] = None
        #: Election / write-outcome accounting for status and benches.
        self.elections = 0
        self.aborted_writes = 0
        self.fenced_writes = 0
        self._lock = threading.RLock()
        slug = owner_name.lower().replace(" ", "-")
        self.runtimes: list[ReplicaRuntime] = []
        for index in range(replicas):
            journal = journal_factory(owner_name, index) \
                if journal_factory is not None else ReplicaJournal()
            if journal.snapshot is not None or len(journal):
                # A durable journal from an earlier process: restore the
                # replica from it instead of starting empty — otherwise
                # new writes would re-issue already-used epochs and a
                # later replay would interleave the two runs.
                codatabase = self._rebuild(journal)
            else:
                codatabase = CoDatabase(owner_name, ontology=ontology,
                                        product=product)
            runtime = ReplicaRuntime(
                index=index, codatabase=codatabase, journal=journal,
                endpoint=(f"{slug}-r{index}.webfindit.net", 0))
            # Fencing promises are leases — volatile — but a restarted
            # process must not elect below a fence it already committed
            # under: seed the promise from the journaled high-water.
            runtime.lease.promised_fence = journal.last_fence
            self.runtimes.append(runtime)
        # The facade resumes from the most advanced replica; the others
        # (shorter journals after an unclean stop, or fresh replicas
        # when the factor was raised) catch up by anti-entropy.
        leader = max(self.runtimes, key=lambda runtime: runtime.epoch)
        self.epoch = leader.epoch
        laggards = [runtime for runtime in self.runtimes
                    if runtime.epoch < self.epoch]
        if laggards:
            payload = export_codatabase(leader.codatabase)
            for runtime in laggards:
                runtime.codatabase = import_codatabase(
                    payload, ontology=self.ontology)
                runtime.journal.install_snapshot(payload)

    # ------------------------------------------------------------- replicas --

    @property
    def primary(self) -> CoDatabase:
        """The primary's co-database (reads go here): the current lease
        holder under quorum, else the first live replica."""
        lease = self._lease
        if self._quorum and lease is not None \
                and self.runtimes[lease.index].alive:
            return self.runtimes[lease.index].codatabase
        for runtime in self.runtimes:
            if runtime.alive:
                return runtime.codatabase
        # All replicas down: keep serving in-process reads from r0 —
        # the *servers* are dead, the registry process is not.
        return self.runtimes[0].codatabase

    def live_runtimes(self) -> list[ReplicaRuntime]:
        return [runtime for runtime in self.runtimes if runtime.alive]

    def runtime(self, index: int) -> ReplicaRuntime:
        try:
            return self.runtimes[index]
        except IndexError:
            raise WebFinditError(
                f"co-database of {self.owner_name!r} has no replica "
                f"r{index}") from None

    # ------------------------------------------------------------ elections --

    def _connected(self, source: Optional[tuple],
                   destination: Optional[tuple]) -> bool:
        """Can a message travel *source* → *destination* right now?"""
        if self._link is None or source is None or destination is None:
            return True
        return bool(self._link(source, destination))

    def elect(self, candidate_index: Optional[int] = None) -> PrimaryLease:
        """Run a lease election and adopt the winner as the facade's
        primary.

        With *candidate_index* the named replica stands alone (chaos
        scripts use this to stage dual-primary contests); otherwise
        live replicas stand in index order until one collects a
        majority of grants.  The winning fence is one past the newest
        promise the candidate could observe, so it supersedes every
        lease a majority knows about.  Raises
        :class:`~repro.errors.ElectionLost` when no candidate reaches
        a quorum of the **configured** replica set.
        """
        with self._lock:
            if candidate_index is not None:
                return self._elect(self.runtime(candidate_index))
            last_error = ElectionLost(
                f"no live replica of the co-database of "
                f"{self.owner_name!r} can stand for election")
            for runtime in self.live_runtimes():
                try:
                    return self._elect(runtime)
                except ElectionLost as exc:
                    last_error = exc
            raise last_error

    def _elect(self, candidate: ReplicaRuntime) -> PrimaryLease:
        if not candidate.alive:
            raise ElectionLost(
                f"candidate r{candidate.index} of {self.owner_name!r} "
                f"is dead")
        now = self._clock()
        reachable = [runtime for runtime in self.runtimes
                     if runtime.alive
                     and (runtime.index == candidate.index
                          or self._connected(candidate.endpoint,
                                             runtime.endpoint))]
        fence = max((runtime.lease.promised_fence
                     for runtime in reachable), default=0) + 1
        grants = frozenset(
            runtime.index for runtime in reachable
            if runtime.lease.grant(candidate.index, fence, now,
                                   self.lease_duration))
        needed = majority(len(self.runtimes))
        if len(grants) < needed:
            raise ElectionLost(
                f"candidate r{candidate.index} of {self.owner_name!r} "
                f"won {len(grants)} of {len(self.runtimes)} lease "
                f"grants at fence {fence} (quorum {needed})")
        self.elections += 1
        lease = PrimaryLease(index=candidate.index, fence=fence,
                             expires_at=now + self.lease_duration,
                             grants=grants)
        self._lease = lease
        return lease

    def _ensure_lease(self) -> PrimaryLease:
        """The facade's current lease, re-electing when it lapsed or
        its holder died."""
        lease = self._lease
        if lease is not None and lease.valid(self._clock()) \
                and self.runtimes[lease.index].alive:
            return lease
        return self.elect()

    # ------------------------------------------------------------- mutators --

    def _write(self, operation: str, *args: Any, **kwargs: Any) -> None:
        """One registry-issued maintenance write, under the configured
        discipline: quorum (with automatic primary failover) or the
        all-live fan-out."""
        args = write_arguments(operation, args, kwargs)
        with self._lock:
            if not self._quorum:
                # With no copy journaled (no live replica) the write is
                # refused: an epoch bumped for a write nobody holds
                # would leave the facade ahead of every replica for good.
                self._commit(
                    operation, args, self.live_runtimes(), 1,
                    lambda journaled: CommFailure(
                        f"no live replica of the co-database of "
                        f"{self.owner_name!r} journaled maintenance write "
                        f"{operation!r}; refused"))
                return
            try:
                self._quorum_write(self._ensure_lease(), operation, args)
                return
            except (QuorumLost, FencedOut, LeaseExpired, ElectionLost):
                # The facade's primary lost its majority — partitioned
                # away, deposed, or its lease lapsed mid-write.  Fail
                # over: elect whichever replica can still win a quorum
                # and reissue (the aborted attempt journaled nothing
                # durably, so the retry cannot double-commit).
                pass
            self._quorum_write(self._await_election(), operation, args)

    def _await_election(self) -> PrimaryLease:
        """Elect a new primary, waiting out unexpired grants.

        A partitioned primary's lease blocks re-election on purpose —
        that is the mutual exclusion leases buy — so failover may have
        to wait until a majority's promises lapse.  Bounded by one
        lease duration (plus a margin); an election that still cannot
        win then has no majority anywhere, and the
        :class:`~repro.errors.ElectionLost` propagates.
        """
        pause = max(0.001, self.lease_duration / 20.0)
        deadline = self._clock() + self.lease_duration \
            + max(0.01, self.lease_duration / 2.0)
        while True:
            try:
                return self.elect()
            except ElectionLost:
                if self._clock() >= deadline:
                    raise
                self._sleep(pause)

    def write_as(self, lease: PrimaryLease, operation: str,
                 *args: Any) -> None:
        """Issue one write under an **explicit** lease, with no
        failover: the quorum/fencing verdict surfaces to the caller.
        This is the dual-primary instrument — chaos tests hold a
        deposed primary's lease and prove its writes can never commit.
        """
        self._quorum_write(lease, operation,
                           write_arguments(operation, args))

    def _quorum_write(self, lease: PrimaryLease, operation: str,
                      args: tuple) -> None:
        """Majority-quorum write under *lease*, stamped with its fence.
        A shortfall is :class:`~repro.errors.FencedOut` when a newer
        promise caused it (a reachable replica refused the stamp: the
        primary is deposed), :class:`~repro.errors.QuorumLost` when the
        replicas simply were not there."""
        with self._lock:
            if not lease.valid(self._clock()):
                raise LeaseExpired(
                    f"lease of r{lease.index} over the co-database of "
                    f"{self.owner_name!r} (fence {lease.fence}) expired "
                    f"before write {operation!r}")
            primary = self.runtime(lease.index)
            if not primary.alive:
                raise QuorumLost(
                    f"primary r{lease.index} of {self.owner_name!r} is "
                    f"dead; write {operation!r} refused")
            # A replica partitioned away never sees the offer.
            reachable = [runtime for runtime in self.live_runtimes()
                         if runtime is primary
                         or self._connected(primary.endpoint,
                                            runtime.endpoint)]
            offered = [runtime for runtime in reachable
                       if runtime.lease.admits(lease.fence)]
            needed = majority(len(self.runtimes))

            def shortfall(journaled: int) -> Exception:
                self.aborted_writes += 1
                if len(offered) < len(reachable):
                    self.fenced_writes += 1
                    return FencedOut(
                        f"write {operation!r} by r{lease.index} of "
                        f"{self.owner_name!r} carries stale fence "
                        f"{lease.fence}: a newer lease has been promised")
                return QuorumLost(
                    f"write {operation!r} on the co-database of "
                    f"{self.owner_name!r} reached {journaled} of "
                    f"{len(self.runtimes)} replicas (quorum {needed})")

            self._commit(operation, args, offered, needed, shortfall,
                         fence=lease.fence)
            lease.commits += 1

    def _commit(self, operation: str, args: tuple,
                offered: list[ReplicaRuntime], needed: int,
                shortfall: Callable[[int], Exception],
                fence: int = 0) -> None:
        """The one routine that commits a maintenance write (WAL order).

        The entry — post-write epoch, *fence* — is journaled on every
        *offered* replica; a journal that faults quarantines its
        replica.  Fewer than *needed* copies abort the write with the
        verdict *shortfall* names.  Otherwise the first journaled
        replica applies it: replicas are deterministic state machines
        over one prefix, so its refusal (an unknown coalition, say)
        decides for all and propagates.  Abort and refusal discard
        every copy and consume no epoch — replay can neither resurrect
        nor re-raise them.  Then the siblings apply (one that diverges
        is rolled back and quarantined for anti-entropy to repair at
        recovery), the epoch advances and the snapshot cadence runs.
        """
        epoch = self.epoch + 1
        entry = JournalEntry(epoch=epoch, operation=operation,
                             arguments=encode_operation(operation, args),
                             fence=fence)
        journaled: list[ReplicaRuntime] = []
        for runtime in offered:
            try:
                runtime.journal.append(entry)
            except Exception:
                runtime.alive = False  # journal IO fault: quarantine
            else:
                journaled.append(runtime)
        try:
            if len(journaled) < needed:
                raise shortfall(len(journaled))
            getattr(journaled[0].codatabase, operation)(*args)
        except Exception:
            for runtime in journaled:
                runtime.journal.discard(epoch)
            raise
        for runtime in journaled[1:]:
            try:
                getattr(runtime.codatabase, operation)(*args)
            except Exception:
                runtime.journal.discard(epoch)
                runtime.alive = False  # quarantine for anti-entropy
        self.epoch = epoch
        for runtime in journaled:
            if runtime.alive and self.snapshot_every \
                    and len(runtime.journal) >= self.snapshot_every:
                runtime.journal.install_snapshot(
                    export_codatabase(runtime.codatabase))

    # --------------------------------------------------------------- reads --

    def __getattr__(self, name: str):
        # The declared mutators are journaled and committed; reads
        # (find_coalitions, memberships, ...) and inspection helpers
        # delegate to the primary.
        if name.startswith("_"):
            raise AttributeError(name)
        if name in MAINTENANCE_WRITES:
            return functools.partial(self._write, name)
        return getattr(self.primary, name)

    # ---------------------------------------------------- crash & recovery --

    def _rebuild(self, journal: ReplicaJournal) -> CoDatabase:
        """Rebuild one replica's co-database from its journal: latest
        snapshot (or empty) plus the journal tail."""
        if journal.snapshot is not None:
            codatabase = import_codatabase(journal.snapshot,
                                           ontology=self.ontology)
        else:
            codatabase = CoDatabase(self.owner_name, ontology=self.ontology,
                                    product=self._product)
        replay_entries(codatabase, journal.entries_after(codatabase.epoch))
        return codatabase

    def mark_dead(self, index: int) -> ReplicaRuntime:
        """Freeze replica *index* at its current epoch (server killed):
        its journal stops receiving writes until recovery."""
        with self._lock:
            runtime = self.runtime(index)
            runtime.alive = False
            return runtime

    def reconcile(self) -> int:
        """Anti-entropy sweep over **live** laggards.

        A partitioned replica is not dead — it kept its servant and
        its journal, it just missed the quorum writes committed on the
        other side.  Once the partition heals, this replays the missing
        suffix from the most advanced live replica into each laggard,
        journaling as it goes (so durability follows).  A gap the
        leader's journal no longer covers (snapshot-truncated) marks
        the laggard dead for the full :meth:`recover` path instead.
        Returns how many replicas caught up in place.
        """
        with self._lock:
            live = self.live_runtimes()
            if not live:
                return 0
            leader = max(live, key=lambda runtime: runtime.epoch)
            healed = 0
            for runtime in live:
                if runtime is leader or runtime.epoch >= leader.epoch:
                    continue
                missing = leader.journal.entries_after(runtime.epoch)
                expected = list(range(runtime.epoch + 1, leader.epoch + 1))
                if [entry.epoch for entry in missing] != expected:
                    runtime.alive = False  # needs snapshot recovery
                    continue
                for entry in missing:
                    runtime.journal.append(entry)
                    apply_entry(runtime.codatabase, entry)
                healed += 1
            return healed

    def recover(self, index: int) -> ReplicaRuntime:
        """Crash-recover replica *index*: snapshot + journal replay,
        then anti-entropy from a live peer when the set moved on.

        Returns the runtime with a rebuilt, caught-up co-database; the
        system layer re-activates the servant and re-binds its IOR.
        """
        with self._lock:
            runtime = self.runtime(index)
            if runtime.alive:
                raise WebFinditError(
                    f"replica r{index} of {self.owner_name!r} is alive; "
                    f"kill it before recovering")
            journal = runtime.journal
            codatabase = self._rebuild(journal)
            if codatabase.epoch < self.epoch:
                # The set advanced while this replica was down and its
                # own journal cannot know the missed writes: catch up
                # from a live peer's full state (Bayou-style
                # anti-entropy, collapsed to a snapshot install).
                payload = export_codatabase(self.primary)
                codatabase = import_codatabase(payload,
                                               ontology=self.ontology)
                journal.install_snapshot(payload)
            runtime.codatabase = codatabase
            runtime.alive = True
            runtime.restarts += 1
            return runtime

    # --------------------------------------------------------------- status --

    def lease_status(self) -> dict[str, Any]:
        """The election-side view: fence, holder, expiry, outcomes."""
        with self._lock:
            now = self._clock()
            lease = self._lease
            holder = None
            if lease is not None and lease.valid(now) \
                    and self.runtimes[lease.index].alive:
                holder = f"r{lease.index}"
            fence = lease.fence if lease is not None else max(
                runtime.lease.promised_fence for runtime in self.runtimes)
            return {
                "quorum": self._quorum,
                "majority": majority(len(self.runtimes)),
                "fence": fence,
                "holder": holder,
                "expires_in": (round(max(0.0, lease.expires_at - now), 3)
                               if lease is not None else 0.0),
                "elections": self.elections,
                "aborted_writes": self.aborted_writes,
                "fenced_writes": self.fenced_writes,
            }

    def status(self, health: Optional[HealthBoard] = None) -> dict[str, Any]:
        """Per-replica view for ``\\replicas`` / ``\\health``."""
        replicas = []
        for runtime in self.runtimes:
            entry = {
                "name": runtime.name,
                "alive": runtime.alive,
                "epoch": runtime.epoch,
                "lag": self.epoch - runtime.epoch,
                "journal_entries": len(runtime.journal),
                "restarts": runtime.restarts,
                "durable": runtime.journal.path is not None,
                "promised_fence": runtime.lease.promised_fence,
            }
            if health is not None:
                entry["breaker"] = health.state(
                    replica_key(self.owner_name, runtime.index))
            replicas.append(entry)
        status = {"owner": self.owner_name, "epoch": self.epoch,
                  "replicas": replicas}
        if self._quorum:
            status["lease"] = self.lease_status()
        return status


def replica_key(source_name: str, index: int) -> str:
    """HealthBoard key of one replica endpoint."""
    return f"{source_name}/r{index}"


@dataclass
class ReplicaTarget:
    """What the replica route needs to reach one replica."""

    key: str           # health-board key, e.g. "RBH/r0"
    binding: str       # naming path, e.g. "webfindit/codb/RBH/r0"
    proxy: Callable[[], Any]          # current (possibly cached) proxy
    refresh: Callable[[], tuple[Any, bool]]  # re-resolve; -> (proxy, changed)


class ReplicaRoute:
    """One client's route across a co-database's replica set.

    A route is a *target*: :class:`~repro.core.discovery.
    CoDatabaseClient` calls :meth:`invoke` on it exactly as it would on
    one servant's proxy.  Order of preference is replica order (primary
    first), starting from the replica that last served this client.  A
    replica is skipped without a call when its breaker is open; a
    transport-level failure (refused, dropped, timed out) records a
    per-replica health failure, then tries a **naming re-resolve**:
    when the binding's generation changed (the server restarted and
    re-bound), the retry goes to the fresh IOR — closing the stale-IOR
    window — otherwise the call fails over to the next sibling.  Only
    when every replica fails does the call raise, which is what lets
    the discovery layer mark the co-database degraded only when *all*
    replicas are down.
    """

    #: Failovers this route performed.  Declared on the class: that is
    #: how CoDatabaseClient.failovers tells a route from a proxy.
    failovers = 0

    def __init__(self, name: str, targets: list[ReplicaTarget],
                 health: HealthBoard):
        if not targets:
            raise WebFinditError(f"no replicas known for {name!r}")
        self.name = name
        self._targets = targets
        self._health = health
        self._serving_index = 0

    def _invoke_target(self, target: ReplicaTarget, operation: str,
                       *args: Any) -> Any:
        proxy = target.proxy()
        with call_policy(idempotent=True):
            try:
                return proxy.invoke(operation, *args)
            except FAILURE_ERRORS:
                # The cached IOR may be stale: the server might have
                # restarted and re-bound.  One generation-checked
                # re-resolve; a changed generation means a fresh
                # endpoint worth one immediate retry.
                refreshed, changed = target.refresh()
                if not changed:
                    raise
                return refreshed.invoke(operation, *args)

    def invoke(self, operation: str, *args: Any) -> Any:
        last_error: Optional[Exception] = None
        start = self._serving_index if self._serving_index \
            < len(self._targets) else 0
        order = [*range(start, len(self._targets)), *range(0, start)]
        allowed = [index for index in order
                   if self._health.allow(self._targets[index].key)]
        for index in allowed:
            target = self._targets[index]
            try:
                value = self._invoke_target(target, operation, *args)
            except FAILURE_ERRORS as exc:
                self._health.record(target.key, ok=False)
                last_error = exc
                continue
            self._health.record(target.key, ok=True)
            self._served_by(index)
            return value
        if last_error is not None:
            raise last_error
        raise CommFailure(
            f"all {len(self._targets)} replicas of the co-database of "
            f"{self.name!r} have open circuits")

    def _served_by(self, index: int) -> None:
        """Stick to whichever replica answered; count the move."""
        if index != self._serving_index:
            self.failovers += 1
            self._serving_index = index
