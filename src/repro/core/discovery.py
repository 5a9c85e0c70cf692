"""Query resolution over the information space (§2 of the paper).

"Initially, the user specifies the query in terms of relevant
information ... the query is sent to a local metadata repository ...
If the local metadata repository fails to resolve the user's query,
using the information on clusters' inter-relationships, the local
repository sends the query to one or more remote metadata
repositories."

:class:`DiscoveryEngine` implements that algorithm as a breadth-first
exploration of co-databases.  Each one is sent the query once
(``consult``) and answers, from its own metadata,

1. the coalitions it knows that match the topic;
2. the **service links** that advertise it (low-overhead leads to other
   coalitions/databases) and the contacts every link routes on to;
3. for the **local** co-database, the **other members of the local
   coalitions** (the paper's RBH example) — consulted next, and so on
   outward along the link contacts.

Every co-database consulted and every metadata call is counted — one
call per co-database — and ``tests/apps/test_paper_claims.py`` (S1)
compares these counts against the broadcast baseline.  The engine
reaches a co-database through exactly one thing,
:class:`CoDatabaseClient` — the
same class whatever sits behind it (in-process, one servant, a replica
set) and whatever cache, if any, sits in front.

Consultations within one BFS depth are independent — remote
co-databases are autonomous servers — so the engine can fan them out
concurrently (``parallel=True``) on a bounded thread pool.  Fetching
(remote I/O) is separated from merging (scoring, dedup, tracing, cost
accounting), and merges always happen in frontier order, so the
parallel engine returns *byte-identical* results to the sequential
one; only wall-clock differs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.core.cachetier import BYPASS_ERRORS
from repro.core.coalition import Coalition
from repro.core.codatabase import CoDatabase, CoDatabaseServant
from repro.core.metacache import CACHEABLE_OPERATIONS
from repro.core.model import SourceDescription
from repro.core.resilience import (Deadline, ResiliencePolicy, as_deadline,
                                   call_policy, current_policy)
from repro.core.service_link import ServiceLink
from repro.errors import (CircuitOpen, DeadlineExceeded, DiscoveryFailure,
                          ReproError, WebFinditError)
from repro.orb.orb import Proxy

#: Fan-out thread cap when ``max_workers`` is left unset: scaled to the
#: frontier, never beyond this.
DEFAULT_MAX_WORKERS = 16

#: The score at which a lead *resolves* the query (``stop_at_first``).
FULL_MATCH_SCORE = 0.999

#: Extra seconds a parallel merge waits for an in-flight consultation
#: after the query deadline expires, before writing it off as timed
#: out.  Bounds the worst case: a query returns within deadline + grace
#: even when a worker thread is wedged inside a stalled remote call.
DEADLINE_GRACE = 0.25


class CoDatabaseClient:
    """The one client over a co-database, however it is deployed.

    The discovery engine only speaks this interface.  Every read runs
    the same three stages:

    * **cache** — with a *cache* attached (anything with the ``lookup``
      / ``store`` pair of :class:`~repro.core.metacache.MetadataCache`:
      the process-local cache or the shared tier's client), the
      :data:`~repro.core.metacache.CACHEABLE_OPERATIONS` are answered
      from it.  A miss fetches through the co-database's ``versioned``
      operation, so the fill carries its epoch tag in the same round
      trip; a cache that cannot be reached is bypassed, not waited for.
    * **route** — *target* is anything with ``invoke``: one servant's
      CORBA proxy, or a :class:`~repro.core.replication.ReplicaRoute`
      across a replica set.  An in-process :class:`CoDatabase` (unit
      tests, the centralized baseline) is read directly.
    * **invoke** — one metadata call, flagged idempotent, counted in
      :attr:`calls`: the *remote* metadata-call currency of
      ``DiscoveryResult.metadata_calls``.  Cache hits never increment
      it; nothing crosses the ORB to a co-database without
      incrementing it.

    Whatever the route, a read answers with model objects (CDR value
    types: a proxy delivers them as themselves) or plain structs, and
    hands each caller its own copy of anything mutable — a cached value
    or an in-process co-database's stored description is shared.
    """

    def __init__(self, target: Any, name: str, cache: Any = None):
        self._target = target
        self.name = name
        self._cache = cache
        self.calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bypassed = 0

    @classmethod
    def for_local(cls, codatabase: CoDatabase) -> "CoDatabaseClient":
        return cls(codatabase, codatabase.owner_name)

    @classmethod
    def for_proxy(cls, proxy: Proxy, name: str) -> "CoDatabaseClient":
        return cls(proxy, name)

    @property
    def target(self) -> Any:
        """What this client reads: a co-database, a proxy or a route."""
        return self._target

    @property
    def failovers(self) -> int:
        """Failovers made on this client's behalf: its replica route's
        count, 0 over anything else."""
        return getattr(self._target, "failovers", 0)

    def _call(self, operation: str, *args: Any) -> Any:
        cache = self._cache
        if cache is None or operation not in CACHEABLE_OPERATIONS:
            return self._invoke(operation, *args)
        try:
            hit, value = cache.lookup(self.name, operation, args)
        except BYPASS_ERRORS:
            # The cache is an optimisation; it is never allowed to
            # subtract availability.
            self.cache_bypassed += 1
            return self._invoke(operation, *args)
        if hit:
            self.cache_hits += 1
            return value
        self.cache_misses += 1
        reply = self._invoke("versioned", operation, list(args))
        try:
            cache.store(self.name, operation, args, reply["value"],
                        int(reply["epoch"]))
        except BYPASS_ERRORS:
            self.cache_bypassed += 1
        return reply["value"]

    def _invoke(self, operation: str, *args: Any) -> Any:
        self.calls += 1
        target = self._target
        if isinstance(target, CoDatabase):
            # In process, the operations are still the servant's: it is
            # what tags a ``versioned`` read for a cache and answers
            # ``memberships``; everything else it passes through.
            return getattr(CoDatabaseServant(target), operation)(*args)
        # Every co-database operation is a metadata *read*: safe to
        # resend after an ambiguous transport failure, so flag it for
        # the pooled-connection retry in TcpTransport — unless the
        # guarded call this read is part of already has.
        if current_policy().idempotent:
            return target.invoke(operation, *args)
        with call_policy(idempotent=True):
            return target.invoke(operation, *args)

    def consult(self, query: str, neighbors: bool,
                threshold: float) -> dict[str, Any]:
        """The engine's one question (see :meth:`CoDatabase.consult`)."""
        answer = self._call("consult", query, neighbors, threshold)
        return {"matches": [{**m, "members": list(m["members"])}
                            for m in answer["matches"]],
                "leads": [dict(lead) for lead in answer["leads"]],
                "contacts": list(answer["contacts"]),
                "neighbors": list(answer["neighbors"])}

    def find_coalitions(self, query: str) -> list[dict[str, Any]]:
        matches = self._call("find_coalitions", query)
        return [dict(m) for m in matches]

    def memberships(self) -> list[str]:
        return list(self._call("memberships"))

    def service_links(self) -> list[ServiceLink]:
        return list(self._call("service_links"))  # links are immutable

    def neighbor_databases(self) -> list[str]:
        return list(self._call("neighbor_databases"))

    def known_coalitions(self) -> list[Coalition]:
        return [c.copy() for c in self._call("known_coalitions")]

    def subclasses_of(self, class_name: str) -> list[str]:
        return list(self._call("subclasses_of", class_name))

    def instances_of(self, class_name: str) -> list[SourceDescription]:
        # Never cached, and built per call by the co-database (or the
        # decoder): already the caller's own.
        return list(self._call("instances_of", class_name))

    def describe_instance(self, source_name: str) -> SourceDescription:
        return self._call("describe_instance", source_name).copy()

    def documents_of(self, source_name: str) -> list[dict[str, str]]:
        return [dict(d) for d in self._call("documents_of", source_name)]


@dataclass
class CoalitionLead:
    """One discovered lead: a coalition (or linked target) matching the
    topic, with the path of databases whose co-databases revealed it."""

    name: str
    information_type: str
    score: float
    members: list[str] = field(default_factory=list)
    via: list[str] = field(default_factory=list)
    through_link: Optional[str] = None
    #: A database whose co-database can answer for this lead (a member,
    #: or the contact of the service link that revealed it).
    contact: str = ""

    @property
    def hops(self) -> int:
        return len(self.via) - 1 if self.via else 0

    @property
    def entry_database(self) -> Optional[str]:
        """Where follow-up metadata queries about this lead should go."""
        if self.members:
            return self.members[0]
        if self.contact:
            return self.contact
        return self.via[-1] if self.via else None


#: Degradation reasons, in escalating order of how little we learned.
UNREACHABLE = "unreachable"   # consulted, transport/lookup failure
TIMED_OUT = "timed-out"       # consulted, ran out of deadline budget
TRIPPED = "tripped"           # not consulted: circuit breaker open
SKIPPED = "skipped"           # not consulted: deadline already spent


@dataclass(frozen=True)
class DegradedEndpoint:
    """One co-database the resolution could not (fully) use, and why."""

    database: str
    reason: str  # one of UNREACHABLE / TIMED_OUT / TRIPPED / SKIPPED
    detail: str = ""
    depth: int = 0

    def render(self) -> str:
        return f"{self.database} [{self.reason} at depth {self.depth}]"


@dataclass
class DegradedReport:
    """Which parts of the information space a resolution had to skip.

    The paper's algorithm keeps educating the user from whatever
    metadata *is* reachable; this report is the honest footnote — the
    difference between "no answer" and "no answer from the part of the
    space we could explore".
    """

    entries: list[DegradedEndpoint] = field(default_factory=list)

    def add(self, database: str, reason: str, detail: str = "",
            depth: int = 0) -> None:
        self.entries.append(DegradedEndpoint(database=database,
                                             reason=reason, detail=detail,
                                             depth=depth))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return [entry.database for entry in self.entries]

    def by_reason(self) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.reason, []).append(entry.database)
        return grouped

    def summary(self) -> str:
        """One line for CLI / query-processor output."""
        if not self.entries:
            return "no degradation"
        parts = [f"{reason}: {', '.join(names)}"
                 for reason, names in sorted(self.by_reason().items())]
        return (f"{len(self.entries)} co-database(s) skipped — "
                + "; ".join(parts))


@dataclass
class DiscoveryResult:
    """Outcome of one resolution, with the cost accounting benches use."""

    query: str
    leads: list[CoalitionLead]
    codatabases_contacted: int
    metadata_calls: int
    max_depth_reached: int
    trace: list[str] = field(default_factory=list)
    #: Databases whose co-databases could not be reached (autonomous
    #: sources leave at their own discretion; resolution continues).
    unreachable: list[str] = field(default_factory=list)
    #: Metadata-cache accounting for this resolution (all stay zero
    #: when no cache is wired in front of the co-database clients).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Reads that found the shared cache tier unreachable and fell
    #: through to a direct co-database call (tier-down degradation —
    #: completeness is unaffected, only the optimisation is lost).
    cache_bypassed: int = 0
    #: Times a replicated co-database answered from a sibling of the
    #: replica it was first asked at (invisible in the leads; zero
    #: when nothing is replicated or nothing failed).
    failovers: int = 0
    #: Structured account of every co-database this resolution skipped,
    #: timed out on, or found tripped — empty means the reachable
    #: information space was explored in full.
    degraded: DegradedReport = field(default_factory=DegradedReport)
    #: The budget the resolution ran under; follow-up reads share it.
    deadline: Optional[Deadline] = field(default=None, compare=False,
                                         repr=False)

    @property
    def resolved(self) -> bool:
        return bool(self.leads)

    @property
    def partial(self) -> bool:
        """True when some of the information space went unexplored —
        the caller should present leads as "what we could find", not
        "all there is"."""
        return bool(self.degraded)

    def best(self) -> CoalitionLead:
        if not self.leads:
            raise DiscoveryFailure(
                f"query {self.query!r} found no coalitions")
        return self.leads[0]


def _reason_for(error: ReproError) -> str:
    """The degradation reason a failed consultation is reported under."""
    if isinstance(error, CircuitOpen):
        return TRIPPED
    if isinstance(error, DeadlineExceeded):
        return TIMED_OUT
    return UNREACHABLE


@dataclass
class Consultation:
    """What one co-database answered to one question.

    Fetch and merge are separate phases: workers only gather, the
    caller merges in frontier order — that split is what keeps the
    parallel engine deterministic.
    """

    client: Optional[CoDatabaseClient] = None
    #: The co-database's answer (for a frontier member: ``consult``'s).
    answer: Any = None
    error: Optional[ReproError] = None
    #: True when the consultation was never attempted (query deadline
    #: spent before this frontier member's turn came).
    skipped: bool = False


class DiscoveryEngine:
    """Breadth-first resolution across co-databases.

    *resolver* maps a database name to a :class:`CoDatabaseClient`;
    the deployed system backs it with naming-service lookups and CORBA
    proxies, tests may back it with local co-databases directly.

    With *parallel* set, every frontier's consultations run
    concurrently on a bounded thread pool (*max_workers*, default
    scaled to the frontier size, capped at
    :data:`DEFAULT_MAX_WORKERS`).  Results are merged in frontier
    order, so leads, traces, and counters are identical to the
    sequential engine's; ``stop_at_first`` still takes effect at the
    depth boundary, after which no further depth is scheduled.

    With a *policy* (:class:`~repro.core.resilience.ResiliencePolicy`)
    every read of a co-database is one guarded call (:meth:`consult`):
    an open circuit breaker refuses it without a call, a transient
    failure is retried with backoff inside the remaining deadline and
    the retry budget, the outcome feeds the shared health board, and a
    resolution's :attr:`DiscoveryResult.degraded` report names
    everything that was skipped and why.  Without a policy nothing is
    retried, refused or remembered; an explicit ``deadline=`` is still
    honoured.
    """

    def __init__(self, resolver: Callable[[str], CoDatabaseClient],
                 match_threshold: float = 0.5,
                 parallel: bool = False,
                 max_workers: Optional[int] = None,
                 policy: Optional[ResiliencePolicy] = None):
        self._resolve = resolver
        self._threshold = match_threshold
        self._parallel = parallel
        self._max_workers = max_workers
        self._policy = policy
        #: Lazily-created, engine-lifetime worker pool.  Threads are
        #: spawned on demand (so the pool scales with actual frontier
        #: sizes, capped at max_workers) and reused across depths and
        #: discover() calls — per-depth pool creation would cost more
        #: than the fan-out saves on fast networks.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_guard = threading.Lock()

    def close(self) -> None:
        """Release the fan-out worker pool (no-op when sequential)."""
        with self._executor_guard:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    def discover(self, query: str, start_database: str,
                 max_hops: int = 6,
                 stop_at_first: bool = True,
                 deadline: Union[None, float, Deadline] = None
                 ) -> DiscoveryResult:
        """Resolve *query* starting from *start_database*'s co-database.

        With *stop_at_first* (the paper's interactive behaviour) the
        exploration stops once a *full* match is found — partial matches
        are kept as leads but do not resolve the query, mirroring the
        paper's "the coalition Research fails to answer the query"
        example.  Service-link contacts join the frontier, so links are
        followed across cluster boundaries.

        *deadline* is the **total** budget for the resolution (seconds
        or a shared :class:`~repro.core.resilience.Deadline`), not a
        per-hop timeout; it defaults to the deadline of the statement
        the resolution is part of (the enclosing call context's).
        When the budget runs out the engine stops exploring and reports
        everything unvisited in :attr:`DiscoveryResult.degraded` rather
        than raising — a partial answer beats no answer (§2).

        The start repository is the user's own: it is attempted whatever
        its circuit breaker says, and its failure raises.
        """
        deadline = as_deadline(deadline)
        trace: list[str] = []
        leads: list[CoalitionLead] = []
        seen_leads: set[str] = set()
        visited: set[str] = {start_database}
        frontier: list[tuple[str, list[str]]] = [(start_database,
                                                  [start_database])]
        clients: list[CoDatabaseClient] = []
        unreachable: list[str] = []
        degraded = DegradedReport()
        depth = 0
        max_depth_reached = 0

        while frontier and depth <= max_hops:
            max_depth_reached = depth
            next_frontier: list[tuple[str, list[str]]] = []
            consultations = self._consult_frontier(
                frontier,
                lambda client: client.consult(query, depth == 0,
                                              self._threshold),
                deadline, start=depth == 0)
            for (database_name, path), outcome in zip(frontier,
                                                      consultations):
                if outcome.skipped:
                    # Budget spent before its turn: report, don't raise.
                    degraded.add(database_name, SKIPPED,
                                 "query deadline exhausted before "
                                 "consultation", depth=depth)
                    trace.append(
                        f"[depth {depth}] skipping co-database of "
                        f"{database_name!r}: deadline exhausted")
                    continue
                if outcome.client is not None:
                    clients.append(outcome.client)
                    trace.append(
                        f"[depth {depth}] consulting co-database of "
                        f"{database_name!r}")
                error = outcome.error
                if error is not None:
                    # Sources join and leave at their own discretion
                    # (§2.1); a vanished, failing or known-dead
                    # co-database must not abort resolution — report it
                    # and keep exploring.
                    if depth == 0:
                        raise error  # the user's own repository
                    reason = _reason_for(error)
                    if reason != TRIPPED:
                        unreachable.append(database_name)
                    degraded.add(database_name, reason, str(error),
                                 depth=depth)
                    trace.append(
                        f"[depth {depth}] co-database of "
                        f"{database_name!r} {reason}: {error}")
                    continue
                answer = outcome.answer
                self._merge(answer, path, leads, seen_leads, trace)
                # The paper's courtesy check (asked at depth 0 only):
                # "WebFINDIT checks whether other databases from the
                # local coalition are aware of a coalition or service
                # link that deal with this information type."  Members
                # of a coalition share the same coalition metadata, so
                # beyond the local cluster only service links route the
                # query onward — and they do even when the link itself
                # does not advertise the topic: "the local repository
                # sends the query to one or more remote metadata
                # repositories" (§2).
                for onward in answer["neighbors"] + answer["contacts"]:
                    if onward not in visited:
                        visited.add(onward)
                        next_frontier.append((onward, path + [onward]))
            if stop_at_first and any(lead.score >= FULL_MATCH_SCORE
                                     for lead in leads):
                break
            frontier = next_frontier
            depth += 1

        leads.sort(key=lambda lead: (-lead.score, lead.hops, lead.name))
        return DiscoveryResult(
            query=query,
            leads=leads,
            codatabases_contacted=len(clients),
            metadata_calls=sum(client.calls for client in clients),
            max_depth_reached=max_depth_reached,
            trace=trace,
            unreachable=unreachable,
            cache_hits=sum(client.cache_hits for client in clients),
            cache_misses=sum(client.cache_misses for client in clients),
            cache_bypassed=sum(client.cache_bypassed for client in clients),
            failovers=sum(client.failovers for client in clients),
            degraded=degraded, deadline=deadline)

    def members_of(self, lead: CoalitionLead,
                   result: DiscoveryResult) -> list[SourceDescription]:
        """The follow-up read of a resolution: the member descriptions
        of *lead*, asked of its entry database under the resolution's
        deadline.  A co-database that cannot answer joins
        ``result.degraded``; one that does not know the class (a link
        may lead to a database) has no members to give.
        """
        entry = lead.entry_database
        if entry is None:
            return []
        outcome = self.consult(
            entry, lambda client: client.instances_of(lead.name),
            result.deadline)
        error = outcome.error
        if error is None:
            return outcome.answer
        if not isinstance(error, WebFinditError) \
                and entry not in result.degraded.names():
            result.degraded.add(entry, _reason_for(error), str(error),
                                depth=lead.hops + 1)
        return []

    def consult(self, database_name: str,
                ask: Callable[[CoDatabaseClient], Any],
                deadline: Optional[Deadline] = None,
                start: bool = False) -> Consultation:
        """Ask one co-database one question: the one guarded read, for
        frontier consultations (on a worker thread when parallel),
        :meth:`members_of` and the query processor's explore reads.

        Resolving the client is the connection step (naming lookup plus
        proxy setup), so it runs inside the same
        :meth:`~repro.core.resilience.ResiliencePolicy.call` as *ask*:
        breaker, deadline and retry budget in the call context, retry,
        health record, all keyed by *database_name*.  The *start*
        repository of a resolution is attempted whatever its breaker
        says.  A :class:`~repro.errors.ReproError` comes back in the
        outcome, not raised.
        """
        outcome = Consultation()

        def attempt() -> Any:
            if outcome.client is None:
                outcome.client = self._resolve(database_name)
            return ask(outcome.client)

        try:
            if self._policy is None:
                with call_policy(deadline=deadline, idempotent=True):
                    outcome.answer = attempt()
            else:
                outcome.answer = self._policy.call(
                    attempt, key=database_name, idempotent=True,
                    deadline=deadline, probe=start)
        except ReproError as exc:
            outcome.error = exc
        return outcome

    # -- internals ---------------------------------------------------------------

    def _consult_frontier(self, frontier: list[tuple[str, list[str]]],
                          ask: Callable[[CoDatabaseClient], Any],
                          deadline: Optional[Deadline], start: bool
                          ) -> list[Consultation]:
        """Put *ask* to every frontier co-database.

        Sequential and parallel modes return the same list in the same
        (frontier) order; parallelism only overlaps the remote I/O.
        """
        if not self._parallel or len(frontier) < 2 \
                or (deadline is not None and deadline.expired):
            outcomes: list[Consultation] = []
            for name, __ in frontier:
                if deadline is not None and deadline.expired:
                    # Expiry before or in mid-depth: the rest of the
                    # frontier is reported, not silently dropped.
                    outcomes.append(Consultation(skipped=True))
                else:
                    outcomes.append(self.consult(name, ask, deadline, start))
            return outcomes
        pool = self._ensure_executor()
        futures = [pool.submit(self.consult, name, ask, deadline, start)
                   for name, __ in frontier]
        # Collect in submission order, not completion order.
        if deadline is None:
            return [future.result() for future in futures]
        results: list[Consultation] = []
        for (name, __), future in zip(frontier, futures):
            # Workers bound their own I/O by the deadline, but a wedged
            # remote can still hold a thread; never wait for it past
            # deadline + grace — the worker's eventual result is
            # discarded and the executor thread freed when it returns.
            wait = max(0.0, deadline.remaining()) + DEADLINE_GRACE
            try:
                results.append(future.result(timeout=wait))
            except FutureTimeout:
                future.cancel()
                results.append(Consultation(error=DeadlineExceeded(
                    f"co-database of {name!r} did not answer within "
                    f"the query deadline")))
        return results

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_guard:
            if self._executor is None:
                workers = max(1, self._max_workers or DEFAULT_MAX_WORKERS)
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="discovery")
            return self._executor

    def _merge(self, answer: dict[str, Any], path: list[str],
               leads: list[CoalitionLead], seen: set[str],
               trace: list[str]) -> None:
        """Fold one co-database's answer into the shared lead/trace
        state.  Always runs on the coordinating thread, in frontier
        order; *seen* is what keeps one lead per coalition or link
        target across co-databases."""
        for match in answer["matches"]:
            key = f"coalition:{match['name']}"
            if key in seen:
                continue
            seen.add(key)
            leads.append(CoalitionLead(
                name=match["name"],
                information_type=match["information_type"],
                score=match["score"],
                members=match["members"],
                via=list(path)))
            trace.append(
                f"    coalition {match['name']!r} matches "
                f"(score {match['score']:.2f})")
        for link in answer["leads"]:
            # One lead per link target: multiple links into the same
            # coalition (Figure 1 has seven into Medical) collapse.
            key = f"link:{link['to_kind']}:{link['to_name']}"
            if key in seen or f"coalition:{link['to_name']}" in seen:
                continue
            seen.add(key)
            leads.append(CoalitionLead(
                name=link["to_name"],
                information_type=link["information_type"],
                score=link["score"],
                via=list(path),
                through_link=link["label"],
                contact=link["contact"]))
            trace.append(
                f"    service link {link['label']} leads to "
                f"{link['to_kind']} {link['to_name']!r} "
                f"(score {link['score']:.2f})")
