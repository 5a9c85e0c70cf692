"""Deterministic fault injection for GIOP transports.

The paper's federation assumes autonomous sources that "join and leave
at their own discretion" — which means every failure mode a WAN can
produce must be *exercisable on demand*: connection refusal, lost
requests, lost replies, latency and jitter, truncated or corrupted
frames, and sites that slow down before dying.  :class:`FaultyTransport`
wraps any :class:`~repro.orb.transport.Transport` and injects exactly
those faults from a scripted, seeded plan, so chaos tests are
reproducible bit-for-bit from a seed.

The injection DSL is a set of chainable rule builders::

    faulty = FaultyTransport(InMemoryNetwork(), seed=7)
    faulty.refuse(endpoint)                      # hard-dead site
    faulty.drop_replies(other, rate=0.3)         # 30% reply loss
    faulty.delay(ANY, latency=0.002, jitter=0.001)  # WAN everywhere
    faulty.slow_then_die(flaky, calls=5, latency=0.05)
    faulty.partition({a}, {b, c})                # network split
    faulty.heal(endpoint)                        # site comes back

A :func:`FaultyTransport.partition` severs **both directions** between
two endpoint groups: ``send`` to a severed destination raises
:class:`~repro.errors.CommFailure` when the in-process caller (the
:data:`CLIENT` sentinel) sits on the other side of the cut, and
:meth:`FaultyTransport.severed` answers link-liveness queries between
arbitrary endpoints — the replication layer consults it (via
:meth:`FaultyTransport.link_oracle`) before counting a replica toward
a write quorum or a lease majority.  Partition rules compose with the
same ``after=`` / ``until=`` windows as every other fault: for sends
the window is the destination's per-endpoint call index, for oracle
queries it is a per-link check counter, so "the split heals after N
probes" is scriptable.

Rules keyed by the :data:`ANY` wildcard apply to every endpoint; rules
fire in the order they were added.  ``after=`` / ``until=`` bound a
rule to a window of per-endpoint call indices, which is how
*slow-then-die* patterns are scripted.  Rules with ``rate < 1`` draw
from the transport's seeded RNG: deterministic for a sequential
workload, statistically stable (same marginal rates) for a parallel
one.

Because the wrapper sits *above* the transport, each injected fault
acts on exactly one logical request/reply exchange — on a pipelined
:class:`~repro.orb.transport.TcpTransport` a dropped or truncated
reply is attributed to the one ``request_id`` whose (already-matched)
reply it was, and only that caller fails; sibling requests in flight
on the same connection are untouched.  The same holds in the
event-loop transport mode: batched flushes and the loop's non-blocking
write path happen *below* this wrapper, so a fault window still wraps
whole exchanges, never fractions of a coalesced send.

Injected latency is **deadline-aware**: when the calling thread carries
a :class:`~repro.deadline.Deadline` (see :mod:`repro.deadline`), a
sleep that would overrun the remaining budget is cut short and surfaces
as :class:`~repro.errors.DeadlineExceeded` — exactly what a client-side
timeout would do against a genuinely slow server.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.deadline import current_policy
from repro.errors import CommFailure, DeadlineExceeded
from repro.orb.giop import busy_reply
from repro.orb.transport import Endpoint, Handler, Transport

#: Wildcard endpoint: the rule applies to every destination.
ANY: Endpoint = ("*", 0)

#: The in-process caller's side of the network.  Put :data:`CLIENT` in
#: one group of a :func:`FaultyTransport.partition` to sever the
#: client's own sends to the other group, not just replica↔replica
#: links.
CLIENT: Endpoint = ("client", 0)

#: Fault kinds, in the order they act on a request's life cycle.
KINDS = ("delay", "refuse", "busy", "drop_request", "drop_reply",
         "truncate_reply", "corrupt_reply", "partition")


@dataclass
class FaultRule:
    """One scripted fault, bound to an endpoint (or :data:`ANY`)."""

    kind: str
    rate: float = 1.0
    #: Fire only for per-endpoint call indices in [after, until).
    after: int = 0
    until: Optional[int] = None
    latency: float = 0.0
    jitter: float = 0.0
    keep_bytes: int = 8

    def active_for(self, call_index: int) -> bool:
        if call_index < self.after:
            return False
        return self.until is None or call_index < self.until


@dataclass
class PartitionRule:
    """A bidirectional cut between two endpoint groups.

    Unlike a :class:`FaultRule`, a partition is a property of a *link*,
    not of one destination: it fires for any (src, dst) pair with one
    end in each group, in either direction.  ``after`` / ``until``
    bound the cut to a window of indices **counted from the moment the
    partition was scripted** — the destination's call index for
    ``send``, a per-link check counter for :meth:`FaultyTransport.
    severed` queries.  (Counters the workload already advanced before
    the cut existed are baselined away via *calls_base* /
    *links_base*, so ``until=4`` always means "the next 4".)
    """

    group_a: frozenset[Endpoint]
    group_b: frozenset[Endpoint]
    after: int = 0
    until: Optional[int] = None
    #: Per-endpoint send counts at creation (window zero points).
    calls_base: dict = field(default_factory=dict)
    #: Per-link check counts at creation (window zero points).
    links_base: dict = field(default_factory=dict)

    def active_for(self, index: int) -> bool:
        if index < self.after:
            return False
        return self.until is None or index < self.until

    def crosses(self, a: Endpoint, b: Endpoint) -> bool:
        return ((a in self.group_a and b in self.group_b)
                or (a in self.group_b and b in self.group_a))


def _as_group(spec) -> frozenset:
    """Accept a single endpoint or any iterable of endpoints."""
    if isinstance(spec, tuple) and len(spec) == 2 \
            and isinstance(spec[0], str):
        return frozenset((spec,))
    return frozenset(spec)


class FaultyTransport(Transport):
    """A transport wrapper that injects scripted failures on ``send``.

    Registration and everything else delegate to the wrapped transport,
    so a faulty fabric is a drop-in replacement when deploying a
    :class:`~repro.core.system.WebFinditSystem`.  Per-kind injection
    counters (:attr:`injected`) let tests assert that a scenario
    actually exercised the paths it scripted.
    """

    def __init__(self, inner: Transport, seed: int = 0):
        self.inner = inner
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: dict[Endpoint, list[FaultRule]] = {}
        self._partitions: list[PartitionRule] = []
        self._calls: dict[Endpoint, int] = {}
        self._link_checks: dict[frozenset, int] = {}
        self._lock = threading.RLock()
        #: Count of faults actually fired, by kind.
        self.injected: dict[str, int] = {kind: 0 for kind in KINDS}
        #: Endpoints a fault ever fired for, by kind (tests use this to
        #: check which sites a seeded scenario actually hit).
        self.injected_endpoints: dict[str, set[Endpoint]] = \
            {kind: set() for kind in KINDS}

    # ------------------------------------------------------------- the DSL --

    def rule(self, endpoint: Endpoint, rule: FaultRule) -> "FaultyTransport":
        with self._lock:
            self._rules.setdefault(endpoint, []).append(rule)
        return self

    def refuse(self, endpoint: Endpoint = ANY, rate: float = 1.0,
               after: int = 0, until: Optional[int] = None
               ) -> "FaultyTransport":
        """Connection refused (the site is down or firewalled)."""
        return self.rule(endpoint, FaultRule("refuse", rate=rate,
                                             after=after, until=until))

    def busy(self, endpoint: Endpoint = ANY, rate: float = 1.0,
             after: int = 0, until: Optional[int] = None
             ) -> "FaultyTransport":
        """The server sheds the request with a ``BUSY`` reply before
        doing any work — an overloaded admission queue, scripted.  Lets
        retry-budget and hedging behaviour be tested without actually
        saturating a server: the client sees exactly the synthesized
        GIOP frame a shedding :class:`~repro.orb.transport.TcpTransport`
        would produce."""
        return self.rule(endpoint, FaultRule("busy", rate=rate,
                                             after=after, until=until))

    def drop_requests(self, endpoint: Endpoint = ANY, rate: float = 1.0,
                      after: int = 0) -> "FaultyTransport":
        """The request never reaches the server (safe to resend)."""
        return self.rule(endpoint, FaultRule("drop_request", rate=rate,
                                             after=after))

    def drop_replies(self, endpoint: Endpoint = ANY, rate: float = 1.0,
                     after: int = 0, until: Optional[int] = None
                     ) -> "FaultyTransport":
        """The server processes the request but the reply is lost —
        the ambiguous failure that makes blind resends dangerous."""
        return self.rule(endpoint, FaultRule("drop_reply", rate=rate,
                                             after=after, until=until))

    def delay(self, endpoint: Endpoint = ANY, latency: float = 0.0,
              jitter: float = 0.0, rate: float = 1.0,
              after: int = 0, until: Optional[int] = None
              ) -> "FaultyTransport":
        """Add fixed *latency* plus uniform [0, jitter) per request."""
        return self.rule(endpoint, FaultRule("delay", rate=rate,
                                             after=after, until=until,
                                             latency=latency, jitter=jitter))

    def truncate_replies(self, endpoint: Endpoint = ANY,
                         keep_bytes: int = 8, rate: float = 1.0,
                         after: int = 0, until: Optional[int] = None
                         ) -> "FaultyTransport":
        """Cut replies to *keep_bytes* (a mid-frame connection loss)."""
        return self.rule(endpoint, FaultRule("truncate_reply", rate=rate,
                                             after=after, until=until,
                                             keep_bytes=keep_bytes))

    def corrupt_replies(self, endpoint: Endpoint = ANY, rate: float = 1.0,
                        after: int = 0, until: Optional[int] = None
                        ) -> "FaultyTransport":
        """Flip bytes in the reply body (a damaged GIOP frame)."""
        return self.rule(endpoint, FaultRule("corrupt_reply", rate=rate,
                                             after=after, until=until))

    def slow_then_die(self, endpoint: Endpoint, calls: int,
                      latency: float = 0.05) -> "FaultyTransport":
        """The classic brown-out: *calls* slow answers, then dead."""
        self.delay(endpoint, latency=latency, until=calls)
        return self.refuse(endpoint, after=calls)

    def partition(self, group_a, group_b, after: int = 0,
                  until: Optional[int] = None) -> "FaultyTransport":
        """Sever both directions between two endpoint groups.

        Each argument is one endpoint or an iterable of endpoints; put
        :data:`CLIENT` in a group to cut the in-process caller's own
        sends too.  The ``after`` / ``until`` window counts the
        destination's calls (for sends) and each link's checks (for
        :meth:`severed` queries) **from this moment**, so ``until=N``
        severs the next N probes of a link regardless of earlier
        traffic.
        """
        with self._lock:
            rule = PartitionRule(_as_group(group_a), _as_group(group_b),
                                 after=after, until=until,
                                 calls_base=dict(self._calls),
                                 links_base=dict(self._link_checks))
            self._partitions.append(rule)
        return self

    def heal(self, endpoint: Optional[Endpoint] = None) -> "FaultyTransport":
        """Drop every rule for *endpoint* (or all rules when None).

        Healing an endpoint also lifts any partition naming it; healing
        everything clears all partitions.
        """
        with self._lock:
            if endpoint is None:
                self._rules.clear()
                self._partitions.clear()
            else:
                self._rules.pop(endpoint, None)
                self._partitions = [
                    rule for rule in self._partitions
                    if endpoint not in rule.group_a
                    and endpoint not in rule.group_b]
        return self

    # ---------------------------------------------------------- partitions --

    def severed(self, src: Endpoint, dst: Endpoint) -> bool:
        """Is the *src* ↔ *dst* link currently cut by a partition?

        Each query advances the link's check counter, so ``after`` /
        ``until`` windows on partition rules meter out in probes —
        "severed for the first N quorum checks" is scriptable.
        """
        with self._lock:
            key = frozenset((src, dst))
            index = self._link_checks.get(key, 0)
            self._link_checks[key] = index + 1
            blocked = any(
                rule.crosses(src, dst) and rule.active_for(
                    index - rule.links_base.get(key, 0))
                for rule in self._partitions)
        if blocked:
            self._count("partition", dst)
        return blocked

    def link_oracle(self):
        """Connectivity callback for the replication layer: truthy when
        the link is up (the inverse of :meth:`severed`)."""
        return lambda a, b: not self.severed(a, b)

    def _client_severed(self, endpoint: Endpoint, call_index: int) -> bool:
        """Partition check on the send path (the :data:`CLIENT` side)."""
        with self._lock:
            blocked = any(
                rule.crosses(CLIENT, endpoint) and rule.active_for(
                    call_index - rule.calls_base.get(endpoint, 0))
                for rule in self._partitions)
        if blocked:
            self._count("partition", endpoint)
        return blocked

    # ------------------------------------------------------------ transport --

    def register(self, endpoint: Endpoint, handler: Handler) -> Endpoint:
        return self.inner.register(endpoint, handler)

    def unregister(self, endpoint: Endpoint) -> None:
        self.inner.unregister(endpoint)

    def send(self, endpoint: Endpoint, data: bytes) -> bytes:
        rules, call_index = self._fired_rules(endpoint)
        if self._client_severed(endpoint, call_index):
            raise CommFailure(
                f"injected fault: partition severs the link to "
                f"{endpoint!r} (call #{call_index})")
        reply_faults: list[FaultRule] = []
        for rule in rules:
            if rule.kind == "delay":
                self._count(rule.kind, endpoint)
                self._sleep(rule, endpoint)
            elif rule.kind == "refuse":
                self._count(rule.kind, endpoint)
                raise CommFailure(
                    f"injected fault: connection to {endpoint!r} refused "
                    f"(call #{call_index})")
            elif rule.kind == "busy":
                # Shed before delivery — the server does no work, the
                # caller gets the same BUSY frame a real shedding
                # transport writes (or silence for oneway requests).
                self._count(rule.kind, endpoint)
                shed = busy_reply(data, "injected")
                return shed if shed is not None else b""
            elif rule.kind == "drop_request":
                self._count(rule.kind, endpoint)
                raise CommFailure(
                    f"injected fault: request to {endpoint!r} dropped "
                    f"before delivery")
            else:
                reply_faults.append(rule)
        reply = self.inner.send(endpoint, data)
        for rule in reply_faults:
            self._count(rule.kind, endpoint)
            if rule.kind == "drop_reply":
                raise CommFailure(
                    f"injected fault: reply from {endpoint!r} dropped "
                    f"after the request was delivered")
            if rule.kind == "truncate_reply":
                reply = reply[:rule.keep_bytes]
            elif rule.kind == "corrupt_reply":
                reply = _flip_bytes(reply)
        return reply

    def __getattr__(self, name: str):
        # Everything the wrapper does not fault (metrics, allocate_port,
        # latency, close, ...) behaves exactly like the real transport.
        return getattr(self.inner, name)

    # ------------------------------------------------------------ internals --

    def _fired_rules(self, endpoint: Endpoint
                     ) -> tuple[list[FaultRule], int]:
        """The rules that fire for this call, plus the call's index."""
        with self._lock:
            call_index = self._calls.get(endpoint, 0)
            self._calls[endpoint] = call_index + 1
            candidates = [*self._rules.get(ANY, ()),
                          *self._rules.get(endpoint, ())]
            fired = [rule for rule in candidates
                     if rule.active_for(call_index)
                     and (rule.rate >= 1.0
                          or self._rng.random() < rule.rate)]
        return fired, call_index

    def _count(self, kind: str, endpoint: Endpoint) -> None:
        with self._lock:
            self.injected[kind] += 1
            self.injected_endpoints[kind].add(endpoint)

    def _sleep(self, rule: FaultRule, endpoint: Endpoint) -> None:
        duration = rule.latency
        if rule.jitter > 0.0:
            with self._lock:
                duration += self._rng.random() * rule.jitter
        deadline = current_policy().deadline
        if deadline is not None:
            remaining = deadline.remaining()
            if duration >= remaining:
                if remaining > 0.0:
                    time.sleep(remaining)
                raise DeadlineExceeded(
                    f"injected {duration * 1e3:.1f} ms latency at "
                    f"{endpoint!r} overran the call deadline")
        if duration > 0.0:
            time.sleep(duration)


def _flip_bytes(frame: bytes) -> bytes:
    """Damage a GIOP frame without changing its length: the header's
    size field still matches, but the body no longer decodes."""
    if not frame:
        return frame
    mutated = bytearray(frame)
    position = len(mutated) // 2
    mutated[position] ^= 0xFF
    if len(mutated) > 1:
        mutated[-1] ^= 0xFF
    return bytes(mutated)
