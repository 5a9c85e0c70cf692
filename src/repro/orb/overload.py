"""Server-side admission control and load shedding.

Past saturation, an ORB that accepts everything serves *nothing*: every
request waits out its deadline in the dispatch queue, the server burns
its capacity on work whose caller has already given up, and client
retries multiply the offered load — metastable congestion collapse.
The :class:`AdmissionController` defends the dispatch pool of
:class:`~repro.orb.transport.TcpTransport` (the event loop's
``loop_workers``; a thread-per-connection endpoint asks the same
controller but has no in-process queue for requests to age in, so only
the arrival-time checks can fire there) with three complementary
checks:

* **Bounded queues** — a hard cap on requests admitted but not yet
  dispatched (``queue_limit``), with a lower cap for background
  traffic so anti-entropy and snapshot catch-up brown out before
  interactive queries do.
* **CoDel-shaped sojourn shedding** — a request picked up by a worker
  after sitting in the queue longer than ``target`` starts the clock;
  if sojourn stays above target for a full ``interval`` the controller
  enters a dropping state and sheds queue-aged requests until sojourn
  recovers.  Tracking *sojourn time* rather than queue length makes the
  signal independent of how fast the workers happen to be.
* **Deadline-aware early drop** — requests arrive carrying the
  caller's remaining budget (GIOP service context
  :data:`~repro.orb.giop.DEADLINE_BUDGET_CONTEXT`); once that budget is
  spent the work is dead, and a worker drops it at the cost of a peek
  instead of a full servant dispatch.

Every shed is answered with a distinct ``BUSY`` reply (never a silent
close), so clients can tell "the server is protecting itself" from
"the server is broken" and apply retry *budgets* rather than failover
storms.  All of it is off by default (``OverloadPolicy.shed=False`` is
never constructed implicitly); the transport behaves exactly as before
unless a policy is passed or ``REPRO_SHEDDING=1`` is set.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["OverloadPolicy", "AdmissionTicket", "AdmissionController",
           "SHED_QUEUE_FULL", "SHED_BROWNOUT", "SHED_OVERLOAD",
           "SHED_DEADLINE"]

#: Shed reasons carried in the BUSY reply body.
SHED_QUEUE_FULL = "queue-full"   # admission queue at its hard cap
SHED_BROWNOUT = "brownout"       # background refused at the soft cap
SHED_OVERLOAD = "overload"       # CoDel sojourn above target too long
SHED_DEADLINE = "deadline"       # caller's budget already spent


@dataclass(frozen=True)
class OverloadPolicy:
    """Tuning knobs for one transport's admission controller."""

    #: Master switch: when False the controller admits everything and
    #: records nothing (the transport skips it entirely).
    shed: bool = True
    #: Hard cap on admitted-but-undispatched requests.
    queue_limit: int = 256
    #: Fraction of ``queue_limit`` past which *background* requests are
    #: refused (brownout: shed housekeeping before user traffic).
    background_fraction: float = 0.5
    #: CoDel target sojourn: queueing delay below this is healthy.
    codel_target: float = 0.05
    #: How long sojourn must stay above target before shedding starts.
    codel_interval: float = 0.5


@dataclass
class AdmissionTicket:
    """Per-request state recorded at enqueue, checked at dequeue."""

    enqueued_at: float
    budget: Optional[float]   # caller's remaining seconds, or None
    traffic_class: str = "interactive"
    #: Set once the ticket has been dequeued/abandoned, so error paths
    #: can call :meth:`AdmissionController.abandon` unconditionally.
    settled: bool = field(default=False, repr=False)


class AdmissionController:
    """Thread-safe admission state shared by every connection of every
    endpoint of one transport (they share the same worker capacity)."""

    def __init__(self, policy: OverloadPolicy,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._pending = 0
        # CoDel state: when sojourn first rose above target, and
        # whether we are currently in the dropping regime.
        self._first_above: Optional[float] = None
        self._dropping = False
        # Counters (read under lock via snapshot()).
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_brownout = 0
        self.shed_overload = 0
        self.shed_deadline = 0

    @property
    def enabled(self) -> bool:
        return self.policy.shed

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    # -- enqueue ----------------------------------------------------

    def enqueue(self, budget: Optional[float], traffic_class: str
                ) -> tuple[Optional[AdmissionTicket], Optional[str]]:
        """Admit a request into the dispatch queue, or shed it.

        Returns ``(ticket, None)`` on admission — the ticket must later
        be passed to :meth:`dequeue` (worker pickup) or
        :meth:`abandon` (the request never reached a worker) — or
        ``(None, reason)`` when the request is shed at the door.
        """
        now = self._clock()
        if budget is not None and budget <= 0.0:
            with self._lock:
                self.shed_deadline += 1
            return None, SHED_DEADLINE
        background = traffic_class == "background"
        with self._lock:
            limit = self.policy.queue_limit
            if self._pending >= limit:
                self.shed_queue_full += 1
                return None, SHED_QUEUE_FULL
            if background and \
                    self._pending >= limit * self.policy.background_fraction:
                self.shed_brownout += 1
                return None, SHED_BROWNOUT
            self._pending += 1
            self.admitted += 1
        return AdmissionTicket(enqueued_at=now, budget=budget,
                               traffic_class=traffic_class), None

    # -- dequeue ----------------------------------------------------

    def dequeue(self, ticket: AdmissionTicket) -> Optional[str]:
        """Run the worker-pickup checks for an admitted request.

        Returns ``None`` when the worker should go ahead and dispatch,
        or a shed reason when the request must be refused instead.
        """
        now = self._clock()
        sojourn = now - ticket.enqueued_at
        with self._lock:
            # Test-and-set under the lock: a concurrent abandon() on
            # the same ticket (error paths may call it unconditionally)
            # must not double-decrement ``_pending``.
            first = not ticket.settled
            ticket.settled = True
            if first:
                self._pending -= 1
            if ticket.budget is not None and sojourn >= ticket.budget:
                self.shed_deadline += 1
                return SHED_DEADLINE
            if sojourn < self.policy.codel_target:
                # Healthy sojourn resets the CoDel state machine.
                self._first_above = None
                self._dropping = False
                return None
            if ticket.traffic_class == "background" and self._dropping:
                self.shed_brownout += 1
                return SHED_BROWNOUT
            if self._first_above is None:
                self._first_above = now
                return None
            if self._dropping \
                    or now - self._first_above >= self.policy.codel_interval:
                self._dropping = True
                self.shed_overload += 1
                return SHED_OVERLOAD
        return None

    def abandon(self, ticket: AdmissionTicket) -> None:
        """Release an admitted request that never reached a worker
        (connection died, submit failed).  Safe to call
        unconditionally from error paths: the test-and-set runs under
        the controller lock, so racing abandon/abandon or
        abandon/dequeue settles the ticket exactly once."""
        with self._lock:
            if ticket.settled:
                return
            ticket.settled = True
            self._pending -= 1

    # -- reporting --------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            sheds = (self.shed_queue_full + self.shed_brownout
                     + self.shed_overload)
            return {
                "admitted": self.admitted,
                "pending": self._pending,
                "shed_queue_full": self.shed_queue_full,
                "shed_brownout": self.shed_brownout,
                "shed_overload": self.shed_overload,
                "shed_deadline": self.shed_deadline,
                "requests_shed": sheds,
                "requests_expired": self.shed_deadline,
            }
