"""Resilience policies: deadlines, retries, and circuit breakers.

WebFINDIT federates *hundreds* of autonomous databases whose
co-databases can vanish, stall, or misbehave at any time (§2.1: sources
join and leave at their own discretion).  This module is the one place
that decides how the system behaves when they do:

* **Deadlines** — a discovery query gets one *total* time budget that
  propagates through the whole BFS (see :mod:`repro.deadline`, whose
  primitives are re-exported here): every co-database consultation and
  every GIOP round-trip bounds itself by the remaining budget, so one
  stalled site cannot eat the query.
* **Retries** — :class:`RetryPolicy` retries transient transport
  failures with exponential backoff and *decorrelated jitter* (each
  delay is drawn uniformly from ``[base, previous * multiplier]``,
  which spreads synchronized retry storms better than plain
  exponential).  Retries apply to **idempotent metadata reads only**;
  a failure whose first copy may have been applied server-side is
  never blindly resent.
* **Circuit breakers** — :class:`CircuitBreaker` tracks per-endpoint
  health through the classic closed / open / half-open state machine.
  The shared :class:`HealthBoard` lives on the
  :class:`~repro.core.registry.Registry`, so every discovery engine in
  the federation skips known-dead co-databases instead of burning its
  deadline rediscovering them; ``system.metrics()`` surfaces the
  board's snapshot.

:class:`ResiliencePolicy` bundles the three and is what
:class:`~repro.core.discovery.DiscoveryEngine`,
:class:`~repro.core.query_processor.QueryProcessor`, and the system
facade share; its :meth:`~ResiliencePolicy.call` is the one guard every
co-database read goes through.  ``docs/resilience.md`` documents the
behaviour and the fault-injection DSL used to test it.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Callable, Optional, Union

from repro.deadline import (BACKGROUND, INTERACTIVE, CallPolicy, Deadline,
                            RetryBudget, call_policy, current_policy)
from repro.errors import (CircuitOpen, CommFailure, DeadlineExceeded,
                          ServerBusy, WebFinditError)

__all__ = [
    "Deadline", "CallPolicy", "call_policy", "current_policy",
    "RetryPolicy", "RetryBudget", "HedgePolicy", "CircuitBreaker",
    "HealthBoard", "ResiliencePolicy", "CLOSED", "OPEN", "HALF_OPEN",
    "FAILURE_ERRORS", "as_deadline", "INTERACTIVE", "BACKGROUND",
    "ServerBusy",
]

#: Error classes that count as *endpoint* failures: the site is dead,
#: unreachable, or too slow.  Application-level errors (an unknown
#: coalition, a malformed query) mean the endpoint answered and do not
#: trip breakers or trigger retries.
FAILURE_ERRORS = (CommFailure, DeadlineExceeded)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


def as_deadline(budget: Union[None, float, Deadline]) -> Optional[Deadline]:
    """Normalise a seconds-or-Deadline argument; None is the deadline of
    the enclosing call context (the statement's), if there is one."""
    if budget is None:
        return current_policy().deadline
    if isinstance(budget, Deadline):
        return budget
    return Deadline.after(float(budget))


class RetryPolicy:
    """Bounded retries with exponential backoff + decorrelated jitter.

    ``call`` retries only transport failures
    (:class:`~repro.errors.CommFailure`), only when the caller vouches
    the operation is *idempotent*, and never past the deadline: a retry
    whose backoff sleep would not leave budget for the attempt itself
    is abandoned and the last failure re-raised.
    *seed* fixes the jitter sequence so chaos tests are reproducible;
    *sleep* is injectable so unit tests need not wait.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.05,
                 max_delay: float = 2.0, multiplier: float = 3.0,
                 seed: Optional[int] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 budget: Optional[RetryBudget] = None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        #: Token-bucket cap on the retry:first-attempt ratio.  None
        #: keeps the pre-existing behaviour (attempts alone bound
        #: retries).  With a budget, a retry additionally needs a
        #: token — under a BUSY brownout the whole client population's
        #: retry traffic stays a bounded fraction of offered load.
        self.budget = budget
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Attempts beyond the first, across all calls (benches read it).
        self.retries = 0
        #: Retries refused because the budget was exhausted.
        self.budget_denials = 0

    def next_delay(self, previous: Optional[float] = None) -> float:
        """Decorrelated jitter: uniform over [base, previous * mult]."""
        ceiling = max(self.base_delay,
                      (previous if previous is not None else self.base_delay)
                      * self.multiplier)
        with self._lock:
            drawn = self._rng.uniform(self.base_delay, ceiling)
        return min(self.max_delay, drawn)

    def call(self, fn: Callable[[], object], *, idempotent: bool = False,
             deadline: Optional[Deadline] = None,
             key: Optional[str] = None) -> object:
        """Run *fn*, retrying transient failures when allowed.

        *key* names the endpoint for retry-budget accounting (one
        bucket per key; None shares the global bucket).
        """
        delay: Optional[float] = None
        if self.budget is not None:
            self.budget.note_attempt(key)
        for attempt in range(1, self.max_attempts + 1):
            try:
                if attempt == 1:
                    return fn()
                # Mark retries in the call policy so the transport
                # does not treat the resend as a fresh first attempt
                # and refill the very retry budget being drawn down.
                with call_policy(attempt=attempt):
                    return fn()
            except DeadlineExceeded:
                raise  # the budget is gone; retrying cannot help
            except CommFailure:
                if not idempotent or attempt >= self.max_attempts:
                    raise
                delay = self.next_delay(delay)
                if deadline is not None and deadline.remaining() <= delay:
                    raise  # no budget left for backoff plus an attempt
                if self.budget is not None \
                        and not self.budget.try_acquire(key):
                    with self._lock:
                        self.budget_denials += 1
                    raise  # the retry budget is spent: fail, don't storm
                with self._lock:
                    self.retries += 1
                self._sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


class HedgePolicy:
    """Hedged requests for idempotent reads: fire a second copy at a
    different replica when the first is slower than the recent p99.

    The hedge delay adapts per key from a rolling window of observed
    latencies: hedges fire only for genuinely tail-slow attempts
    (~1% of traffic), so the added load is bounded by construction —
    the classic tail-at-scale trade.  Until *min_samples* observations
    exist the fixed *default_delay* applies.  Thread-safe.
    """

    def __init__(self, default_delay: float = 0.05,
                 percentile: float = 0.99, window: int = 256,
                 min_samples: int = 20):
        self.default_delay = default_delay
        self.percentile = percentile
        self.min_samples = min_samples
        self._window = window
        self._samples: dict[str, deque[float]] = {}
        self._lock = threading.Lock()
        self.hedges_fired = 0
        self.hedges_won = 0
        self.hedges_lost = 0

    def observe(self, key: str, seconds: float) -> None:
        """Record one attempt's latency for *key*."""
        with self._lock:
            samples = self._samples.get(key)
            if samples is None:
                samples = self._samples[key] = deque(maxlen=self._window)
            samples.append(seconds)

    def hedge_delay(self, key: str) -> float:
        """How long to wait on the primary before hedging."""
        with self._lock:
            samples = self._samples.get(key)
            if samples is None or len(samples) < self.min_samples:
                return self.default_delay
            ordered = sorted(samples)
        index = min(len(ordered) - 1,
                    int(self.percentile * len(ordered)))
        return ordered[index]

    def record_hedge(self, won: bool) -> None:
        with self._lock:
            self.hedges_fired += 1
            if won:
                self.hedges_won += 1
            else:
                self.hedges_lost += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"hedges_fired": self.hedges_fired,
                    "hedges_won": self.hedges_won,
                    "hedges_lost": self.hedges_lost}


class CircuitBreaker:
    """Closed / open / half-open health tracking for one endpoint.

    *failure_threshold* consecutive failures open the circuit; after
    *reset_timeout* seconds the next :meth:`allow` admits one probe
    call, whose outcome closes or re-opens it.  Thread-safe; *clock*
    is injectable for tests.
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.failures = 0
        self.successes = 0
        self.trips = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
            self._probing = False

    def allow(self) -> bool:
        """May a call proceed right now?  (Takes the probe slot when
        half-open.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            self._state = CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            tripping = (self._state == HALF_OPEN
                        or (self._state == CLOSED
                            and self._consecutive_failures
                            >= self.failure_threshold))
            if tripping:
                self._state = OPEN
                self._opened_at = self._clock()
                self.trips += 1


class HealthBoard:
    """Per-endpoint circuit breakers, shared federation-wide.

    Keyed by database name at the discovery layer (one co-database per
    source).  The board lives on the registry so health memory persists
    across discovery engines, query processors, and sessions; breakers
    are created lazily with the board's default parameters.
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, key: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                    clock=self._clock)
                self._breakers[key] = breaker
            return breaker

    def allow(self, key: str) -> bool:
        return self.breaker(key).allow()

    def record(self, key: str, ok: bool) -> None:
        breaker = self.breaker(key)
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def state(self, key: str) -> str:
        with self._lock:
            breaker = self._breakers.get(key)
        return breaker.state if breaker is not None else CLOSED

    def forget(self, key: str) -> None:
        """Drop health memory for a removed source."""
        with self._lock:
            self._breakers.pop(key, None)

    def reset(self) -> None:
        with self._lock:
            self._breakers.clear()

    def open_endpoints(self) -> list[str]:
        with self._lock:
            breakers = list(self._breakers.items())
        return [key for key, breaker in breakers if breaker.state == OPEN]

    def snapshot(self) -> dict[str, dict]:
        """Health state per endpoint (``system.metrics()`` embeds it)."""
        with self._lock:
            breakers = list(self._breakers.items())
        return {
            key: {
                "state": breaker.state,
                "failures": breaker.failures,
                "successes": breaker.successes,
                "trips": breaker.trips,
                "rejections": breaker.rejections,
            }
            for key, breaker in breakers
        }


class ResiliencePolicy:
    """The bundle the discovery stack shares: retry + health + budget.

    *default_deadline* (seconds) bounds every statement that does not
    bring its own deadline; None leaves statements unbounded, matching
    the paper's interactive prototype.
    """

    def __init__(self, retry: Optional[RetryPolicy] = None,
                 health: Optional[HealthBoard] = None,
                 default_deadline: Optional[float] = None,
                 hedge: Optional[HedgePolicy] = None):
        self.retry = retry if retry is not None else RetryPolicy()
        self.health = health if health is not None else HealthBoard()
        self.default_deadline = default_deadline
        #: Hedged requests for idempotent replica reads; None (the
        #: default) disables hedging.  The replica route consults it.
        self.hedge = hedge

    def deadline_for(self, budget: Union[None, float, Deadline]
                     ) -> Optional[Deadline]:
        """An explicit budget, else the enclosing call context's, else
        the policy default, else unbounded."""
        deadline = as_deadline(budget)
        if deadline is None and self.default_deadline is not None:
            return Deadline.after(self.default_deadline)
        return deadline

    def call(self, fn: Callable[[], object], *, key: Optional[str] = None,
             idempotent: bool = False,
             deadline: Union[None, float, Deadline] = None,
             probe: bool = False) -> object:
        """The one guarded call: breaker check, call context, retries
        and health record.

        *key* names the endpoint on the health board and in the retry
        budget.  A *probe* is attempted whatever the breaker says — the
        start repository of a resolution has no alternative — and its
        outcome feeds the board like any other.  An application-level
        error (:class:`~repro.errors.WebFinditError`: "no such class")
        is an answer; anything else raised counts against the endpoint.
        """
        deadline = self.deadline_for(deadline)
        if key is not None and not probe and not self.health.allow(key):
            raise CircuitOpen(
                f"circuit open for {key!r}: repeated failures "
                f"(state {self.health.state(key)})")
        answered = False
        try:
            # The retry budget rides the call context so transport-level
            # transparent resends draw from the same cap as our own
            # retries.
            with call_policy(deadline=deadline, idempotent=idempotent,
                             retry_budget=self.retry.budget):
                if deadline is not None:
                    deadline.require(f"call to {key!r}" if key else "call")
                result = self.retry.call(fn, idempotent=idempotent,
                                         deadline=deadline, key=key)
            answered = True
            return result
        except WebFinditError:
            answered = True
            raise
        finally:
            if key is not None:
                self.health.record(key, ok=answered)
