"""Per-call deadlines and the call-scoped resilience context.

A :class:`Deadline` is one *total* time budget shared by every hop of a
logical operation: a discovery query hands the same deadline to every
co-database consultation it fans out, and each consultation's GIOP
round-trips bound their socket timeouts by whatever budget is left —
the paper's "educate the user from whatever metadata *is* reachable"
only works if one stalled site cannot eat the whole query.

Because the budget has to cross layers that must not know about each
other (the discovery engine sits far above :class:`~repro.orb.
transport.TcpTransport`), it travels *implicitly*: :func:`call_policy`
installs a thread-local :class:`CallPolicy` that lower layers read with
:func:`current_policy`.  The context also carries the **idempotence
flag**: a transport may transparently resend a request on a fresh
connection only when the caller has declared the call idempotent —
co-database metadata reads are, data-level invocations are not.

This module sits below both ``repro.orb`` and ``repro.core`` on purpose
(it depends only on ``repro.errors``); the policy layer in
:mod:`repro.core.resilience` re-exports everything here.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, NamedTuple, Optional

from repro.errors import DeadlineExceeded


class Deadline:
    """An absolute expiry shared by every hop of one logical call.

    Immutable after construction, so one instance can be read from many
    fan-out worker threads without locking.  *clock* is injectable for
    tests (same convention as :class:`~repro.core.metacache.
    MetadataCache`).
    """

    __slots__ = ("budget", "_clock", "_expires_at")

    def __init__(self, budget: float,
                 clock: Callable[[], float] = time.monotonic):
        self.budget = budget
        self._clock = clock
        self._expires_at = clock() + budget

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def require(self, what: str = "call") -> float:
        """Remaining budget, or :class:`DeadlineExceeded` if spent."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceeded(
                f"deadline exhausted before {what} "
                f"(budget was {self.budget:.3f}s)")
        return remaining

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget:.3f}, " \
               f"remaining={self.remaining():.3f})"


#: Traffic classes.  Interactive requests are user-facing queries; the
#: background class tags maintenance traffic (anti-entropy
#: ``reconcile_replicas``, snapshot catch-up) that an overloaded server
#: sheds *first* so brownouts degrade housekeeping before user latency.
INTERACTIVE = "interactive"
BACKGROUND = "background"


class RetryBudget:
    """A token bucket capping the retry:first-attempt ratio per key.

    Every first attempt deposits *ratio* tokens into the bucket for its
    key (capped at *burst*); every retry withdraws one whole token.
    Long-run, retries therefore never exceed ``ratio`` of offered load
    no matter how many callers share the budget — the property that
    breaks the metastable feedback loop where a saturated server's
    refusals *create* more traffic.  Buckets start full so a cold
    client can still recover from a transient blip.

    Thread-safe; one instance is meant to be shared by every caller
    talking to the same federation (the cap is only meaningful when it
    is global).
    """

    def __init__(self, ratio: float = 0.1, burst: float = 10.0):
        if ratio < 0.0:
            raise ValueError("retry budget ratio must be >= 0")
        if burst < 1.0:
            raise ValueError("retry budget burst must be >= 1")
        self.ratio = ratio
        self.burst = burst
        self._tokens: dict[str, float] = {}
        self._lock = threading.Lock()
        self.attempts = 0
        self.granted = 0
        self.denied = 0

    def note_attempt(self, key: Optional[str] = None) -> None:
        """Record a first attempt, refilling *key*'s bucket."""
        key = key or "*"
        with self._lock:
            self.attempts += 1
            self._tokens[key] = min(
                self.burst, self._tokens.get(key, self.burst) + self.ratio)

    def try_acquire(self, key: Optional[str] = None) -> bool:
        """Withdraw one retry token, or report the budget exhausted."""
        key = key or "*"
        with self._lock:
            tokens = self._tokens.get(key, self.burst)
            if tokens >= 1.0:
                self._tokens[key] = tokens - 1.0
                self.granted += 1
                return True
            self.denied += 1
            return False

    def tokens(self, key: Optional[str] = None) -> float:
        with self._lock:
            return self._tokens.get(key or "*", self.burst)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {"attempts": self.attempts, "granted": self.granted,
                    "denied": self.denied, "ratio": self.ratio,
                    "burst": self.burst}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryBudget(ratio={self.ratio}, burst={self.burst}, "
                f"granted={self.granted}, denied={self.denied})")


class CallPolicy(NamedTuple):
    """What the layers below may assume about the current call."""

    #: Total budget for the logical operation this call is part of
    #: (None: unbounded — the transport's own default timeout applies).
    deadline: Optional[Deadline] = None
    #: True when re-executing the request server-side is harmless, so a
    #: transport may transparently resend it after an ambiguous failure.
    #: Defaults to False: never duplicate work unless the caller
    #: vouches for it.
    idempotent: bool = False
    #: Which shedding class the server should file this call under.
    traffic_class: str = INTERACTIVE
    #: Budget consulted by transport-level resends (stale pooled
    #: connections) so even "transparent" retries count against the
    #: global retry cap.  None: uncapped.
    retry_budget: Optional[RetryBudget] = None
    #: 1 for the first attempt of the logical call; policy-level
    #: retries (:meth:`~repro.core.resilience.RetryPolicy.call`)
    #: re-enter the transport with the attempt index, so the
    #: transport refills the retry budget only for genuine first
    #: attempts — a resend must never deposit the tokens that would
    #: fund further resends.
    attempt: int = 1


_DEFAULT_POLICY = CallPolicy()
_new_policy = tuple.__new__
_state = threading.local()


def current_policy() -> CallPolicy:
    """The innermost :func:`call_policy` context on this thread."""
    return getattr(_state, "policy", _DEFAULT_POLICY)


class call_policy:
    """Install a call policy for the duration of the ``with`` block.

    Unspecified fields inherit from the enclosing context, so a client
    stub can declare ``idempotent=True`` without knowing whether a
    discovery query above it already set a deadline.  (A plain class,
    not a generator: every statement and every co-database read enters
    one.)
    """

    __slots__ = ("_given", "_previous")

    def __init__(self, deadline: Optional[Deadline] = None,
                 idempotent: Optional[bool] = None,
                 traffic_class: Optional[str] = None,
                 retry_budget: Optional[RetryBudget] = None,
                 attempt: Optional[int] = None):
        self._given = (deadline, idempotent, traffic_class, retry_budget,
                        attempt)

    def __enter__(self) -> CallPolicy:
        previous = self._previous = getattr(_state, "policy",
                                            _DEFAULT_POLICY)
        deadline, idempotent, traffic_class, retry_budget, attempt = \
            self._given
        # tuple.__new__ skips the namedtuple's Python-level __new__.
        merged = _state.policy = _new_policy(CallPolicy, (
            previous.deadline if deadline is None else deadline,
            previous.idempotent if idempotent is None else idempotent,
            previous.traffic_class if traffic_class is None
            else traffic_class,
            previous.retry_budget if retry_budget is None else retry_budget,
            previous.attempt if attempt is None else attempt))
        return merged

    def __exit__(self, *exc_info) -> None:
        _state.policy = self._previous
