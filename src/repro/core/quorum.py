"""Lease-based primary election primitives for replicated co-databases.

The paper's federation is a set of autonomous sites; PR 3 gave each
co-database N replica servants but left *who may write* implicit — the
in-process facade was the only writer, so there was no concurrent-
writer or split-brain story.  This module supplies the missing
coordination vocabulary, used by
:class:`~repro.core.replication.ReplicatedCoDatabase` when quorum mode
is on:

* :class:`LeaseState` — the **replica-side** half: the newest fencing
  epoch this replica has promised, to whom, and until when.  A replica
  grants a lease to a candidate only for a fence newer than anything it
  promised before, and only when no *unexpired* lease is held by
  someone else.  Time-boxing is what makes a dead primary's authority
  expire instead of blocking elections forever.
* :class:`PrimaryLease` — the **candidate-side** half: proof of a won
  election.  It names the replica acting as primary, the fencing epoch
  the majority granted, the grant set, and the expiry instant.  Every
  quorum write is stamped with its fence; replicas refuse stamps older
  than their promise, so a deposed primary — however partitioned,
  however convinced it is still in charge — can never commit once a
  newer lease exists (see ``docs/quorum.md`` for the failure matrix).
* :func:`majority` — the quorum size over the **configured** replica
  set.  Counting dead or partitioned replicas in the denominator is
  deliberate: it is exactly what stops two minority sides from both
  finding "a majority of whoever I can reach".

Clocks are injectable everywhere (``clock=time.monotonic`` by default)
so expiry scenarios are deterministic under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


def majority(replicas: int) -> int:
    """Quorum size over a replica set of *replicas* members."""
    return replicas // 2 + 1


@dataclass
class LeaseState:
    """What one replica remembers about leases (volatile, per process).

    ``promised_fence`` is this replica's write-fence: journal appends
    stamped with an older fence are refused.  It only moves forward.
    """

    promised_fence: int = 0
    holder: Optional[int] = None
    expires_at: float = 0.0

    def grant(self, candidate: int, fence: int, now: float,
              duration: float) -> bool:
        """Grant *candidate* a lease at *fence*, if admissible.

        Refused when the fence is not newer than the promise, or when a
        different holder's lease has not yet expired.  A successful
        grant advances the promise — this replica will reject every
        write fenced below *fence* from now on, which is the fencing
        half of the protocol.
        """
        if fence <= self.promised_fence:
            return False
        if self.holder is not None and self.holder != candidate \
                and now < self.expires_at:
            return False
        self.promised_fence = fence
        self.holder = candidate
        self.expires_at = now + duration
        return True

    def admits(self, fence: int) -> bool:
        """Replica-side write check: is *fence* current enough?"""
        return fence >= self.promised_fence


@dataclass
class PrimaryLease:
    """A won election: the authority to issue quorum writes.

    Held by the facade for registry traffic, or explicitly by chaos
    tests that script dual-primary scenarios (an old
    holder keeps its instance while a new election happens elsewhere).
    """

    index: int                 #: replica acting as primary
    fence: int                 #: fencing epoch the majority granted
    expires_at: float          #: lease expiry (holder-side clock)
    grants: frozenset[int] = field(default_factory=frozenset)
    #: Writes committed under this lease (status/bench accounting).
    commits: int = 0

    def valid(self, now: float) -> bool:
        return now < self.expires_at
