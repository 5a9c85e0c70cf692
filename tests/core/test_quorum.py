"""Quorum replication: lease election, fencing, and failover.

Every test drives :class:`~repro.core.replication.ReplicatedCoDatabase`
with an injectable clock (and a fake ``sleep`` that advances it), so
lease expiry — the thing the whole protocol turns on — is exercised
deterministically, never by real waiting.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.journal import JournalEntry, ReplicaJournal
from repro.core.quorum import LeaseState, PrimaryLease, majority
from repro.core.replication import ReplicatedCoDatabase
from repro.errors import (ElectionLost, FencedOut, LeaseExpired,
                          QuorumError, QuorumLost)

LEASE = 10.0


class FakeTime:
    """A controllable monotonic clock whose sleep() advances it."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, duration):
        self.now += duration


def build(replicas=3, **kwargs):
    fake = FakeTime()
    facade = ReplicatedCoDatabase(
        "Alpha", replicas=replicas, quorum=True, lease_duration=LEASE,
        clock=fake.clock, sleep=fake.sleep, **kwargs)
    return facade, fake


def cut_minority(facade, *indices):
    """Partition the named replicas away from the rest of the set."""
    minority = {facade.runtimes[i].endpoint for i in indices}

    def link(a, b):
        return not ((a in minority) ^ (b in minority))

    facade._link = link


# ------------------------------------------------------------- primitives --


def test_majority_of_configured_set():
    assert majority(1) == 1
    assert majority(2) == 2
    assert majority(3) == 2
    assert majority(4) == 3
    assert majority(5) == 3


def test_lease_grant_refuses_stale_fence():
    state = LeaseState()
    assert state.grant(0, 1, now=0.0, duration=LEASE)
    assert not state.grant(1, 1, now=0.0, duration=LEASE)  # same fence
    assert not state.grant(1, 0, now=0.0, duration=LEASE)  # older fence
    assert state.promised_fence == 1 and state.holder == 0


def test_lease_grant_refuses_other_holder_until_expiry():
    state = LeaseState()
    assert state.grant(0, 1, now=0.0, duration=LEASE)
    # A different candidate with a newer fence must still wait the
    # lease out — mutual exclusion is the point of the lease.
    assert not state.grant(1, 2, now=LEASE / 2, duration=LEASE)
    # The incumbent itself may renew at a newer fence mid-lease.
    assert state.grant(0, 2, now=LEASE / 2, duration=LEASE)
    # And once expired, anyone with a newer fence may take over.
    assert state.grant(1, 3, now=LEASE / 2 + LEASE + 1, duration=LEASE)
    assert state.holder == 1 and state.promised_fence == 3


def test_lease_admits_only_current_or_newer_fences():
    state = LeaseState()
    state.grant(0, 3, now=0.0, duration=LEASE)
    assert state.admits(3) and state.admits(4)
    assert not state.admits(2)


# -------------------------------------------------------------- elections --


def test_first_election_wins_fence_one_with_all_grants():
    facade, _ = build()
    lease = facade.elect()
    assert lease.index == 0 and lease.fence == 1
    assert lease.grants == frozenset({0, 1, 2})
    assert facade.elections == 1
    assert all(r.lease.promised_fence == 1 for r in facade.runtimes)


def test_minority_candidate_cannot_win():
    facade, _ = build(replicas=5)
    cut_minority(facade, 0, 1)
    with pytest.raises(ElectionLost):
        facade.elect(candidate_index=0)
    # Even a failed candidacy advances its own promise (the
    # Paxos-prepare effect) but never produces a lease.
    assert facade._lease is None


def test_majority_side_elects_after_old_lease_expires():
    facade, fake = build()
    facade.elect()
    cut_minority(facade, 0)
    with pytest.raises(ElectionLost):
        facade.elect(candidate_index=1)  # r0's lease still unexpired
    fake.now += LEASE + 1
    lease = facade.elect(candidate_index=1)
    assert lease.index == 1 and lease.fence == 2


# ----------------------------------------------------------- quorum writes --


def test_quorum_write_commits_on_every_reachable_replica():
    facade, _ = build()
    facade.attach_document("s1", "html", "<p>one</p>", "http://one")
    assert facade.epoch == 1
    for runtime in facade.runtimes:
        assert runtime.epoch == 1
        assert runtime.journal.entries()[-1].fence == 1
        assert runtime.codatabase.documents_of("s1")


def test_partitioned_primary_fails_over_and_write_commits():
    facade, fake = build()
    facade.attach_document("s1", "html", "one", "")
    cut_minority(facade, 0)
    before = fake.now
    facade.attach_document("s2", "html", "two", "")
    # Failover had to wait out r0's lease before the majority granted.
    assert fake.now - before >= LEASE / 2
    assert facade._lease.index in (1, 2) and facade._lease.fence >= 2
    assert facade.aborted_writes == 1
    assert facade.runtimes[0].epoch == 1  # minority missed the commit
    assert facade.runtimes[1].epoch == facade.runtimes[2].epoch == 2


def test_aborted_write_consumes_no_epoch_and_discards_journals():
    facade, _ = build()
    facade.attach_document("s1", "html", "one", "")
    lease = facade._lease
    cut_minority(facade, 1, 2)  # the primary r0 is now the minority
    with pytest.raises(QuorumLost):
        facade.write_as(lease, "attach_document", "s2", "html", "two", "")
    assert facade.epoch == 1
    assert facade.aborted_writes == 1
    for runtime in facade.runtimes:
        assert runtime.epoch == 1
        assert len(runtime.journal) == 1  # the abort left no trace


def test_no_majority_anywhere_raises_election_lost():
    facade, fake = build(replicas=5)
    facade.attach_document("s1", "html", "one", "")
    # Split 2/3 and kill one of the majority side: no candidate can
    # reach 3 grants, so even waiting out the lease cannot help.
    cut_minority(facade, 0, 1)
    facade.mark_dead(2)
    fake.now += LEASE + 1
    with pytest.raises(ElectionLost):
        facade.attach_document("s2", "html", "two", "")
    assert facade.epoch == 1


# ---------------------------------------------------------------- fencing --


def test_deposed_primary_never_commits_after_new_lease():
    """The split-brain core: an old primary that still *believes* its
    lease is valid (clock skew, partition) is fenced by the majority's
    newer promises and commits nothing."""
    facade, fake = build(replicas=5)
    facade.attach_document("s1", "html", "one", "")
    old = facade._lease
    cut_minority(facade, 0, 1)
    facade.attach_document("s2", "html", "two", "")  # fails over to r2+
    assert facade._lease.fence > old.fence
    # The deposed r0, on its own skewed clock, still holds fence 1.
    skewed = PrimaryLease(index=old.index, fence=old.fence,
                          expires_at=fake.now + LEASE, grants=old.grants)
    epochs = [r.epoch for r in facade.runtimes]
    with pytest.raises(FencedOut):
        facade.write_as(skewed, "attach_document", "evil", "h", "x", "")
    assert [r.epoch for r in facade.runtimes] == epochs
    assert facade.fenced_writes == 1
    for runtime in facade.runtimes:
        assert not runtime.codatabase.documents_of("evil")


def test_expired_lease_is_refused_before_any_offer():
    facade, fake = build()
    facade.attach_document("s1", "html", "one", "")
    lease = facade._lease
    fake.now += LEASE + 1
    with pytest.raises(LeaseExpired):
        facade.write_as(lease, "attach_document", "s2", "html", "two", "")
    assert facade.epoch == 1


def test_quorum_errors_are_comm_failures():
    # The resilience layer routes on CommFailure; quorum losses must
    # look like any other transport outage to it.
    from repro.errors import CommFailure
    assert issubclass(QuorumError, CommFailure)
    assert issubclass(QuorumLost, QuorumError)
    assert issubclass(FencedOut, QuorumError)


# ----------------------------------------------------------- anti-entropy --


def test_reconcile_replays_minority_up_to_leader():
    facade, _ = build()
    facade.attach_document("s1", "html", "one", "")
    cut_minority(facade, 0)
    facade.attach_document("s2", "html", "two", "")
    facade.attach_document("s3", "html", "three", "")
    facade._link = None  # partition heals
    healed = facade.reconcile()
    assert healed == 1
    assert {r.epoch for r in facade.runtimes} == {3}
    for runtime in facade.runtimes:
        for source in ("s1", "s2", "s3"):
            assert runtime.codatabase.documents_of(source)


def test_promised_fence_survives_restart_via_journal(tmp_path):
    def factory(owner, index):
        return ReplicaJournal(str(tmp_path / f"r{index}" / "journal.wal"))

    facade, _ = build(journal_factory=factory)
    facade.attach_document("s1", "html", "one", "")
    fence = facade._lease.fence
    for runtime in facade.runtimes:
        runtime.journal.close()
    # A restarted process must not elect below a fence it committed
    # under: the journaled high-water seeds the volatile promise.
    reborn, _ = build(journal_factory=factory)
    assert all(r.lease.promised_fence == fence for r in reborn.runtimes)
    lease = reborn.elect()
    assert lease.fence == fence + 1


def test_promised_fence_survives_a_snapshot_and_restart(tmp_path):
    """A snapshot drops the entries it covers — it must not drop the
    fence they were committed under with them."""
    def factory(owner, index):
        return ReplicaJournal(str(tmp_path / f"r{index}" / "journal.wal"))

    facade, _ = build(journal_factory=factory, snapshot_every=2)
    for _ in range(3):
        facade.elect()
    facade.attach_document("s1", "html", "one", "")
    assert [r.journal.last_fence for r in facade.runtimes] == [3, 3, 3]
    facade.attach_document("s2", "html", "two", "")  # snapshot: journal empty
    assert [len(r.journal) for r in facade.runtimes] == [0, 0, 0]
    assert [r.journal.last_fence for r in facade.runtimes] == [3, 3, 3]
    for runtime in facade.runtimes:
        runtime.journal.close()
    reborn, _ = build(journal_factory=factory, snapshot_every=2)
    assert [r.lease.promised_fence for r in reborn.runtimes] == [3, 3, 3]
    reborn.attach_document("s3", "html", "three", "")
    assert reborn._lease.fence == 4
    assert [r.journal.entries()[-1].fence for r in reborn.runtimes] \
        == [4, 4, 4]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("discard"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("snapshot"), st.integers(min_value=0, max_value=30))),
    max_size=30))
def test_last_fence_never_decreases(steps, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fence") / "journal.wal")
    for journal in (ReplicaJournal(), ReplicaJournal(path)):
        high = 0
        for step, value in steps:
            if step == "append":
                journal.append(JournalEntry(
                    epoch=journal.last_epoch + 1, operation="drop_membership",
                    arguments=("C",), fence=value))
                high = max(high, value)
            elif step == "discard":
                journal.discard(value)
            else:
                journal.install_snapshot({"epoch": value})
            assert journal.last_fence == high


# ------------------------------------------------------------------ status --


def test_lease_status_and_replica_status_surface_quorum_state():
    facade, _ = build()
    facade.attach_document("s1", "html", "one", "")
    status = facade.lease_status()
    assert status["quorum"] is True
    assert status["majority"] == 2
    assert status["holder"] == "r0" and status["fence"] == 1
    full = facade.status()
    assert full["lease"]["fence"] == 1
    assert all(r["promised_fence"] == 1 for r in full["replicas"])


def test_non_quorum_facade_reports_quorum_off():
    facade = ReplicatedCoDatabase("Alpha", replicas=2)
    assert facade.lease_status()["quorum"] is False
    assert "lease" not in facade.status()
