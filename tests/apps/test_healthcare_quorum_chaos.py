"""S10 chaos: quorum writes under network partitions (docs/quorum.md).

The acceptance story of the quorum layer, run at the application level
over the full healthcare federation:

* **partition-during-write** — cutting any *minority* of a co-database's
  replica set (including the current lease holder) away from the rest
  must leave every maintenance write available: the facade waits out
  the old lease, elects a primary on the majority side at a higher
  fence, and commits there.  Completeness 1.00.
* **dual-primary candidate** — a deposed primary that still believes
  its lease is valid (clock skew: exactly what a partitioned node
  experiences) can never commit: the majority's newer promises fence
  it out, and its aborted write leaves no journal trace anywhere.
* **zero split-brain** — after healing and anti-entropy, every
  replica's journal is a strict prefix of the leader's; no replica
  ever holds a committed write the quorum side does not.

CI's tier-2 quorum job sweeps CHAOS_SEED over {7, 23, 1999} and
replicas {3, 5}.
"""

import time

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.quorum import PrimaryLease, majority
from repro.errors import FencedOut, LeaseExpired, QuorumError
from repro.orb.faults import FaultyTransport
from repro.orb.transport import InMemoryNetwork

TARGET = topo.RBH
LEASE = 0.05  # short enough that failover waits are test-friendly
WRITES = 5


def build_quorum(seed, replicas, transport=None):
    faulty = FaultyTransport(transport or InMemoryNetwork(), seed=seed)
    deployment = build_healthcare_system(
        transport=faulty, replication_factor=replicas, quorum=True,
        lease_duration=LEASE)
    return faulty, deployment


def partition_minority(faulty, deployment, replicas):
    """Cut a lease-holder-containing minority off from the rest."""
    endpoints = [deployment.codatabase_replica_endpoint(TARGET, index)
                 for index in range(replicas)]
    minority_size = replicas - majority(replicas)
    minority = set(endpoints[:minority_size])
    rest = set(endpoints[minority_size:])
    faulty.partition(minority, rest)
    return minority_size


def journals_prefix_consistent(facade):
    """No split-brain: every replica's log is a prefix of the leader's."""
    leader = max(facade.runtimes, key=lambda runtime: runtime.epoch)
    reference = leader.journal.entries()
    for runtime in facade.runtimes:
        entries = runtime.journal.entries()
        if entries != reference[:len(entries)]:
            return False
    return True


@pytest.mark.chaos
@pytest.mark.parametrize("replicas", [3, 5], ids=["replicas3", "replicas5"])
def test_writes_survive_minority_partition(chaos_seed, replicas):
    faulty, deployment = build_quorum(chaos_seed, replicas)
    system = deployment.system
    facade = system._facade(TARGET)
    baseline_epoch = facade.epoch
    holder = facade.lease_status()["holder"]
    assert holder == "r0"  # deployment writes elected the first replica

    minority_size = partition_minority(faulty, deployment, replicas)
    committed = 0
    for index in range(WRITES):
        system.attach_document(TARGET, "text", f"partition doc {index}")
        committed += 1
    assert committed == WRITES  # completeness 1.00 under minority loss

    status = facade.lease_status()
    assert int(status["holder"][1:]) >= minority_size  # majority side
    assert status["fence"] >= 2
    assert facade.aborted_writes >= 1  # the failover write aborted once
    assert faulty.injected["partition"] > 0  # the cut actually fired
    # The minority missed every commit; nobody diverged.
    for runtime in facade.runtimes[:minority_size]:
        assert runtime.epoch == baseline_epoch
    assert journals_prefix_consistent(facade)

    faulty.heal()
    healed = system.reconcile_replicas(TARGET)
    assert healed == minority_size
    assert {runtime.epoch for runtime in facade.runtimes} == {facade.epoch}
    for runtime in facade.runtimes:
        texts = [doc["content"] for doc
                 in runtime.codatabase.documents_of(TARGET)]
        for index in range(WRITES):
            assert f"partition doc {index}" in texts


@pytest.mark.chaos
@pytest.mark.parametrize("replicas", [3, 5], ids=["replicas3", "replicas5"])
def test_dual_primary_candidate_never_commits(chaos_seed, replicas):
    faulty, deployment = build_quorum(chaos_seed, replicas)
    system = deployment.system
    facade = system._facade(TARGET)
    old = facade._lease
    assert old is not None and old.index == 0

    minority_size = partition_minority(faulty, deployment, replicas)
    system.attach_document(TARGET, "text", "majority-side write")
    fresh = facade._lease
    assert fresh.fence > old.fence and fresh.index >= minority_size

    # The deposed r0, by its own (skewed) clock, still holds fence 1 —
    # the dual-primary moment.  Its write must be fenced, commit
    # nothing, and leave no journal trace on any replica.
    skewed = PrimaryLease(index=old.index, fence=old.fence,
                          expires_at=time.monotonic() + 60.0,
                          grants=old.grants)
    epochs = [runtime.epoch for runtime in facade.runtimes]
    lengths = [len(runtime.journal) for runtime in facade.runtimes]
    with pytest.raises((FencedOut, QuorumError)):
        facade.write_as(skewed, "attach_document", TARGET, "text",
                        "split-brain write", "")
    assert [runtime.epoch for runtime in facade.runtimes] == epochs
    assert [len(runtime.journal) for runtime in facade.runtimes] == lengths
    for runtime in facade.runtimes:
        contents = [doc["content"] for doc
                    in runtime.codatabase.documents_of(TARGET)]
        assert "split-brain write" not in contents
    assert journals_prefix_consistent(facade)

    faulty.heal()
    system.reconcile_replicas(TARGET)
    assert {runtime.epoch for runtime in facade.runtimes} == {facade.epoch}


@pytest.mark.chaos
@pytest.mark.parametrize("replicas", [3, 5], ids=["replicas3", "replicas5"])
def test_majority_partition_blocks_writes_without_divergence(chaos_seed,
                                                             replicas):
    """With a *majority* cut away from the primary (and the in-process
    facade), no candidate the facade can use wins an election — the
    write fails cleanly rather than committing on a minority."""
    faulty, deployment = build_quorum(chaos_seed, replicas)
    system = deployment.system
    facade = system._facade(TARGET)
    endpoints = [deployment.codatabase_replica_endpoint(TARGET, index)
                 for index in range(replicas)]
    # Strand the holder on the minority side of the cut, and mark the
    # majority side dead to the facade (it cannot reach around a real
    # partition: the facade shares the primary's side of the cut).
    stranded = replicas - majority(replicas)
    faulty.partition(set(endpoints[:stranded]), set(endpoints[stranded:]))
    for index in range(stranded, replicas):
        facade.mark_dead(index)
    epoch = facade.epoch
    with pytest.raises(QuorumError):
        system.attach_document(TARGET, "text", "minority write")
    assert facade.epoch == epoch
    assert journals_prefix_consistent(facade)
    for runtime in facade.runtimes:
        contents = [doc["content"] for doc
                    in runtime.codatabase.documents_of(TARGET)]
        assert "minority write" not in contents


@pytest.mark.chaos
def test_partition_window_heals_after_scripted_probes(chaos_seed):
    """after/until windows compose with partitions: a cut bounded with
    ``until=`` lifts itself once the link's check counter passes it."""
    replicas = 3
    faulty, deployment = build_quorum(chaos_seed, replicas)
    system = deployment.system
    facade = system._facade(TARGET)
    endpoints = [deployment.codatabase_replica_endpoint(TARGET, index)
                 for index in range(replicas)]
    # Sever r0 from its peers for the next few link probes only.  The
    # write's own quorum checks and election retries consume probes, so
    # the cut lifts itself mid-flight — the write must commit either
    # way (failover to a peer, or r0 re-winning once reconnected).
    faulty.partition({endpoints[0]}, set(endpoints[1:]), until=4)
    system.attach_document(TARGET, "text", "during the window")
    assert faulty.injected["partition"] > 0  # the window did fire
    # Bounded probing: the counter passes ``until`` and the link heals.
    for _ in range(8):
        if not faulty.severed(endpoints[0], endpoints[1]):
            break
    assert not faulty.severed(endpoints[0], endpoints[1])
    system.attach_document(TARGET, "text", "after the window")
    system.reconcile_replicas(TARGET)
    assert {runtime.epoch for runtime in facade.runtimes} == {facade.epoch}
    for runtime in facade.runtimes:
        contents = [doc["content"] for doc
                    in runtime.codatabase.documents_of(TARGET)]
        assert "during the window" in contents
        assert "after the window" in contents


@pytest.mark.chaos
def test_quorum_over_tcp_transport_replicas3(chaos_seed):
    """The same failover cycle over the real TCP transport."""
    from repro.orb.transport import TcpTransport
    tcp = TcpTransport()
    try:
        faulty, deployment = build_quorum(chaos_seed, 3, transport=tcp)
        system = deployment.system
        facade = system._facade(TARGET)
        partition_minority(faulty, deployment, 3)
        system.attach_document(TARGET, "text", "tcp quorum write")
        assert facade.lease_status()["holder"] != "r0"
        faulty.heal()
        assert system.reconcile_replicas(TARGET) == 1
        assert {runtime.epoch for runtime in facade.runtimes} \
            == {facade.epoch}
        assert journals_prefix_consistent(facade)
    finally:
        tcp.close()
