"""The availability layer: replica sets, journals, crash recovery,
and failover routing (docs/availability.md)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalition import Coalition
from repro.core.discovery import CoDatabaseClient
from repro.core.journal import (JournalEntry, ReplicaJournal, apply_entry,
                                encode_operation, replay_entries)
from repro.core.metacache import MetadataCache
from repro.core.model import SourceDescription
from repro.core.replication import (ReplicaRoute, ReplicatedCoDatabase,
                                    ReplicaTarget, replica_binding,
                                    replica_key)
from repro.core.resilience import HealthBoard
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.snapshot import export_codatabase, import_codatabase
from repro.errors import CommFailure, WebFinditError
from tests.core.write_scripts import run as run_script
from tests.core.write_scripts import scripts


def description(name="Alpha", info="cardiology"):
    return SourceDescription(name=name, information_type=info,
                             location=f"{name.lower()}.net")


def populated(replicas=2, **kwargs):
    """A replica set with a small but full mutation history."""
    facade = ReplicatedCoDatabase("Alpha", replicas=replicas, **kwargs)
    facade.advertise(description())
    facade.register_coalition(Coalition("Cardio", "cardiology"))
    facade.record_membership("Cardio")
    facade.add_member("Cardio", description("Beta"))
    facade.add_service_link(ServiceLink(
        EndpointKind.COALITION, "Cardio", EndpointKind.DATABASE, "Beta",
        information_type="cardiology"))
    facade.attach_document("Alpha", "text", "about alpha")
    return facade


class TestReplicatedWrites:
    def test_every_live_replica_applies_every_write(self):
        facade = populated(replicas=3)
        for runtime in facade.runtimes:
            codb = runtime.codatabase
            assert codb.memberships == ["Cardio"]
            assert [c.name for c in codb.known_coalitions()] == ["Cardio"]
            assert [d["content"] for d in codb.documents_of("Alpha")] \
                == ["about alpha"]

    def test_replicas_share_the_facade_epoch(self):
        facade = populated(replicas=3)
        assert facade.epoch == 6
        assert [r.epoch for r in facade.runtimes] == [6, 6, 6]

    def test_epoch_bumps_even_on_logical_noops(self):
        facade = ReplicatedCoDatabase("Alpha", replicas=2)
        facade.register_coalition(Coalition("Cardio", "cardiology"))
        facade.record_membership("Cardio")
        facade.record_membership("Cardio")  # no-op, but still a write
        assert facade.epoch == 3
        assert all(r.epoch == 3 for r in facade.runtimes)

    def test_rejected_writes_are_compensated(self):
        """A write the co-database refuses must not poison the journal
        or advance the version — replay would otherwise re-raise it."""
        facade = ReplicatedCoDatabase("Alpha", replicas=2)
        with pytest.raises(WebFinditError):
            facade.record_membership("NoSuchCoalition")
        assert facade.epoch == 0
        assert all(len(r.journal) == 0 for r in facade.runtimes)
        facade.mark_dead(1)
        facade.recover(1)  # replay stays clean

    def test_journal_is_written_before_the_apply(self):
        facade = ReplicatedCoDatabase("Alpha", replicas=1)
        facade.advertise(description())
        [entry] = facade.runtimes[0].journal.entries()
        assert entry.operation == "advertise"
        assert entry.epoch == 1
        assert entry.arguments[0]["name"] == "Alpha"

    def test_reads_delegate_to_first_live_replica(self):
        facade = populated(replicas=2)
        assert facade.memberships == ["Cardio"]
        facade.mark_dead(0)
        assert facade.memberships == ["Cardio"]  # now served by r1

    def test_a_local_client_reads_the_current_primary(self):
        facade = populated(replicas=2)
        client = CoDatabaseClient.for_local(facade)
        assert client.describe_instance("Beta").name == "Beta"
        facade.mark_dead(0)
        assert client.memberships() == ["Cardio"]  # now served by r1
        assert client.calls == 2

    def test_a_local_client_over_a_replicated_deployment(self):
        from repro.apps.healthcare import build_healthcare_system
        from repro.apps.healthcare import topology as topo
        registry = build_healthcare_system(replication_factor=2) \
            .system.registry
        client = CoDatabaseClient.for_local(registry.codatabase(topo.RBH))
        assert client.describe_instance(topo.RBH).name == topo.RBH

    def test_needs_at_least_one_replica(self):
        with pytest.raises(WebFinditError):
            ReplicatedCoDatabase("Alpha", replicas=0)


class TestCrashRecovery:
    def test_dead_replica_misses_writes(self):
        facade = populated(replicas=2)
        facade.mark_dead(1)
        facade.attach_document("Alpha", "text", "while r1 was down")
        assert facade.runtimes[0].epoch == 7
        assert facade.runtimes[1].epoch == 6  # frozen at the crash

    def test_recover_replays_the_journal(self):
        facade = populated(replicas=2)
        facade.mark_dead(1)
        facade.recover(1)
        runtime = facade.runtimes[1]
        assert runtime.epoch == facade.epoch
        assert runtime.codatabase.memberships == ["Cardio"]
        assert runtime.restarts == 1

    def test_replay_of_leave_then_rejoin_keeps_the_coalition_record(self):
        """forget_coalition then register_coalition again (what leave
        followed by re-join writes) must replay to a co-database that
        still lists the coalition, at the same epoch."""
        facade = populated(replicas=2)
        facade.forget_coalition("Cardio")
        facade.register_coalition(Coalition("Cardio", "cardiology"))
        facade.record_membership("Cardio")
        facade.mark_dead(1)
        facade.recover(1)
        for runtime in facade.runtimes:
            codb = runtime.codatabase
            assert [c.name for c in codb.known_coalitions()] == ["Cardio"]
            assert codb.memberships == ["Cardio"]
            assert codb.epoch == facade.epoch == 9

    def test_recover_catches_up_by_anti_entropy(self):
        facade = populated(replicas=2)
        facade.mark_dead(1)
        facade.attach_document("Alpha", "text", "missed")
        facade.recover(1)
        codb = facade.runtimes[1].codatabase
        assert codb.epoch == facade.epoch == 7
        assert [d["content"] for d in codb.documents_of("Alpha")] \
            == ["about alpha", "missed"]
        # Anti-entropy installed a snapshot covering the catch-up.
        assert facade.runtimes[1].journal.snapshot is not None

    def test_recover_requires_a_dead_replica(self):
        facade = populated(replicas=2)
        with pytest.raises(WebFinditError):
            facade.recover(0)

    def test_unknown_replica_index(self):
        facade = populated(replicas=2)
        with pytest.raises(WebFinditError):
            facade.mark_dead(5)

    def test_snapshot_cadence_truncates_journals(self):
        facade = populated(replicas=1, snapshot_every=3)
        journal = facade.runtimes[0].journal
        assert journal.snapshot is not None
        assert len(journal) < 6  # older entries subsumed by the snapshot
        facade.mark_dead(0)
        facade.recover(0)
        assert facade.runtimes[0].epoch == facade.epoch

    def test_durable_journal_survives_process_restart(self, tmp_path):
        def factory(owner, index):
            return ReplicaJournal(
                str(tmp_path / owner / f"r{index}" / "journal.jsonl"))

        facade = populated(replicas=1, journal_factory=factory)
        # A "new process": fresh journal object over the same files.
        reloaded = factory("Alpha", 0)
        assert len(reloaded) == 6
        assert reloaded.last_epoch == 6

    def test_durable_journal_is_replayed_on_construction(self, tmp_path):
        """A facade over a reused durable dir must restore the previous
        run's state and resume its epochs — not start fresh at 0 and
        append duplicate epochs onto the old log."""
        def factory(owner, index):
            return ReplicaJournal(
                str(tmp_path / owner / f"r{index}" / "journal.jsonl"))

        populated(replicas=1, journal_factory=factory)
        reborn = ReplicatedCoDatabase("Alpha", replicas=1,
                                      journal_factory=factory)
        assert reborn.epoch == 6
        assert reborn.memberships == ["Cardio"]
        reborn.attach_document("Alpha", "text", "second run")
        journal = reborn.runtimes[0].journal
        assert [e.epoch for e in journal.entries()] == [1, 2, 3, 4, 5, 6, 7]
        reborn.mark_dead(0)
        reborn.recover(0)  # replay over both runs' entries stays clean
        codb = reborn.runtimes[0].codatabase
        assert codb.epoch == 7
        assert [d["content"] for d in codb.documents_of("Alpha")] \
            == ["about alpha", "second run"]

    def test_durable_restore_from_snapshot_plus_tail(self, tmp_path):
        def factory(owner, index):
            return ReplicaJournal(
                str(tmp_path / owner / f"r{index}" / "journal.jsonl"))

        first = populated(replicas=1, journal_factory=factory,
                          snapshot_every=3)
        reborn = ReplicatedCoDatabase("Alpha", replicas=1,
                                      journal_factory=factory)
        assert equivalent_state(reborn.runtimes[0].codatabase) \
            == equivalent_state(first.runtimes[0].codatabase)

    def test_restore_catches_up_fresh_replicas_by_anti_entropy(self,
                                                               tmp_path):
        """Raising the replication factor across runs: the new replica
        has an empty journal and must be seeded from the restored one."""
        def factory(owner, index):
            return ReplicaJournal(
                str(tmp_path / owner / f"r{index}" / "journal.jsonl"))

        populated(replicas=1, journal_factory=factory)
        reborn = ReplicatedCoDatabase("Alpha", replicas=2,
                                      journal_factory=factory)
        assert [r.epoch for r in reborn.runtimes] == [6, 6]
        assert equivalent_state(reborn.runtimes[1].codatabase) \
            == equivalent_state(reborn.runtimes[0].codatabase)

    def test_write_with_no_live_replica_is_refused(self):
        """No live replica means nobody can journal the write: it must
        be refused, not silently dropped with an epoch bump."""
        facade = populated(replicas=2)
        facade.mark_dead(0)
        facade.mark_dead(1)
        with pytest.raises(CommFailure):
            facade.attach_document("Alpha", "text", "lost forever")
        assert facade.epoch == 6  # no epoch consumed by the refusal
        facade.recover(0)
        assert facade.runtimes[0].epoch == facade.epoch == 6

    def test_diverging_sibling_is_quarantined_not_corrupted(self):
        """If a sibling fails after the write committed on the first
        replica, its journal entry is rolled back and the sibling goes
        out of rotation for anti-entropy repair — no journaled-but-
        unapplied entry may survive."""
        facade = populated(replicas=2)
        sibling = facade.runtimes[1]

        def boom(*args, **kwargs):
            raise RuntimeError("simulated journal-apply fault")

        sibling.codatabase.attach_document = boom
        facade.attach_document("Alpha", "text", "late write")
        assert facade.epoch == 7
        assert facade.runtimes[0].epoch == 7
        assert not sibling.alive
        assert sibling.journal.entries_after(6) == []  # rolled back
        del sibling.codatabase.attach_document
        facade.recover(1)
        assert equivalent_state(sibling.codatabase) \
            == equivalent_state(facade.runtimes[0].codatabase)


def equivalent_state(codatabase):
    """A comparable digest of one co-database's full state."""
    return {
        "epoch": codatabase.epoch,
        "memberships": sorted(codatabase.memberships),
        "coalitions": sorted(c.name for c in codatabase.known_coalitions()),
        "documents": sorted(d["content"]
                            for d in codatabase.documents_of("Alpha")),
        "links": sorted(str(link) for link in codatabase.service_links()),
    }


class TestJournalFaults:
    """A replica whose journal cannot take the append is quarantined and
    its siblings carry the write — whichever replica it is, under either
    discipline (before PR 23 a fault on the *first* live replica failed
    a fan-out write)."""

    @staticmethod
    def break_journal(runtime):
        def boom(entry):
            raise OSError("simulated journal-append fault")
        runtime.journal.append = boom

    @pytest.mark.parametrize("quorum", [False, True])
    @pytest.mark.parametrize("faulty", [0, 1])
    def test_faulty_replica_is_quarantined_and_siblings_commit(self, quorum,
                                                               faulty):
        facade = populated(replicas=3, quorum=quorum)
        broken = facade.runtimes[faulty]
        self.break_journal(broken)
        facade.attach_document("Alpha", "text", "late write")
        assert facade.epoch == 7
        assert not broken.alive
        assert broken.epoch == 6 and len(broken.journal) == 6
        for runtime in facade.live_runtimes():
            assert runtime.epoch == 7 and runtime.journal.last_epoch == 7
        del broken.journal.append
        facade.recover(faulty)
        assert len({str(export_codatabase(r.codatabase))
                    for r in facade.runtimes}) == 1

    def test_write_nobody_journaled_is_refused_and_consumes_no_epoch(self):
        facade = populated(replicas=2)
        for runtime in facade.runtimes:
            self.break_journal(runtime)
        with pytest.raises(CommFailure):
            facade.attach_document("Alpha", "text", "lost")
        assert facade.epoch == 6
        for runtime in facade.runtimes:
            assert runtime.epoch == 6 and len(runtime.journal) == 6
            assert not runtime.codatabase.documents_of("Alpha")[1:]


class TestCrashRecoveryProperty:
    @settings(max_examples=40, deadline=None)
    @given(script=scripts,
           kill_after=st.integers(min_value=0, max_value=24),
           snapshot_every=st.one_of(st.none(),
                                    st.integers(min_value=1, max_value=5)))
    def test_killed_replica_recovers_to_peer_state(self, script, kill_after,
                                                   snapshot_every):
        """Kill r1 after K writes, keep writing, restart: r1 must equal
        the never-killed r0 exactly (state and epoch).  The scripts are
        drawn from the declared mutator surface, all of it."""
        facade = ReplicatedCoDatabase("Alpha", replicas=2,
                                      snapshot_every=snapshot_every)

        def kill(step):
            if step == kill_after:
                facade.mark_dead(1)

        refused = run_script(facade, script, before_step=kill)
        if kill_after >= len(script):
            facade.mark_dead(1)
        facade.recover(1)
        survivor, recovered = facade.runtimes
        assert export_codatabase(recovered.codatabase) \
            == export_codatabase(survivor.codatabase)
        assert recovered.epoch == facade.epoch == len(script) - len(refused)


class TestJournalReplay:
    def test_replay_skips_already_applied_epochs(self):
        facade = populated(replicas=1)
        codatabase = facade.runtimes[0].codatabase
        entries = facade.runtimes[0].journal.entries()
        assert replay_entries(codatabase, entries) == 0  # all applied

    def test_apply_entry_rejects_unknown_operations(self):
        facade = populated(replicas=1)
        bogus = JournalEntry(epoch=99, operation="drop_everything",
                             arguments=())
        with pytest.raises(WebFinditError):
            apply_entry(facade.runtimes[0].codatabase, bogus)

    def test_encode_operation_wires_model_objects(self):
        encoded = encode_operation(
            "add_member", ("Cardio", description("Beta")))
        assert encoded[0] == "Cardio"
        assert encoded[1]["name"] == "Beta"

    def test_entries_after_filters_by_epoch(self):
        facade = populated(replicas=1)
        journal = facade.runtimes[0].journal
        assert [e.epoch for e in journal.entries_after(4)] == [5, 6]


class TestCodatabaseSnapshot:
    def test_round_trip_preserves_documents_and_epoch(self):
        facade = populated(replicas=1)
        original = facade.runtimes[0].codatabase
        restored = import_codatabase(export_codatabase(original))
        assert equivalent_state(restored) == equivalent_state(original)
        assert restored.epoch == original.epoch == 6

    def test_rejects_foreign_formats(self):
        with pytest.raises(WebFinditError):
            import_codatabase({"format": "something-else/9"})


class _Endpoint:
    """A scriptable replica endpoint for routing tests."""

    def __init__(self, name, epoch=1):
        self.name = name
        self.alive = True
        self.epoch = epoch
        self.invocations = []
        self.generation = 1

    def invoke(self, operation, *args):
        if operation == "versioned":
            read, arguments = args
            return {"value": self.invoke(read, *arguments),
                    "epoch": self.epoch}
        self.invocations.append(operation)
        if not self.alive:
            raise CommFailure(f"{self.name} is down")
        if operation == "memberships":
            return ["Cardio"]
        if operation in ("documents_of", "service_links"):
            return []
        return f"{self.name}:{operation}"

    def target(self, source="Alpha", index=0):
        return ReplicaTarget(
            key=replica_key(source, index),
            binding=replica_binding(source, index),
            proxy=lambda: self,
            refresh=lambda: (self, False))


def failover_client(targets, health=None, cache=None):
    """The one client class over a replica route."""
    route = ReplicaRoute("Alpha", targets,
                         health=health if health is not None
                         else HealthBoard())
    return CoDatabaseClient(route, "Alpha", cache=cache)


class TestFailoverClient:
    def test_prefers_the_primary(self):
        r0, r1 = _Endpoint("r0"), _Endpoint("r1")
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)])
        assert client.memberships() == ["Cardio"]
        assert r1.invocations == []

    def test_fails_over_when_the_primary_dies(self):
        r0, r1 = _Endpoint("r0"), _Endpoint("r1")
        health = HealthBoard()
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)], health=health)
        r0.alive = False
        assert client.memberships() == ["Cardio"]
        assert client.failovers == 1
        # The failure was charged to r0's breaker, not the source's.
        assert health.snapshot()[replica_key("Alpha", 0)]["failures"] == 1

    def test_sticks_to_the_failover_target(self):
        r0, r1 = _Endpoint("r0"), _Endpoint("r1")
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)])
        r0.alive = False
        client.memberships()
        r0.invocations.clear()
        client.memberships()
        assert r0.invocations == []  # r1 is now the serving replica

    def test_raises_only_when_every_replica_fails(self):
        r0, r1 = _Endpoint("r0"), _Endpoint("r1")
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)])
        r0.alive = r1.alive = False
        with pytest.raises(CommFailure):
            client.memberships()

    def test_open_breakers_are_skipped_without_a_call(self):
        r0, r1 = _Endpoint("r0"), _Endpoint("r1")
        health = HealthBoard(failure_threshold=1, reset_timeout=3600.0)
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)], health=health)
        r0.alive = False
        client.memberships()  # trips r0's breaker
        r0.invocations.clear()
        client.target._serving_index = 0  # route from the top again
        client.memberships()
        assert r0.invocations == []  # skipped: circuit open

    def test_stale_ior_retry_uses_the_refreshed_proxy(self):
        dead, fresh = _Endpoint("old"), _Endpoint("new")
        dead.alive = False
        target = ReplicaTarget(
            key=replica_key("Alpha", 0),
            binding=replica_binding("Alpha", 0),
            proxy=lambda: dead,
            refresh=lambda: (fresh, True))  # generation changed
        client = failover_client([target])
        assert client.memberships() == ["Cardio"]
        assert client.failovers == 0  # healed in place, no sibling used


class TestFailoverCacheCoherence:
    def test_cache_entries_are_epoch_tagged(self):
        r0, r1 = _Endpoint("r0", epoch=5), _Endpoint("r1", epoch=5)
        cache = MetadataCache()
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)], cache=cache)
        client.memberships()
        assert client.memberships() == ["Cardio"]
        assert client.cache_hits == 1
        # The tag came with the value, in the one round trip counted.
        assert client.calls == 1 and r0.invocations == ["memberships"]
        assert [tag for __, __, tag in cache._entries.values()] == [5]

    def test_lagging_replica_fills_refused(self):
        """Property (c) of docs/availability.md: a replica *behind* the
        floor still answers reads, but its fills are refused; entries
        at or above the floor keep hitting."""
        r0, r1 = _Endpoint("r0", epoch=5), _Endpoint("r1", epoch=3)
        cache = MetadataCache()
        cache.raise_floors({"Alpha": 5})  # the last mutation's epoch
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)], cache=cache)
        client.memberships()  # cached under r0's epoch 5
        r0.alive = False
        # A cacheable read is still served from the cache (it is at
        # the floor); an uncacheable one must route — and notice the
        # primary is gone.
        client.documents_of("Alpha")
        assert client.failovers == 1
        assert client.memberships() == ["Cardio"]
        assert client.cache_hits == 1 and len(cache) == 1
        # Misses are answered by r1, whose epoch-3 fills are refused.
        assert client.service_links() == []
        assert client.service_links() == []
        assert r1.invocations.count("service_links") == 2
        assert cache.stats()["stale_stores_refused"] == 2
        assert [tag for __, __, tag in cache._entries.values()] == [5]

    def test_fills_are_never_stored_untagged(self):
        """The epoch travels with the value, so there is no probe to
        lose: a fetch that fails stores nothing, and whichever replica
        ends up answering tags the fill itself."""
        r0, r1 = _Endpoint("r0", epoch=5), _Endpoint("r1", epoch=5)
        r0.alive = False
        cache = MetadataCache()
        client = failover_client(
            [r0.target(index=0), r1.target("Alpha", 1)], cache=cache)
        assert client.memberships() == ["Cardio"]
        assert client.memberships() == ["Cardio"]
        assert client.cache_hits == 1
        assert all(tag is not None
                   for __, __, tag in cache._entries.values())
        r1.alive = False
        with pytest.raises(CommFailure):
            client.known_coalitions()
        assert len(cache) == 1  # the failed fetch stored nothing

    def test_replica_set_status_reports_lag_and_breakers(self):
        facade = populated(replicas=2)
        facade.mark_dead(1)
        facade.attach_document("Alpha", "text", "more")
        health = HealthBoard()
        health.record(replica_key("Alpha", 1), ok=False)
        status = facade.status(health=health)
        r0, r1 = status["replicas"]
        assert (r0["lag"], r1["lag"]) == (0, 1)
        assert not r1["alive"]
        assert r1["breaker"] == "closed"
