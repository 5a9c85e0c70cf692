"""Replication through the full stack: real ORBs, naming, failover.

These tests exercise what tests/core/test_replication.py stubs out —
replica servants on their own endpoints, the generation-checked proxy
cache, kill/restart through the system facade, and the interaction
with metrics and health state.
"""

import pytest

from repro.core.discovery import CoDatabaseClient
from repro.core.metacache import MetadataCache
from repro.core.model import SourceDescription
from repro.core.replication import ReplicaRoute
from repro.core.system import WebFinditSystem
from repro.errors import CommFailure, UnknownDatabase, WebFinditError
from repro.oodb.database import ObjectDatabase


def build_system(**kwargs):
    system = WebFinditSystem(replication_factor=2, **kwargs)
    for name in ("Alpha", "Beta"):
        database = ObjectDatabase(name=name.lower(), product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name=name, information_type="cardiology",
            location=f"{name.lower()}.net"))
    system.create_coalition("Cardio", "cardiology")
    system.join("Alpha", "Cardio")
    system.join("Beta", "Cardio")
    return system


class TestReplicatedDeployment:
    def test_replica_bindings_exist(self):
        system = build_system()
        names = system.naming.list_names("webfindit/codb/Alpha")
        assert "webfindit/codb/Alpha/r0" in names
        assert "webfindit/codb/Alpha/r1" in names
        assert "webfindit/codb/Alpha" in names  # base name -> primary

    def test_each_replica_has_its_own_endpoint(self):
        system = build_system()
        facade = system._facade("Alpha")
        endpoints = {runtime.ior.primary.endpoint
                     for runtime in facade.runtimes}
        assert len(endpoints) == 2

    def test_clients_are_failover_clients(self):
        system = build_system()
        client = system.codatabase_client("Alpha")
        assert type(client) is CoDatabaseClient
        assert isinstance(client.target, ReplicaRoute)
        assert client.memberships() == ["Cardio"]

    def test_unreplicated_system_keeps_plain_clients(self):
        system = WebFinditSystem()
        database = ObjectDatabase(name="solo", product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name="Solo", information_type="x"))
        client = system.codatabase_client("Solo")
        assert type(client) is CoDatabaseClient
        assert not isinstance(client.target, ReplicaRoute)

    def test_a_source_never_deployed_is_unknown(self):
        """Registered behind the facade's back: a replica set exists
        but no servant was bound — reported when the client is built,
        not as a naming error on its first read."""
        system = build_system()
        system.registry.add_source(SourceDescription(
            name="Ghost", information_type="cardiology"))
        with pytest.raises(UnknownDatabase):
            system.codatabase_client("Ghost")

    def test_kill_requires_a_replicated_source(self):
        system = WebFinditSystem()
        database = ObjectDatabase(name="solo", product="ObjectStore")
        system.register_object_source(database, SourceDescription(
            name="Solo", information_type="x"))
        with pytest.raises(WebFinditError):
            system.kill_replica("Solo", 0)


class TestKillAndFailover:
    def test_killing_the_primary_is_invisible_to_clients(self):
        system = build_system()
        client = system.codatabase_client("Alpha")
        before = client.memberships()
        system.kill_replica("Alpha", 0)
        assert client.memberships() == before
        assert client.failovers == 1

    def test_killing_a_backup_is_invisible_too(self):
        system = build_system()
        client = system.codatabase_client("Alpha")
        system.kill_replica("Alpha", 1)
        assert client.memberships() == ["Cardio"]
        assert client.failovers == 0

    def test_all_replicas_down_raises_comm_failure(self):
        system = build_system()
        client = system.codatabase_client("Alpha")
        system.kill_replica("Alpha", 0)
        system.kill_replica("Alpha", 1)
        with pytest.raises(CommFailure):
            client.memberships()


class TestRestart:
    def test_restart_rebinds_and_serves(self):
        system = build_system()
        system.kill_replica("Alpha", 0)
        system.attach_document("Alpha", "text", "while r0 was down")
        system.restart_replica("Alpha", 0)
        status = system.replica_status("Alpha")
        assert all(r["alive"] and r["lag"] == 0
                   for r in status["replicas"])
        client = system.codatabase_client("Alpha")
        docs = client.documents_of("Alpha")
        assert [d["content"] for d in docs] == ["while r0 was down"]

    def test_stale_ior_regression(self):
        """A client built before a kill+restart holds a proxy to the
        dead endpoint; the generation-checked re-resolve must heal it
        in place, not merely fail over."""
        system = build_system()
        client = system.codatabase_client("Alpha")
        client.memberships()  # proxy to the original r0 now cached
        system.kill_replica("Alpha", 0)
        system.restart_replica("Alpha", 0)
        # r0's binding generation was bumped by the rebind; the stale
        # proxy's first failure triggers re-resolve and retry on r0.
        assert client.memberships() == ["Cardio"]
        assert client.failovers == 0

    def test_restart_closes_the_breaker(self):
        system = build_system()
        client = system.codatabase_client("Alpha")
        system.kill_replica("Alpha", 0)
        system.kill_replica("Alpha", 1)
        for __ in range(4):  # trip both replica breakers
            with pytest.raises(CommFailure):
                client.memberships()
        system.restart_replica("Alpha", 0)
        assert system.replica_status(
            "Alpha")["replicas"][0]["breaker"] == "closed"
        fresh = system.codatabase_client("Alpha")
        assert fresh.memberships() == ["Cardio"]

    def test_restart_invalidates_cached_metadata(self):
        cache = MetadataCache()
        system = build_system(metadata_cache=cache)
        client = system.codatabase_client("Alpha")
        client.memberships()
        assert len(cache) > 0
        system.kill_replica("Alpha", 0)
        system.restart_replica("Alpha", 0)
        assert not any(key[0] == "Alpha" for key in cache._entries)


class TestDurableRestore:
    def test_durable_dir_restores_across_runs(self, tmp_path):
        """Reusing --durable-dir in a new process restores each
        co-database from journal + snapshot and resumes its epochs."""
        system = build_system(durable_dir=str(tmp_path))
        system.attach_document("Alpha", "text", "from run one")
        epoch_before = system.replica_status("Alpha")["epoch"]
        reborn = build_system(durable_dir=str(tmp_path))
        client = reborn.codatabase_client("Alpha")
        assert [d["content"] for d in client.documents_of("Alpha")] \
            == ["from run one"]
        # The redeployment's own writes continue the first run's epoch
        # sequence instead of re-issuing epochs from zero.
        status = reborn.replica_status("Alpha")
        assert status["epoch"] > epoch_before
        assert all(r["lag"] == 0 for r in status["replicas"])


class TestMetricsAndHealth:
    def test_metrics_report_replication(self):
        system = build_system()
        system.kill_replica("Alpha", 1)
        replication = system.metrics()["replication"]
        assert replication["sources"] == 2
        assert replication["replicas"] == 4
        assert replication["alive"] == 3
        assert replication["epochs"]["Alpha"] > 0

    def test_unreplicated_metrics_have_no_replication_section(self):
        system = WebFinditSystem()
        assert system.metrics()["replication"] is None

    def test_health_board_survives_reset_metrics(self):
        """reset_metrics() zeroes counters between bench phases; breaker
        memory is *availability state*, not a counter, and must hold."""
        system = build_system()
        client = system.codatabase_client("Alpha")
        system.kill_replica("Alpha", 0)
        client.memberships()  # records r0's failure
        before = system.resilience.health.snapshot()
        assert before["Alpha/r0"]["failures"] >= 1
        system.reset_metrics()
        after = system.resilience.health.snapshot()
        assert after == before
        assert system.metrics()["giop_messages"] == 0

    def test_replica_status_for_all_sources(self):
        system = build_system()
        status = system.replica_status()
        assert sorted(status) == ["Alpha", "Beta"]
        assert all(len(entry["replicas"]) == 2
                   for entry in status.values())
