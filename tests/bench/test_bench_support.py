"""Benchmark-support tests: scaled spaces, workloads, reporting."""

import pytest

from repro.bench import (HEALTHCARE_QUERIES, build_scaled_space,
                         discovery_workload, format_table, ratio,
                         sql_workload)


class TestScaledSpace:
    def test_counts(self):
        space = build_scaled_space(databases=40, coalitions=8)
        summary = space.registry.summary()
        assert summary["sources"] == 40
        assert summary["coalitions"] == 8
        assert summary["memberships"] == 40
        assert len(space.broadcast) == 40
        assert space.global_schema.source_count == 40

    def test_round_robin_membership(self):
        space = build_scaled_space(databases=12, coalitions=4)
        for coalition_name in space.coalition_topics:
            assert len(space.registry.coalition(coalition_name).members) == 3

    def test_ring_reachability(self):
        """Every coalition links onward, so cross-cluster discovery can
        always make progress."""
        space = build_scaled_space(databases=20, coalitions=5,
                                   links_per_coalition=1)
        linked_from = {link.from_name
                       for link in space.registry.service_links()}
        assert linked_from == set(space.coalition_topics)

    def test_deterministic_by_seed(self):
        first = build_scaled_space(20, 4, seed=7)
        second = build_scaled_space(20, 4, seed=7)
        assert [l.label for l in first.registry.service_links()] == \
            [l.label for l in second.registry.service_links()]

    def test_discovery_over_scaled_space(self):
        space = build_scaled_space(databases=60, coalitions=10)
        engine = space.discovery_engine()
        topic = list(space.coalition_topics.values())[3]
        result = engine.discover(topic, space.database_names[0],
                                 max_hops=10)
        assert result.resolved
        assert result.codatabases_contacted < 60  # never a full broadcast

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            build_scaled_space(databases=3, coalitions=5)


class TestWorkloads:
    def test_discovery_workload_shape(self):
        space = build_scaled_space(20, 4)
        queries = discovery_workload(space, 10, miss_rate=0.3, seed=1)
        assert len(queries) == 10
        assert all(q.start_database in space.database_names for q in queries)
        misses = [q for q in queries if not q.target_topic]
        assert misses  # at 30% over 10 queries, statistically guaranteed

    def test_workload_deterministic(self):
        space = build_scaled_space(20, 4)
        first = discovery_workload(space, 5, seed=3)
        second = discovery_workload(space, 5, seed=3)
        assert first == second

    def test_sql_workload_parses(self, healthcare):
        from repro.apps.healthcare import topology as topo
        db = healthcare.relational[topo.RBH]
        for statement in sql_workload(statements=25):
            db.execute(statement)  # must all be valid against RBH

    def test_healthcare_queries_cover_coalitions(self):
        assert "Medical Insurance" in HEALTHCARE_QUERIES


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("T", ["name", "n"],
                            [["alpha", 1], ["b", 22222]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "name" in lines[1] and "n" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        text = format_table("T", ["v"], [[1234.5], [0.125]])
        assert "1,234" in text or "1,235" in text
        assert "0.12" in text

    def test_ratio(self):
        assert ratio(10, 2) == 5
        assert ratio(1, 0) == float("inf")


class TestScaledSystem:
    def test_deployed_scaled_system(self):
        from repro.bench import build_scaled_system
        system = build_scaled_system(databases=9, coalitions=3)
        assert system.registry.summary()["sources"] == 9
        assert len(system.deployment_map()) == 9
        # all three products in rotation
        assert {r.orb_product for r in system.deployment_map()} == {
            "Orbix", "OrbixWeb", "VisiBroker for Java"}
        # discovery works over the ORB
        processor = system.query_processor()
        topic = system.registry.coalition(
            system.registry.coalition_names()[1]).information_type
        result = processor.discovery.discover(topic, "db00000")
        assert result.resolved
        # data path works too
        isi = system.wrapper_client("db00003")
        value = isi.invoke("Items", "LabelOf", [1])
        assert isinstance(value, str)

    def test_system_and_space_build_one_topology(self):
        from repro.bench import build_scaled_system

        def shape(registry):
            return ([(name, registry.coalition(name).members)
                     for name in registry.coalition_names()],
                    [link.to_wire() for link in registry.service_links()])

        system = build_scaled_system(databases=14, coalitions=5, seed=23)
        space = build_scaled_space(databases=14, coalitions=5, seed=23)
        assert shape(system.registry) == shape(space.registry)
        assert system.registry.source_names() == space.database_names

    def test_scaled_system_shape_validated(self):
        from repro.bench import build_scaled_system
        import pytest as _pytest
        with _pytest.raises(ValueError):
            build_scaled_system(databases=2, coalitions=5)
