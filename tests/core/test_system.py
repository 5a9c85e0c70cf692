"""System facade tests: wiring, metrics, and the four layers (F3)."""

import pytest

from repro.apps.healthcare import topology as topo
from repro.core.model import SourceDescription
from repro.core.system import WebFinditSystem
from repro.errors import UnknownDatabase, WebFinditError
from repro.orb.products import ORBIX, ORBIXWEB, VISIBROKER
from repro.sql.engine import Database


class TestWiring:
    def test_one_orb_per_product(self, healthcare):
        products = {orb.product for orb in healthcare.system.orbs()}
        assert products == {"Orbix", "OrbixWeb", "VisiBroker for Java"}

    def test_naming_contains_codb_and_isi_bindings(self, healthcare):
        names = healthcare.system.naming.list_names("webfindit/")
        codbs = [n for n in names if n.startswith("webfindit/codb/")]
        isis = [n for n in names if n.startswith("webfindit/isi/")]
        assert len(codbs) == 14
        assert len(isis) == 14

    def test_codatabase_client_is_remote(self, healthcare):
        system = healthcare.system
        system.reset_metrics()
        client = system.codatabase_client(topo.RBH)
        client.memberships()
        metrics = system.metrics()
        assert metrics["giop_messages"] >= 1

    def test_wrapper_client_is_remote(self, healthcare):
        isi = healthcare.system.wrapper_client(topo.RBH)
        assert isi.banner == "Oracle 8.0.5"

    def test_unknown_database_clients(self, healthcare):
        with pytest.raises(UnknownDatabase):
            healthcare.system.codatabase_client("Ghost")
        with pytest.raises(UnknownDatabase):
            healthcare.system.wrapper_client("Ghost")
        with pytest.raises(UnknownDatabase):
            healthcare.system.local_wrapper("Ghost")

    def test_duplicate_deployment_rejected(self):
        system = WebFinditSystem()
        db = Database("Twin", dialect="oracle")
        description = SourceDescription(name="Twin",
                                        information_type="stuff")
        system.register_relational_source(db, description)
        with pytest.raises(WebFinditError):
            system.register_relational_source(
                Database("Twin2", dialect="oracle"),
                SourceDescription(name="Twin", information_type="stuff"))

    def test_browser_requires_registered_home(self, healthcare):
        with pytest.raises(UnknownDatabase):
            healthcare.system.browser("Nowhere")

    def test_description_autofilled_on_deploy(self, healthcare):
        description = healthcare.system.registry.source(topo.RBH)
        assert description.dbms == "Oracle"
        assert description.orb_product == "VisiBroker for Java"
        assert description.interface == ["ResearchProjects",
                                         "PatientHistory"]


class TestFourLayers:
    """Figure 3: a query crosses browser -> query processor ->
    communication -> meta-data/data layers, measurably."""

    def test_meta_query_touches_communication_and_metadata_layers(
            self, healthcare):
        system = healthcare.system
        browser = healthcare.browser()
        system.codatabase_client(topo.QUT)  # the naming lookup, cached
        system.reset_metrics()
        statements = browser._processor.statements_processed
        browser.find("Medical Research")
        metrics = system.metrics()
        # The local co-database resolves it: one question, consult.
        assert metrics["giop_messages"] == 1
        assert browser._processor.statements_processed == statements + 1

    def test_data_query_reaches_data_layer(self, healthcare):
        system = healthcare.system
        browser = healthcare.browser()
        db = healthcare.relational[topo.RBH]
        executed_before = db.statements_executed
        system.reset_metrics()
        browser.fetch(topo.RBH, "SELECT COUNT(*) FROM Patient")
        assert db.statements_executed == executed_before + 1
        assert system.metrics()["giop_messages"] >= 1

    def test_cross_product_traffic_happens(self, healthcare):
        """The system ORB (client side) differs from all three product
        ORBs, so every call is cross-product — CORBA 2.0 interop."""
        system = healthcare.system
        system.reset_metrics()
        healthcare.browser().find("Medical Insurance")
        per_orb = system.metrics()["orbs"]
        product_trio = {"Orbix", "OrbixWeb", "VisiBroker for Java"}
        handled = sum(stats["requests_handled"]
                      for product, stats in per_orb.items()
                      if product in product_trio)
        cross = sum(stats["cross_product_requests"]
                    for product, stats in per_orb.items()
                    if product in product_trio)
        assert handled > 0
        assert cross == handled

    def test_metrics_reset(self, healthcare):
        system = healthcare.system
        healthcare.browser().find("Medical")
        system.reset_metrics()
        metrics = system.metrics()
        assert metrics["giop_messages"] == 0


@pytest.fixture(scope="module")
def deployments():
    from repro.apps.healthcare import build_healthcare_system
    return {shards: build_healthcare_system(shards=shards)
            for shards in (1, 4)}


class TestAnyShardCountIsTheSameSystem:
    """The default deployment is the one-shard ring: nothing in the
    facade branches on the shard count, so every report has the same
    shape and every answer the same content at 1 and 4 shards."""

    SCENARIO = [
        "Display Coalitions With Information Medical Research",
        "Display Instances of Class Research",
        "Display Documentation of Instance Royal Brisbane Hospital "
        "of Class Research",
        "Find Coalitions With Information Medical Insurance",
    ]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_reports_have_one_shape(self, deployments, shards):
        system = deployments[shards].system
        report = system.shard_report()
        assert report["shards"] == len(report["statuses"]) == shards
        assert [status["shard"] for status in report["statuses"]] \
            == list(range(shards))
        assert report["ring"]["points"] \
            == {str(index): report["ring"]["vnodes"]
                for index in range(shards)}
        assert set(report) == set(deployments[1].system.shard_report())
        assert set(report["statuses"][0]) \
            == set(deployments[1].system.shard_report()["statuses"][0])
        sharding = system.metrics()["sharding"]
        assert sharding["shards"] == len(sharding["per_shard"]) == shards
        assert sharding["ring"] == report["ring"]
        names = system.naming.list_names("webfindit/registry/")
        assert sorted(names) == [f"webfindit/registry/shard{index}"
                                 for index in range(shards)]

    def test_registry_state_does_not_depend_on_the_partition(
            self, deployments):
        one, four = (deployments[n].system.registry for n in (1, 4))
        assert one.summary() == four.summary()
        assert one.epochs() == four.epochs()
        assert one.update_operations == four.update_operations
        assert one.source_names() == four.source_names() \
            == sorted(one.source_names())
        assert one.coalition_names() == four.coalition_names() \
            == sorted(one.coalition_names())

    def test_figure_4_to_6_answers_are_identical(self, deployments):
        transcripts = {}
        for shards, deployment in deployments.items():
            browser = deployment.browser(topo.QUT)
            answers = [browser.submit(text).text for text in self.SCENARIO]
            fetched = browser.fetch(topo.RBH,
                                    "SELECT * FROM MedicalStudent")
            answers.append(fetched.text)
            transcripts[shards] = answers
        assert transcripts[1] == transcripts[4]
        assert "Research" in transcripts[1][0]
