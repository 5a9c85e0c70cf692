"""System facade tests: wiring, metrics, and the four layers (F3)."""

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.model import SourceDescription
from repro.core.replication import replica_binding
from repro.core.system import WebFinditSystem
from repro.errors import UnknownDatabase, WebFinditError
from repro.orb.products import ORBIX, ORBIXWEB, VISIBROKER
from repro.orb.transport import InMemoryNetwork, TcpTransport
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


class TestADeploymentServesOnlyWhatAClientCalls:
    """A deployment binds the co-database and the ISI of each source
    (and, when replicated, each replica): the objects clients call.
    The registry is in-process and binds nothing."""

    @staticmethod
    def served(replicas=0):
        names = {f"webfindit/{kind}/{source}"
                 for source in topo.ALL_DATABASES
                 for kind in ("codb", "isi")}
        return names | {replica_binding(source, index)
                        for source in topo.ALL_DATABASES
                        for index in range(replicas)}

    @pytest.fixture(params=["in-memory", "tcp"])
    def transport(self, request):
        if request.param == "in-memory":
            yield InMemoryNetwork()
            return
        tcp = TcpTransport()
        yield tcp
        tcp.close()

    def test_one_codb_and_one_isi_per_source(self, transport):
        system = build_healthcare_system(transport=transport).system
        assert len(topo.ALL_DATABASES) == 14
        assert system.naming.list_names("") == sorted(self.served())

    def test_replicas_add_only_their_own_bindings(self):
        system = build_healthcare_system(replication_factor=3).system
        assert system.naming.list_names("") == sorted(self.served(3))


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

    def test_orb_counters_sum_every_orb_of_a_product(self):
        """With a dedicated ORB per source, several ORBs share one
        product: the per-product row adds all of them up."""
        from repro.apps.healthcare import build_healthcare_system
        system = build_healthcare_system(isolate_sources=True).system
        system.reset_metrics()
        for spec in topo.DATABASE_SPECS:
            assert system.wrapper_client(spec.name).banner
        per_orb = system.metrics()["orbs"]
        for product in ("Orbix", "OrbixWeb", "VisiBroker for Java"):
            orbs = [orb for orb in system.orbs() if orb.product == product]
            assert len(orbs) > 1
            assert per_orb[product]["requests_handled"] == \
                sum(orb.stats.requests_handled for orb in orbs) > 1
