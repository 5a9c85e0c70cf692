"""Discovery-algorithm tests over in-process co-databases."""

import pytest

from repro.core.coalition import Coalition
from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import DiscoveryFailure
from repro.orb import Orb


def description(name, info):
    return SourceDescription(name=name, information_type=info,
                             location=f"{name}.net")


@pytest.fixture()
def world():
    """A miniature medical world: QUT in Research; RBH in Research and
    Medical; Medibank in Insurance; link Medical -> Insurance."""
    registry = Registry()
    registry.add_source(description("QUT", "Medical Research"))
    registry.add_source(description("RBH", "Research and Medical"))
    registry.add_source(description("Medibank", "Medical Insurance"))
    registry.add_source(description("PCH", "Medical"))
    registry.create_coalition("Research", "Medical Research")
    registry.create_coalition("Medical", "Medical")
    registry.create_coalition("Insurance", "Medical Insurance")
    registry.join("QUT", "Research")
    registry.join("RBH", "Research")
    registry.join("RBH", "Medical")
    registry.join("PCH", "Medical")
    registry.join("Medibank", "Insurance")
    registry.add_service_link(ServiceLink(
        EndpointKind.COALITION, "Medical", EndpointKind.COALITION,
        "Insurance", information_type="Medical Insurance"))
    return registry


def engine_for(registry, **kwargs):
    return DiscoveryEngine(
        lambda name: CoDatabaseClient.for_local(registry.codatabase(name)),
        **kwargs)


class TestLocalResolution:
    def test_local_full_match_stops_immediately(self, world):
        engine = engine_for(world)
        result = engine.discover("Medical Research", "QUT")
        assert result.resolved
        assert result.best().name == "Research"
        assert result.codatabases_contacted == 1
        assert result.max_depth_reached == 0

    def test_leads_carry_members(self, world):
        result = engine_for(world).discover("Medical Research", "QUT")
        assert set(result.best().members) == {"QUT", "RBH"}

    def test_trace_records_path(self, world):
        result = engine_for(world).discover("Medical Research", "QUT")
        assert any("QUT" in line for line in result.trace)


class TestRemoteResolution:
    def test_paper_walkthrough_medical_insurance(self, world):
        """§2.3: QUT asks for Medical Insurance; Research fails; RBH's
        co-database reveals the Medical -> Insurance link."""
        result = engine_for(world).discover("Medical Insurance", "QUT")
        assert result.resolved
        best = result.best()
        assert best.name == "Insurance"
        assert best.through_link == "Medical_to_Insurance"
        assert best.via == ["QUT", "RBH"]
        assert best.score == 1.0
        assert result.codatabases_contacted >= 2

    def test_link_lead_has_contact_entry(self, world):
        result = engine_for(world).discover("Medical Insurance", "QUT")
        assert result.best().entry_database == "Medibank"

    def test_partial_matches_do_not_stop_search(self, world):
        result = engine_for(world).discover("Medical Insurance", "QUT")
        partials = [lead for lead in result.leads if lead.score < 1.0]
        assert partials  # Research/Medical at 0.5 are reported as leads

    def test_unresolvable_query(self, world):
        result = engine_for(world).discover("quantum chromodynamics", "QUT")
        assert not result.resolved
        with pytest.raises(DiscoveryFailure):
            result.best()

    def test_max_hops_bounds_exploration(self, world):
        result = engine_for(world).discover("Medical Insurance", "QUT",
                                            max_hops=0)
        assert not any(lead.score >= 1.0 for lead in result.leads)

    def test_exhaustive_sweep(self, world):
        result = engine_for(world).discover("Medical", "QUT",
                                            stop_at_first=False)
        names = {lead.name for lead in result.leads}
        assert "Medical" in names
        # sweep touches more co-databases than the early-stop run
        early = engine_for(world).discover("Medical", "QUT")
        assert result.codatabases_contacted >= early.codatabases_contacted

    def test_leads_sorted_by_score_then_hops(self, world):
        result = engine_for(world).discover("Medical Insurance", "QUT")
        scores = [lead.score for lead in result.leads]
        assert scores == sorted(scores, reverse=True)

    def test_each_codatabase_contacted_once(self, world):
        result = engine_for(world).discover("Medical Insurance", "QUT",
                                            stop_at_first=False, max_hops=8)
        assert result.codatabases_contacted <= 4  # |databases| upper bound


class TestClientAdapter:
    def test_local_client_counts_calls(self, world):
        client = CoDatabaseClient.for_local(world.codatabase("QUT"))
        client.find_coalitions("x")
        client.memberships()
        client.service_links()
        assert client.calls == 3

    def test_wire_and_local_results_agree(self, world):
        local = CoDatabaseClient.for_local(world.codatabase("RBH"))
        assert local.memberships() == ["Research", "Medical"]
        links = local.service_links()
        assert links and links[0].to_name == "Insurance"
        instance = local.describe_instance("RBH")
        assert instance.information_type == "Research and Medical"

    def test_every_read_answers_the_same_objects_over_giop(self, world):
        """Model objects are CDR value types: a proxy-backed client and
        an in-process one return equal objects of the same classes."""
        orb = Orb(name="codb")
        ior = orb.activate(CoDatabaseServant(world.codatabase("RBH")),
                           CODATABASE_INTERFACE, object_name="RBH")
        wire = CoDatabaseClient.for_proxy(
            orb.proxy(ior, CODATABASE_INTERFACE), "RBH")
        local = CoDatabaseClient.for_local(world.codatabase("RBH"))
        reads = [("memberships",), ("service_links",),
                 ("neighbor_databases",), ("known_coalitions",),
                 ("find_coalitions", "Medical"),
                 ("subclasses_of", "Medical"), ("instances_of", "Medical"),
                 ("describe_instance", "RBH"), ("documents_of", "RBH")]
        for operation, *args in reads:
            ours = getattr(wire, operation)(*args)
            theirs = getattr(local, operation)(*args)
            assert ours == theirs, operation
            assert type(ours) is type(theirs), operation
            if isinstance(ours, list):
                assert [type(item) for item in ours] \
                    == [type(item) for item in theirs], operation
        assert wire.calls == local.calls == len(reads)
        assert isinstance(wire.describe_instance("RBH"), SourceDescription)
        assert isinstance(wire.known_coalitions()[0], Coalition)
        assert isinstance(wire.service_links()[0], ServiceLink)
