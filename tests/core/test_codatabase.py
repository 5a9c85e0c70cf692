"""Co-database tests: the OO metadata repository of §2.2."""

import pytest

from repro.core.codatabase import CoDatabase, CoDatabaseServant
from repro.core.coalition import Coalition
from repro.core.discovery import CoDatabaseClient
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import UnknownCoalition, UnknownDatabase
from repro.orb.cdr import decode_any, encode_any


def description(name, info="Medical", **kwargs):
    return SourceDescription(name=name, information_type=info,
                             location=f"{name}.net", **kwargs)


@pytest.fixture()
def codb():
    codb = CoDatabase("RBH")
    codb.advertise(description("RBH", "Research and Medical"))
    codb.register_coalition(Coalition("Research", "Medical Research"))
    codb.register_coalition(Coalition("Medical", "Medical"))
    codb.record_membership("Research")
    codb.record_membership("Medical")
    codb.add_member("Research", description("RBH", "Research and Medical"))
    codb.add_member("Research", description("QUT", "Medical Research"))
    codb.add_member("Medical", description("RBH", "Research and Medical"))
    codb.add_member("Medical", description("PCH", "Medical"))
    return codb


class TestStructure:
    def test_coalitions_are_classes(self, codb):
        schema = codb.object_database.schema
        assert schema.has_class("Research")
        assert schema.is_subclass("Research", "InformationSource")

    def test_members_are_instances(self, codb):
        instances = codb.instances_of("Research")
        assert {d.name for d in instances} == {"RBH", "QUT"}

    def test_advertise_owner_only(self, codb):
        with pytest.raises(UnknownDatabase):
            codb.advertise(description("Other"))

    def test_coalition_hierarchy(self, codb):
        codb.register_coalition(Coalition("Cancer Research",
                                          "cancer research",
                                          parent="Research"))
        assert codb.subclasses_of("Research") == ["Cancer Research"]
        codb.add_member("Cancer Research", description("QCF", "cancer"))
        # instances_of includes subclass members
        assert "QCF" in {d.name for d in codb.instances_of("Research")}

    def test_reregistering_a_forgotten_coalition_restores_its_record(
            self, codb):
        """forget_coalition keeps the class but deletes the record;
        registering again must bring the record back (once), still as
        one unconditional epoch bump."""
        codb.forget_coalition("Research")
        assert [c.name for c in codb.known_coalitions()] == ["Medical"]
        epoch = codb.epoch
        codb.register_coalition(Coalition("Research", "Medical Research"))
        codb.register_coalition(Coalition("Research", "Medical Research"))
        assert sorted(c.name for c in codb.known_coalitions()) \
            == ["Medical", "Research"]
        assert codb.epoch == codb.applied == epoch + 2

    def test_duplicate_member_ignored(self, codb):
        codb.add_member("Research", description("QUT", "Medical Research"))
        assert len(codb.instances_of("Research")) == 2

    def test_unknown_coalition_rejected(self, codb):
        with pytest.raises(UnknownCoalition):
            codb.instances_of("Ghost")
        with pytest.raises(UnknownCoalition):
            codb.add_member("Document", description("X"))

    def test_memberships_tracked(self, codb):
        assert codb.memberships == ["Research", "Medical"]
        codb.drop_membership("Medical")
        assert codb.memberships == ["Research"]


class TestQueries:
    def test_find_coalitions_scores_and_sorts(self, codb):
        """Figure 4: 'both coalitions Medical and Research provide
        information about Medical and Research' — Medical qualifies
        through its member RBH's advertised type."""
        matches = codb.find_coalitions("Medical Research")
        by_name = {m["name"]: m["score"] for m in matches}
        assert by_name["Research"] == 1.0
        assert by_name["Medical"] == 1.0  # via member RBH's description
        scores = [m["score"] for m in matches]
        assert scores == sorted(scores, reverse=True)

    def test_find_coalitions_threshold(self, codb):
        assert codb.find_coalitions("Superannuation") == []

    def test_find_returns_members(self, codb):
        matches = codb.find_coalitions("Medical Research")
        research = next(m for m in matches if m["name"] == "Research")
        assert set(research["members"]) == {"RBH", "QUT"}

    def test_describe_instance_local(self, codb):
        assert codb.describe_instance("RBH").information_type == \
            "Research and Medical"

    def test_describe_instance_member(self, codb):
        assert codb.describe_instance("QUT").location == "QUT.net"

    def test_describe_missing(self, codb):
        with pytest.raises(UnknownDatabase):
            codb.describe_instance("Nobody")

    def test_neighbor_databases_excludes_owner(self, codb):
        assert set(codb.neighbor_databases()) == {"QUT", "PCH"}

    def test_documents(self, codb):
        codb.attach_document("RBH", "html", "<html/>", "http://rbh")
        codb.attach_document("RBH", "text", "plain words")
        documents = codb.documents_of("RBH")
        assert {d["format"] for d in documents} == {"html", "text"}
        assert codb.documents_of("QUT") == []

    def test_query_counter_increments(self, codb):
        """The counted currency is the client's ``calls``: one per
        question, however many reads the co-database makes of itself
        to answer it."""
        client = CoDatabaseClient.for_local(codb)
        client.find_coalitions("x")  # reads known_coalitions
        client.consult("x", True, 0.5)  # coalitions, links, neighbours
        assert client.calls == 2


class TestServiceLinks:
    def make_link(self, contact=""):
        return ServiceLink(EndpointKind.COALITION, "Medical",
                           EndpointKind.COALITION, "Medical Insurance",
                           information_type="Medical Insurance",
                           contact=contact)

    def test_coalition_link_classified(self, codb):
        codb.add_service_link(self.make_link())
        links = codb.service_links()
        assert len(links) == 1
        extent = codb.object_database.extent("CoalitionServiceLink",
                                             include_subclasses=False)
        assert len(extent) == 1

    def test_database_link_classified(self, codb):
        link = ServiceLink(EndpointKind.DATABASE, "RBH",
                           EndpointKind.DATABASE, "Medicare")
        codb.add_service_link(link)
        extent = codb.object_database.extent("DatabaseServiceLink",
                                             include_subclasses=False)
        assert len(extent) == 1

    def test_duplicate_link_ignored(self, codb):
        codb.add_service_link(self.make_link())
        codb.add_service_link(self.make_link())
        assert len(codb.service_links()) == 1

    def test_remove_link(self, codb):
        codb.add_service_link(self.make_link())
        codb.remove_service_link(self.make_link())
        assert codb.service_links() == []

    def test_links_of_filters(self, codb):
        codb.add_service_link(self.make_link())
        assert codb.links_of(EndpointKind.COALITION, "Medical")
        assert not codb.links_of(EndpointKind.COALITION, "Research")

    def test_contact_preserved(self, codb):
        codb.add_service_link(self.make_link(contact="Medibank"))
        assert codb.service_links()[0].contact == "Medibank"


class TestServant:
    def test_servant_wire_types(self, codb):
        servant = CoDatabaseServant(codb)
        assert servant.owner() == "RBH"
        assert servant.memberships() == ["Research", "Medical"]
        matches = servant.find_coalitions("Medical Research")
        assert isinstance(matches[0], dict)
        # Model objects are CDR value types: the servant hands them to
        # the ORB as themselves and they arrive as equal objects.
        instances = servant.instances_of("Research")
        assert all(isinstance(d, SourceDescription) for d in instances)
        assert decode_any(encode_any(instances)) == instances
        described = servant.describe_instance("QUT")
        assert described.name == "QUT"
        codb.add_service_link(ServiceLink(
            EndpointKind.DATABASE, "RBH", EndpointKind.DATABASE, "X"))
        links = servant.service_links()
        assert isinstance(links[0], ServiceLink)
        assert decode_any(encode_any(links)) == links
        coalitions = servant.known_coalitions()
        assert isinstance(coalitions[0], Coalition)
        assert decode_any(encode_any(coalitions)) == coalitions


class TestTopicProximity:
    """§2.1: coalitions related by topic proximity surface as leads."""

    def test_related_topic_scores_at_threshold(self):
        from repro.core.model import Ontology
        ontology = Ontology()
        ontology.relate("Superannuation", "Medical Workers Union")
        codb = CoDatabase("X", ontology=ontology)
        codb.register_coalition(Coalition("Medical Workers Union",
                                          "Medical Workers Union"))
        matches = codb.find_coalitions("Superannuation")
        assert [m["name"] for m in matches] == ["Medical Workers Union"]
        assert matches[0]["score"] == 0.5

    def test_unrelated_topic_still_misses(self):
        from repro.core.model import Ontology
        codb = CoDatabase("X", ontology=Ontology())
        codb.register_coalition(Coalition("Medical", "Medical"))
        assert codb.find_coalitions("astrophysics") == []

    def test_direct_match_outranks_proximity(self):
        from repro.core.model import Ontology
        ontology = Ontology()
        ontology.relate("insurance", "Medical")
        codb = CoDatabase("X", ontology=ontology)
        codb.register_coalition(Coalition("Medical", "Medical"))
        codb.register_coalition(Coalition("Insurance", "insurance"))
        matches = codb.find_coalitions("insurance")
        assert matches[0]["name"] == "Insurance"
        assert matches[0]["score"] == 1.0
