"""Registry tests: the locality rule for co-database propagation."""

import pytest

from repro.core.metacache import TOMBSTONE
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import (MembershipError, UnknownCoalition, UnknownDatabase,
                          WebFinditError)
from tests.core.registry_scripts import codb_fingerprint


def description(name, info="Medical"):
    return SourceDescription(name=name, information_type=info,
                             location=f"{name}.net")


@pytest.fixture()
def registry():
    registry = Registry()
    for name in ("A", "B", "C", "D"):
        registry.add_source(description(name))
    registry.create_coalition("Med", "Medical")
    registry.create_coalition("Ins", "Insurance")
    return registry


class TestSources:
    def test_add_source_creates_codatabase(self, registry):
        codb = registry.codatabase("A")
        assert codb.owner_name == "A"
        assert codb.local_description.name == "A"

    def test_duplicate_source_rejected(self, registry):
        with pytest.raises(WebFinditError):
            registry.add_source(description("A"))

    def test_missing_source(self, registry):
        with pytest.raises(UnknownDatabase):
            registry.source("Z")

    def test_remove_source_leaves_coalitions(self, registry):
        registry.join("A", "Med")
        registry.join("B", "Med")
        registry.remove_source("A")
        assert not registry.coalition("Med").has_member("A")
        # B's co-database no longer lists A
        members = registry.codatabase("B").instances_of("Med")
        assert {d.name for d in members} == {"B"}

    def test_remove_source_unlearns_its_links_in_every_peer(self, registry):
        registry.join("B", "Med")
        registry.join("C", "Ins")
        for link in (ServiceLink(EndpointKind.DATABASE, "D",
                                 EndpointKind.DATABASE, "A"),
                     ServiceLink(EndpointKind.COALITION, "Med",
                                 EndpointKind.DATABASE, "A"),
                     ServiceLink(EndpointKind.DATABASE, "A",
                                 EndpointKind.COALITION, "Ins"),
                     ServiceLink(EndpointKind.DATABASE, "B",
                                 EndpointKind.DATABASE, "D")):
            registry.add_service_link(link)
        floors = []
        registry.add_invalidation_listener(floors.append)
        registry.remove_source("A")
        assert [link.label for link in registry.service_links()] \
            == ["B_to_D"]
        for name in ("B", "C", "D"):
            assert not any("A" in (link.from_name, link.to_name)
                           for link in registry.codatabase(name)
                           .service_links())
        # B (through Med), C (through Ins) and D were written: a cache
        # subscriber hears each one's floor, and A's tombstone last.
        delivered = {}
        for update in floors:
            delivered.update(update)
        assert delivered == {"A": TOMBSTONE,
                             **{name: registry.codatabase(name).epoch
                                for name in ("B", "C", "D")}}
        assert floors[-1] == {"A": TOMBSTONE}

    def test_advertise_updates_peers(self, registry):
        registry.join("A", "Med")
        registry.join("B", "Med")
        updated = SourceDescription(name="A", information_type="New Topic",
                                    location="A.net")
        registry.advertise(updated)
        seen = registry.codatabase("B").describe_instance("A")
        assert seen.information_type == "New Topic"

    def test_advertise_new_source_creates_it(self):
        registry = Registry()
        registry.advertise(description("Fresh"))
        assert registry.codatabase("Fresh") is not None


class TestMembershipPropagation:
    def test_join_teaches_both_sides(self, registry):
        registry.join("A", "Med")
        registry.join("B", "Med")
        a_codb = registry.codatabase("A")
        b_codb = registry.codatabase("B")
        assert {d.name for d in a_codb.instances_of("Med")} == {"A", "B"}
        assert {d.name for d in b_codb.instances_of("Med")} == {"A", "B"}
        assert a_codb.memberships == ["Med"]

    def test_nonmember_learns_nothing(self, registry):
        registry.join("A", "Med")
        c_codb = registry.codatabase("C")
        assert not c_codb.object_database.schema.has_class("Med")
        assert c_codb.find_coalitions("Medical") == []

    def test_double_join_rejected(self, registry):
        registry.join("A", "Med")
        with pytest.raises(MembershipError):
            registry.join("A", "Med")

    def test_leave_forgets_everywhere(self, registry):
        registry.join("A", "Med")
        registry.join("B", "Med")
        registry.leave("A", "Med")
        assert registry.codatabase("A").memberships == []
        assert {d.name for d in
                registry.codatabase("B").instances_of("Med")} == {"B"}

    def test_leave_non_member(self, registry):
        with pytest.raises(MembershipError):
            registry.leave("A", "Med")

    def test_join_unknown_coalition(self, registry):
        with pytest.raises(UnknownCoalition):
            registry.join("A", "Ghost")

    def test_hierarchy_propagates_to_parent_members(self, registry):
        registry.join("A", "Med")
        registry.create_coalition("Cardio", "cardiology", parent="Med")
        # A (member of the parent) sees the specialization.
        assert registry.codatabase("A").subclasses_of("Med") == ["Cardio"]

    def test_joiner_learns_existing_children(self, registry):
        registry.create_coalition("Cardio", "cardiology", parent="Med")
        registry.join("A", "Med")
        assert registry.codatabase("A").subclasses_of("Med") == ["Cardio"]

    def test_join_child_registers_ancestor_chain(self, registry):
        registry.create_coalition("Cardio", "cardiology", parent="Med")
        registry.join("A", "Cardio")
        schema = registry.codatabase("A").object_database.schema
        assert schema.is_subclass("Cardio", "Med")


class TestCoalitionLifecycle:
    def test_duplicate_coalition_rejected(self, registry):
        with pytest.raises(WebFinditError):
            registry.create_coalition("Med", "again")

    def test_unknown_parent_rejected(self, registry):
        with pytest.raises(UnknownCoalition):
            registry.create_coalition("X", "x", parent="Ghost")

    def test_dissolve_evicts_members_and_links(self, registry):
        registry.join("A", "Med")
        registry.add_service_link(ServiceLink(
            EndpointKind.COALITION, "Med", EndpointKind.COALITION, "Ins",
            information_type="Insurance"))
        registry.dissolve_coalition("Med")
        assert "Med" not in registry.coalition_names()
        assert registry.codatabase("A").memberships == []
        assert registry.service_links() == []

    def test_dissolve_a_specialisation(self, registry):
        registry.create_coalition("P", "cardiology")
        registry.create_coalition("C", "cardiology surgery", parent="P")
        registry.join("A", "P")
        registry.join("B", "C")
        registry.join("D", "C")
        registry.dissolve_coalition("C")
        assert not registry.has_coalition("C")
        for name in ("B", "D"):
            assert registry.codatabase(name).memberships == []
            assert "C" not in [coalition.name for coalition in
                               registry.codatabase(name).known_coalitions()]
        # P no longer lists C: a later joiner of P learns no child.
        registry.add_source(description("E"))
        registry.join("E", "P")
        assert registry.codatabase("E").subclasses_of("P") == []
        registry.create_coalition("C", "cardiology surgery", parent="P")
        registry.add_source(description("F"))
        registry.join("F", "P")
        assert registry.codatabase("F").subclasses_of("P") == ["C"]
        # C is listed under P once: one dissolve leaves P childless.
        registry.dissolve_coalition("C")
        registry.dissolve_coalition("P")
        assert not registry.has_coalition("P")

    def test_dissolve_with_children_rejected(self, registry):
        registry.create_coalition("Cardio", "cardiology", parent="Med")
        with pytest.raises(WebFinditError):
            registry.dissolve_coalition("Med")


class TestServiceLinks:
    def test_link_contact_defaults_to_first_member(self, registry):
        registry.join("A", "Ins")
        registry.add_service_link(ServiceLink(
            EndpointKind.COALITION, "Med", EndpointKind.COALITION, "Ins"))
        assert registry.service_links()[0].contact == "A"

    def test_link_contact_for_database_endpoint(self, registry):
        registry.add_service_link(ServiceLink(
            EndpointKind.DATABASE, "A", EndpointKind.DATABASE, "B"))
        assert registry.service_links()[0].contact == "B"

    def test_link_audience_is_members_and_endpoints(self, registry):
        registry.join("A", "Med")
        registry.join("B", "Ins")
        registry.add_service_link(ServiceLink(
            EndpointKind.COALITION, "Med", EndpointKind.COALITION, "Ins"))
        assert len(registry.codatabase("A").service_links()) == 1
        assert len(registry.codatabase("B").service_links()) == 1
        assert registry.codatabase("C").service_links() == []

    def test_joiner_inherits_coalition_links(self, registry):
        registry.join("A", "Med")
        registry.add_service_link(ServiceLink(
            EndpointKind.DATABASE, "C", EndpointKind.COALITION, "Med"))
        registry.join("B", "Med")  # joins after the link exists
        assert len(registry.codatabase("B").service_links()) == 1

    def test_duplicate_link_rejected(self, registry):
        link = ServiceLink(EndpointKind.DATABASE, "A",
                           EndpointKind.DATABASE, "B")
        registry.add_service_link(link)
        with pytest.raises(WebFinditError):
            registry.add_service_link(link)

    def test_remove_link_updates_audience(self, registry):
        registry.join("A", "Med")
        link = ServiceLink(EndpointKind.DATABASE, "C",
                           EndpointKind.COALITION, "Med")
        registry.add_service_link(link)
        registry.remove_service_link(link)
        assert registry.codatabase("A").service_links() == []
        assert registry.codatabase("C").service_links() == []

    def test_link_with_unknown_endpoint(self, registry):
        with pytest.raises(UnknownDatabase):
            registry.add_service_link(ServiceLink(
                EndpointKind.DATABASE, "Ghost", EndpointKind.COALITION,
                "Med"))


class TestAccounting:
    def test_update_operations_grow_with_membership(self, registry):
        before = registry.update_operations
        registry.join("A", "Med")
        first_cost = registry.update_operations - before
        registry.join("B", "Med")
        second_cost = registry.update_operations - before - first_cost
        # Joining a larger coalition costs more writes.
        assert second_cost > first_cost

    def test_summary_counts(self, registry):
        registry.join("A", "Med")
        registry.join("B", "Med")
        summary = registry.summary()
        assert summary["sources"] == 4
        assert summary["coalitions"] == 2
        assert summary["memberships"] == 2


class TestCodbWriteGate:
    """``codb_write`` issues the declared maintenance writes minus
    ``advertise``, and nothing else."""

    # The one parameter keeps the test ids stable.
    @pytest.fixture(params=["in-process"])
    def handle(self, request, registry):
        return registry

    @pytest.mark.parametrize("operation, arguments", [
        ("advertise", [description("A", "Forged")]),
        ("epoch", []),                 # a co-database attribute
        ("find_coalitions", ["Med"]),  # a read
        ("_require_coalition", ["Med"]),
        ("no_such_operation", []),
    ])
    def test_refuses_what_is_not_a_declared_write(self, registry, handle,
                                                  operation, arguments):
        before = registry.update_operations
        epoch = registry.codatabase("A").epoch
        with pytest.raises(WebFinditError, match="maintenance write"):
            handle.codb_write("A", operation, arguments)
        assert registry.update_operations == before
        assert registry.codatabase("A").epoch == epoch
        assert registry.codatabase("A").local_description.information_type \
            == "Medical"

    def test_issues_a_declared_write_as_one_update_operation(self, registry,
                                                             handle):
        before = registry.update_operations
        handle.codb_write("A", "attach_document", ["A", "text", "about A"])
        assert registry.update_operations == before + 1
        assert registry.codatabase("A").documents_of("A") == [
            {"format": "text", "content": "about A", "url": ""}]


@pytest.mark.parametrize("cycles", [1, 4])
class TestLeaveUndoesJoin:
    """What ``join``
    copies into the joiner's co-database, ``leave`` takes out again —
    and a second ``join`` puts back, however many times the cycle
    repeats."""

    @staticmethod
    def build():
        registry = Registry()
        for name in ("A", "B", "G"):
            registry.add_source(description(name))
        registry.create_coalition("Med", "Medical")
        registry.create_coalition("Ins", "Insurance")
        registry.join("A", "Med")
        registry.join("B", "Ins")
        registry.add_service_link(ServiceLink(
            EndpointKind.COALITION, "Med", EndpointKind.COALITION, "Ins",
            information_type="Insurance"))
        return registry

    @staticmethod
    def contents(registry):
        fingerprint = codb_fingerprint(registry, "G")
        del fingerprint["epoch"], fingerprint["applied"]  # only ever grow
        return fingerprint

    def test_leave_takes_the_coalitions_links_with_it(self, cycles):
        registry = self.build()
        before = self.contents(registry)
        for _ in range(cycles):
            registry.join("G", "Med")
            assert len(self.contents(registry)["links"]) == 1
            writes = registry.update_operations
            registry.leave("G", "Med")
            assert self.contents(registry) == before
            # forget_coalition + one link removal + A's remove_member
            assert registry.update_operations - writes == 3

    def test_leaver_keeps_links_it_is_still_entitled_to(self, cycles):
        registry = self.build()
        registry.add_service_link(ServiceLink(
            EndpointKind.DATABASE, "G", EndpointKind.COALITION, "Med"))
        for _ in range(cycles):
            registry.join("G", "Med")
            registry.join("G", "Ins")
            registry.leave("G", "Med")
            # Med_to_Ins still reaches G through Ins, G_to_Med through G.
            assert len(registry.codatabase("G").service_links()) == 2
            registry.leave("G", "Ins")
            assert [link.label
                    for link in registry.codatabase("G").service_links()] \
                == ["G_to_Med"]

    def test_rejoin_sees_the_coalition_again(self, cycles):
        registry = self.build()
        for _ in range(cycles):
            registry.join("G", "Med")
            registry.leave("G", "Med")
        registry.join("G", "Med")
        guest = registry.codatabase("G")
        assert [c.name for c in guest.known_coalitions()] == ["Med"]
        assert [m["name"] for m in guest.find_coalitions("Medical")] \
            == ["Med"]
        assert guest.memberships == ["Med"]
