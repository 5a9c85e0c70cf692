"""Topology export/import round-trips."""

import json

import pytest

from repro.core.coalition import Coalition
from repro.core.codatabase import CoDatabase, CoDatabaseServant
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.snapshot import (export_codatabase, export_topology,
                                 import_codatabase, import_topology,
                                 load_topology, save_topology)
from repro.errors import WebFinditError


def build_registry():
    registry = Registry()
    for name, info in [("A", "cardiology"), ("B", "cardiology"),
                       ("C", "insurance")]:
        registry.add_source(SourceDescription(
            name=name, information_type=info, location=f"{name}.net",
            interface=[f"{name}Data"]))
    registry.create_coalition("Cardio", "cardiology")
    registry.create_coalition("Pediatric Cardio", "pediatric cardiology",
                              parent="Cardio")
    registry.create_coalition("Ins", "insurance")
    registry.join("A", "Cardio")
    registry.join("B", "Pediatric Cardio")
    registry.join("C", "Ins")
    registry.add_service_link(ServiceLink(
        EndpointKind.COALITION, "Cardio", EndpointKind.COALITION, "Ins",
        information_type="insurance"))
    registry.attach_document("A", "html", "<p>About A</p>", "http://a")
    return registry


class TestRoundTrip:
    def test_summary_preserved(self):
        original = build_registry()
        restored = import_topology(export_topology(original))
        assert restored.summary() == original.summary()

    def test_descriptions_preserved(self):
        restored = import_topology(export_topology(build_registry()))
        description = restored.source("A")
        assert description.location == "A.net"
        assert description.interface == ["AData"]

    def test_hierarchy_preserved(self):
        restored = import_topology(export_topology(build_registry()))
        assert restored.coalition("Pediatric Cardio").parent == "Cardio"
        # parent members see the specialization in their co-databases
        assert restored.codatabase("A").subclasses_of("Cardio") == \
            ["Pediatric Cardio"]

    def test_links_and_contacts_preserved(self):
        restored = import_topology(export_topology(build_registry()))
        link = restored.service_links()[0]
        assert link.label == "Cardio_to_Ins"
        assert link.contact == "C"

    def test_documents_preserved(self):
        restored = import_topology(export_topology(build_registry()))
        documents = restored.codatabase("A").documents_of("A")
        assert documents == [{"format": "html", "content": "<p>About A</p>",
                              "url": "http://a"}]

    def test_codatabases_answer_after_restore(self):
        restored = import_topology(export_topology(build_registry()))
        matches = restored.codatabase("A").find_coalitions("cardiology")
        assert matches and matches[0]["name"] == "Cardio"

    def test_export_is_json_serializable(self):
        payload = export_topology(build_registry())
        json.dumps(payload)  # must not raise

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "topology.json"
        save_topology(build_registry(), str(path))
        restored = load_topology(str(path))
        assert restored.summary() == build_registry().summary()

    def test_parents_resolved_out_of_order(self):
        payload = export_topology(build_registry())
        payload["coalitions"].reverse()  # children before parents
        restored = import_topology(payload)
        assert restored.coalition("Pediatric Cardio").parent == "Cardio"


@pytest.mark.parametrize("round_trips", [1, 4])
class TestJoinOrderRoundTrip:
    """Membership order is join order, not coalition-listing order, and
    it survives any number of export/import round trips."""

    @staticmethod
    def round_trip(registry, times):
        for _ in range(times):
            registry = import_topology(export_topology(registry))
        return registry

    @staticmethod
    def build():
        registry = Registry()
        for name in ("A", "B", "C"):
            registry.add_source(SourceDescription(
                name=name, information_type="x", location=f"{name}.net"))
        # Created Alpha-first, joined Zeta-first; and within each
        # coalition the member order is not alphabetical either.
        registry.create_coalition("Alpha", "alpha")
        registry.create_coalition("Zeta", "zeta")
        registry.join("C", "Zeta")
        registry.join("A", "Zeta")
        registry.join("C", "Alpha")
        registry.join("B", "Alpha")
        registry.join("A", "Alpha")
        return registry

    def test_memberships_and_members_preserved(self, round_trips):
        original = self.build()
        restored = self.round_trip(original, round_trips)
        assert restored.codatabase("A").memberships == ["Zeta", "Alpha"]
        for name in original.source_names():
            assert restored.codatabase(name).memberships \
                == original.codatabase(name).memberships
        for name in original.coalition_names():
            assert restored.coalition(name).members \
                == original.coalition(name).members
        assert restored.coalition("Alpha").members == ["C", "B", "A"]

    def test_payload_without_memberships_still_imports(self, round_trips):
        payload = export_topology(self.build())
        del payload["memberships"]
        restored = self.round_trip(import_topology(payload),
                                   round_trips - 1)
        assert restored.coalition("Zeta").members == ["C", "A"]
        assert restored.summary() == self.build().summary()

    def test_contradictory_orders_rejected(self, round_trips):
        payload = export_topology(
            self.round_trip(self.build(), round_trips - 1))
        payload["memberships"]["A"] = ["Alpha", "Zeta"]
        payload["memberships"]["C"] = ["Zeta", "Alpha"]
        for coalition in payload["coalitions"]:
            coalition["members"] = {"Alpha": ["C", "A"],
                                    "Zeta": ["A", "C"]}[coalition["name"]]
        with pytest.raises(WebFinditError):
            import_topology(payload)


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(WebFinditError):
            import_topology({"format": "something-else"})

    def test_dangling_parent_rejected(self):
        payload = export_topology(build_registry())
        for coalition in payload["coalitions"]:
            if coalition["name"] == "Pediatric Cardio":
                coalition["parent"] = "Ghost"
        with pytest.raises(WebFinditError):
            import_topology(payload)

    def test_healthcare_world_round_trips(self, healthcare):
        payload = export_topology(healthcare.system.registry)
        restored = import_topology(payload)
        assert restored.summary() == healthcare.system.registry.summary()
        rbh = restored.codatabase("Royal Brisbane Hospital")
        assert rbh.memberships == ["Research", "Medical"]
        assert len(rbh.documents_of("Royal Brisbane Hospital")) == 2


class TestEpochRoundTrip:
    """Replication satellite: epochs and documents survive snapshots."""

    def test_topology_export_carries_epochs(self):
        registry = build_registry()
        payload = export_topology(registry)
        assert payload["epochs"] == registry.epochs()
        assert all(epoch > 0 for epoch in payload["epochs"].values())

    def test_topology_import_restores_epochs(self):
        registry = build_registry()
        restored = import_topology(export_topology(registry))
        assert restored.epochs() == registry.epochs()

    def test_documents_round_trip(self):
        registry = build_registry()
        restored = import_topology(export_topology(registry))
        original_docs = registry.codatabase("A").documents_of("A")
        assert restored.codatabase("A").documents_of("A") == original_docs
        assert original_docs  # the fixture attaches one

    def test_epoch_is_authoritative_not_recounted(self):
        """An imported registry's epochs reflect federation history, not
        however many writes the rebuild itself performed."""
        registry = build_registry()
        registry.codatabase("A").epoch = 99
        restored = import_topology(export_topology(registry))
        assert restored.codatabase("A").epoch == 99

    def test_topology_import_completes_every_adopted_epoch(self):
        """``applied`` is the adopted epoch, whether the history was
        longer than the state (a join and a leave) or shorter."""
        registry = build_registry()
        registry.join("C", "Cardio")
        registry.leave("C", "Cardio")
        registry.codatabase("B").epoch = registry.codatabase("B").applied = 2
        restored = import_topology(export_topology(registry))
        for name, epoch in registry.epochs().items():
            codatabase = restored.codatabase(name)
            assert codatabase.epoch == codatabase.applied == epoch
            assert CoDatabaseServant(codatabase).versioned(
                "memberships", [])["epoch"] == epoch

    def test_codatabase_import_completes_the_adopted_epoch(self, healthcare):
        rbh = healthcare.system.registry.codatabase("Royal Brisbane Hospital")
        payload = export_codatabase(rbh)
        assert payload["epoch"] > 3
        payload["epoch"] = 3
        restored = import_codatabase(payload)
        assert restored.epoch == restored.applied == 3
        assert CoDatabaseServant(restored).versioned(
            "consult", ["Medical", True, 0.5])["epoch"] == 3



def _verdict(codatabase, operation):
    """What *codatabase* says to a write naming the coalition "Medical":
    accepted, or the class of error it refuses with."""
    calls = {
        "add_member": lambda: codatabase.add_member(
            "Medical", SourceDescription(name="Mater",
                                         information_type="medical")),
        "remove_member": lambda: codatabase.remove_member("Medical",
                                                          "Mater"),
        "record_membership": lambda: codatabase.record_membership(
            "Medical"),
    }
    try:
        calls[operation]()
    except WebFinditError as exc:
        return "refused", type(exc).__name__
    return "accepted", codatabase.epoch


@pytest.mark.parametrize("operation", ["add_member", "remove_member",
                                       "record_membership"])
def test_a_write_to_a_dissolved_coalition_gets_one_verdict(operation):
    """A forgotten coalition's class stays in the live co-database's
    append-only schema, but not in a snapshot-restored copy: both must
    refuse a write that names it, or replication quarantines the copy
    for a write the live one took."""
    live = CoDatabase("RBH")
    live.register_coalition(Coalition("Medical", "medical"))
    live.forget_coalition("Medical")
    restored = import_codatabase(export_codatabase(live))
    assert _verdict(live, operation) == _verdict(restored, operation) \
        == ("refused", "UnknownCoalition")
