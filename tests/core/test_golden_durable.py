"""The bytes on disk, pinned.

``tests/core/golden/`` holds journals (v2, legacy jsonl, fenced), a
co-database snapshot and the healthcare topology export as commit
``338a9a9`` wrote them (see ``golden/generate.py``).  Two directions:
every golden file still **reads** — replays or imports to the pinned
state and epoch — and the working tree, given the same calls, **writes**
byte-identical files and exports (JSON text compared, key order
included).
"""

import json
import shutil

import pytest

from repro.core.codatabase import CoDatabase
from repro.core.journal import ReplicaJournal, replay_entries
from repro.core.replication import ReplicatedCoDatabase
from repro.core.snapshot import (export_codatabase, export_topology,
                                 import_codatabase, import_topology)
from tests.core.golden import generate as gen

JOURNALS = sorted(gen.RUNS)


def golden_text(name):
    return (gen.GOLDEN / name).read_text(encoding="utf-8")


def load_journal(name, tmp_path):
    """A journal over a *copy* of a golden file (loading may repair a
    tail, and must never touch the pinned bytes)."""
    directory = gen.run_directory(tmp_path, name)
    directory.mkdir()
    path = directory / ("journal.jsonl" if name.endswith(".jsonl")
                        else "journal.wal")
    shutil.copy(gen.GOLDEN / name, path)
    return ReplicaJournal(str(path))


# ------------------------------------------------------------------ reading --


@pytest.mark.parametrize("name", JOURNALS)
def test_golden_journal_replays_to_the_pinned_state(name, tmp_path):
    journal = load_journal(name, tmp_path)
    assert journal.torn_records == 0
    assert journal.fmt == ("jsonl" if name.endswith(".jsonl") else "v2")
    assert [entry.epoch for entry in journal.entries()] \
        == list(range(1, gen.EPOCH + 1))
    codatabase = CoDatabase(gen.OWNER)
    assert replay_entries(codatabase, journal.entries()) == gen.EPOCH
    assert codatabase.epoch == gen.EPOCH
    assert gen.dump(export_codatabase(codatabase)) \
        == golden_text("codatabase_snapshot.json")


def test_golden_quorum_journal_carries_its_fences(tmp_path):
    journal = load_journal("journal_quorum.wal", tmp_path)
    assert [entry.fence for entry in journal.entries()] == gen.FENCES
    assert journal.last_fence == 4
    assert load_journal("journal_v2.wal", tmp_path).last_fence == 0


@pytest.mark.parametrize("name", JOURNALS)
def test_golden_journal_restores_a_facade_that_keeps_appending(name,
                                                               tmp_path):
    """The one read path serves old files and new: a facade over a
    golden journal resumes at its epoch and appends in its format."""
    journal = load_journal(name, tmp_path)
    facade = ReplicatedCoDatabase(gen.OWNER, replicas=1,
                                  journal_factory=lambda owner, index: journal)
    assert facade.epoch == gen.EPOCH
    facade.attach_document("Alpha", "text", "appended")
    journal.close()
    reread = ReplicaJournal(journal.path)
    assert reread.fmt == journal.fmt and reread.torn_records == 0
    assert reread.last_epoch == gen.EPOCH + 1
    with open(journal.path, "rb") as handle:
        assert handle.read().startswith((gen.GOLDEN / name).read_bytes())


def test_golden_snapshot_imports_to_the_pinned_state():
    payload = json.loads(golden_text("codatabase_snapshot.json"))
    assert payload["format"] == "webfindit-codatabase/1"
    codatabase = import_codatabase(payload)
    assert codatabase.epoch == gen.EPOCH
    assert codatabase.memberships == ["Cardio"]
    assert [c.name for c in codatabase.known_coalitions()] \
        == ["Cardio", "Pediatric Cardio"]
    assert [d.name for d in codatabase.instances_of("Cardio")] \
        == ["Alpha", "Beta"]
    assert [link.label for link in codatabase.service_links()] \
        == [gen.TO_INSURERS.label]
    assert codatabase.documents_of("Beta") == [
        {"format": "text", "content": "about beta", "url": ""}]
    assert gen.dump(export_codatabase(codatabase)) \
        == golden_text("codatabase_snapshot.json")


def test_golden_snapshot_is_a_journal_recovery_base(tmp_path):
    """A stored snapshot written before the ``fence`` key existed still
    loads, and counts as fence 0."""
    directory = tmp_path / "r0"
    directory.mkdir()
    shutil.copy(gen.GOLDEN / "codatabase_snapshot.json",
                directory / "snapshot.json")
    journal = ReplicaJournal(str(directory / "journal.wal"))
    assert journal.last_epoch == gen.EPOCH and journal.last_fence == 0
    facade = ReplicatedCoDatabase(gen.OWNER, replicas=1,
                                  journal_factory=lambda owner, index: journal)
    assert facade.epoch == gen.EPOCH
    assert gen.dump(export_codatabase(facade.primary)) \
        == golden_text("codatabase_snapshot.json")


def test_golden_topology_imports_and_exports_itself():
    payload = json.loads(golden_text("healthcare_topology.json"))
    assert payload["format"] == "webfindit-topology/1"
    registry = import_topology(payload)
    assert len(registry.source_names()) == len(payload["sources"]) == 14
    assert gen.dump(export_topology(registry)) \
        == golden_text("healthcare_topology.json")


# ------------------------------------------------------------------ writing --


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    return directory, gen.generate(directory)


@pytest.mark.parametrize("name", JOURNALS)
def test_same_calls_write_byte_identical_journals(name, written):
    directory, facades = written
    assert facades[name].epoch == gen.EPOCH
    golden = (gen.GOLDEN / name).read_bytes()
    for path in gen.replica_files(gen.run_directory(directory, name)):
        assert path.read_bytes() == golden, path


def test_same_calls_export_the_byte_identical_snapshot(written):
    directory, facades = written
    assert (directory / "codatabase_snapshot.json").read_text(
        encoding="utf-8") == golden_text("codatabase_snapshot.json")
    # Fan-out, jsonl and quorum all end at the one pinned state.
    for facade in facades.values():
        for runtime in facade.runtimes:
            assert gen.dump(export_codatabase(runtime.codatabase)) \
                == golden_text("codatabase_snapshot.json")


def test_a_plain_codatabase_given_the_script_is_the_pinned_state():
    codatabase = CoDatabase(gen.OWNER)
    assert gen.run_script(codatabase) == gen.REFUSED
    assert codatabase.epoch == gen.EPOCH
    assert gen.dump(export_codatabase(codatabase)) \
        == golden_text("codatabase_snapshot.json")


def test_healthcare_exports_the_byte_identical_topology(written, healthcare):
    directory, _ = written
    assert (directory / "healthcare_topology.json").read_text(
        encoding="utf-8") == golden_text("healthcare_topology.json")
    assert gen.dump(export_topology(healthcare.system.registry)) \
        == golden_text("healthcare_topology.json")
