"""Generator for the durable-form golden files in this directory.

The files were written by the code of commit ``338a9a9`` (the last one
with a per-operation ``apply_entry`` and two write routines), so they
pin the *bytes on disk* across any change of mechanics::

    PYTHONPATH=<checkout of 338a9a9>/src python tests/core/golden/generate.py

They must never be regenerated from the working tree: a change that
makes ``test_golden_durable.py`` fail has changed an on-disk layout.

* ``journal_v2.wal`` — the checksummed binary journal every new
  deployment writes, after :data:`SCRIPT` under fan-out replication.
* ``journal_legacy.jsonl`` — the same writes in the legacy JSON-lines
  format (``fmt="jsonl"``).
* ``journal_quorum.wal`` — the same writes under quorum replication;
  entries carry fences 3 and 4 (three elections, then a lapsed lease).
* ``codatabase_snapshot.json`` — ``export_codatabase`` of the state all
  three journals replay to (``webfindit-codatabase/1``).
* ``healthcare_topology.json`` — ``export_topology`` of the Figure-1
  healthcare federation (``webfindit-topology/1``).
"""

import functools
import json
import pathlib

from repro.core.coalition import Coalition
from repro.core.journal import ReplicaJournal
from repro.core.model import SourceDescription
from repro.core.replication import ReplicatedCoDatabase
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.snapshot import export_codatabase, export_topology
from repro.errors import WebFinditError

GOLDEN = pathlib.Path(__file__).parent

OWNER = "Alpha"
REPLICAS = 3
LEASE = 10.0

#: What every journal replays to: writes accepted, and the one refused.
EPOCH = 17
REFUSED = 1

#: Fences the quorum journal carries, in entry order.
FENCES = [3] * 8 + [4] * 9

ALPHA = SourceDescription(
    name="Alpha", information_type="cardiology research",
    documentation_url="http://alpha.example/doc", location="alpha.example",
    wrapper="alpha.example/WebTassiliOracle",
    interface=["Trials", "Patients"], dbms="Oracle", orb_product="Orbix",
    structure=["Trials.Title", "Funding"])
BETA = SourceDescription(name="Beta", information_type="cardiology",
                         location="beta.example", interface=["Wards"])
GAMMA = SourceDescription(name="Gamma", information_type="pædiatrics")

TO_BETA = ServiceLink(EndpointKind.COALITION, "Cardio",
                      EndpointKind.DATABASE, "Beta",
                      information_type="cardiology")
TO_INSURERS = ServiceLink(EndpointKind.DATABASE, "Alpha",
                          EndpointKind.COALITION, "Insurers",
                          information_type="insurance",
                          description="claims for trial patients",
                          contact="Medibank")

#: Every maintenance operation at least once, one write the co-database
#: refuses, ``attach_document`` with and without its ``url``.
SCRIPT = [
    ("advertise", (ALPHA,)),
    ("register_coalition", (Coalition("Cardio", "cardiology",
                                      doc="Heart medicine"),)),
    ("register_coalition", (Coalition("Pediatric Cardio",
                                      "pediatric cardiology",
                                      parent="Cardio"),)),
    ("record_membership", ("Cardio",)),
    ("add_member", ("Cardio", ALPHA)),
    ("add_member", ("Cardio", BETA)),
    ("add_member", ("Pediatric Cardio", GAMMA)),
    ("record_membership", ("No Such Coalition",)),  # refused
    ("add_service_link", (TO_BETA,)),
    ("add_service_link", (TO_INSURERS,)),
    ("attach_document", ("Alpha", "html", "<p>About α</p>",
                         "http://alpha.example/about")),
    ("attach_document", ("Beta", "text", "about beta")),  # url defaulted
    ("remove_service_link", (TO_BETA,)),
    ("remove_member", ("Pediatric Cardio", "Gamma")),
    ("register_coalition", (Coalition("Temp", "temporary"),)),
    ("record_membership", ("Temp",)),
    ("drop_membership", ("Temp",)),
    ("forget_coalition", ("Temp",)),
]


class FakeTime:
    """A controllable clock: quorum runs never wait for real."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, duration):
        self.now += duration


def run_script(target, before_write=None):
    """Issue :data:`SCRIPT` against *target* (a co-database or a
    replicated facade); returns how many writes it refused."""
    refused = 0
    for step, (operation, args) in enumerate(SCRIPT):
        if before_write is not None:
            before_write(step)
        try:
            getattr(target, operation)(*args)
        except WebFinditError:
            refused += 1
    return refused


def journal_factory(directory, fmt):
    name = "journal.wal" if fmt == "v2" else "journal.jsonl"

    def factory(owner, index):
        return ReplicaJournal(str(directory / f"r{index}" / name), fmt=fmt)
    return factory


def fanout_facade(directory, fmt="v2", **kwargs):
    return ReplicatedCoDatabase(
        OWNER, replicas=REPLICAS,
        journal_factory=journal_factory(directory, fmt), **kwargs)


def quorum_facade(directory, fake, **kwargs):
    return ReplicatedCoDatabase(
        OWNER, replicas=REPLICAS, quorum=True, lease_duration=LEASE,
        clock=fake.clock, sleep=fake.sleep,
        journal_factory=journal_factory(directory, "v2"), **kwargs)


def run_quorum(directory, **kwargs):
    """:data:`SCRIPT` under quorum: three elections up front (fence 3),
    and the lease lapses before the tenth call (fence 4 from there)."""
    fake = FakeTime()
    facade = quorum_facade(directory, fake, **kwargs)
    for _ in range(3):
        facade.elect()

    def lapse(step):
        if step == 9:
            fake.now += LEASE + 1

    run_script(facade, before_write=lapse)
    return facade


def close(facade):
    for runtime in facade.runtimes:
        runtime.journal.close()


def replica_files(directory):
    """The journal file of every replica under *directory*, in order."""
    return [next((directory / f"r{index}").glob("journal.*"))
            for index in range(REPLICAS)]


def dump(payload):
    """The JSON text golden exports are stored and compared as."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def healthcare_topology():
    from repro.apps.healthcare import build_healthcare_system
    return export_topology(build_healthcare_system().system.registry)


def run_fanout(directory, fmt="v2", **kwargs):
    facade = fanout_facade(directory, fmt, **kwargs)
    run_script(facade)
    return facade


#: Golden journal -> the run that writes it (into its own directory).
RUNS = {
    "journal_v2.wal": run_fanout,
    "journal_legacy.jsonl": functools.partial(run_fanout, fmt="jsonl"),
    "journal_quorum.wal": run_quorum,
}


def run_directory(directory, name):
    """Where the run that writes golden journal *name* keeps its files."""
    return directory / name.partition(".")[0]


def generate(directory):
    """Write every golden file under *directory*, in the names the
    golden directory uses; returns the facades the journals came from."""
    directory = pathlib.Path(directory)
    facades = {}
    for name, run in RUNS.items():
        home = run_directory(directory, name)
        facades[name] = run(home)
        close(facades[name])
        (directory / name).write_bytes(replica_files(home)[0].read_bytes())
    (directory / "codatabase_snapshot.json").write_text(
        dump(export_codatabase(facades["journal_v2.wal"].primary)),
        encoding="utf-8")
    (directory / "healthcare_topology.json").write_text(
        dump(healthcare_topology()), encoding="utf-8")
    return facades


if __name__ == "__main__":
    import shutil
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        generate(scratch)
        for path in pathlib.Path(scratch).iterdir():
            if path.is_file():
                shutil.copy(path, GOLDEN / path.name)
                print(f"wrote {GOLDEN / path.name}")
