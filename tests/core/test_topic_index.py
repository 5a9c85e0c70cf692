"""A co-database answers from its topic index what a scan would answer.

``consult`` and ``find_coalitions`` score a :class:`CoDatabase`'s topic
index, derived state rebuilt on the first read after a maintenance
write or an ontology change.  :class:`PlainCoDatabase` below is the
reference: the state those two reads depend on as plain dicts, each of
the ten mutators restated, and a scan that re-tokenises every topic on
every question.  It shares no code with ``repro.core.codatabase``.

The property runs the *unfiltered* write scripts of
``tests/core/write_scripts.py`` — states the registry never produces
(writes naming a forgotten coalition, links into nowhere) included —
and after every step holds both reads equal to the reference's (the
``consult`` answer in its plain form, ``answer.to_wire()``), with
no ontology, with the healthcare ontology, and with synonyms and a
proximity added after the index was built.  The deterministic tests pin
the keep rule: an index built while a write is in flight answers that
read and is not kept.

Tier-1 runs hypothesis's default example count derandomised; CI's
``discovery-model`` job loads the ``ci`` profile (ten times the
examples, ``--hypothesis-seed`` from {7, 23, 1999}).
"""

import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.healthcare.topology import healthcare_ontology
from repro.core.codatabase import CoDatabase
from repro.core.coalition import Coalition
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import WebFinditError

from tests.core.write_scripts import OWNER, writes

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)

_WORD = re.compile(r"[a-z0-9]+")
_STOP = {"and", "or", "of", "the", "a", "an", "in", "on", "for", "with",
         "to"}
#: Classes every co-database schema defines besides its coalitions.
_FIXED_CLASSES = {"InformationSource", "CoalitionInfo", "ServiceLink",
                  "CoalitionServiceLink", "DatabaseServiceLink", "Document"}


def _words(text):
    return {word for word in _WORD.findall(text.lower()) if word not in _STOP}


def _score(query, topic, ontology=None):
    asked = _words(query)
    if not asked:
        return 0.0
    offered = _words(topic)
    if ontology is not None:
        offered = ontology.expand(offered)
    hits = 0
    for word in asked:
        group = ontology.expand({word}) if ontology is not None else {word}
        if group & offered:
            hits += 1
    return hits / len(asked)


class Refused(Exception):
    pass


class PlainCoDatabase:
    """What ``consult`` depends on, as plain dicts and lists."""

    def __init__(self, owner):
        self.owner = owner
        self.records = []        # [name, information type], record order
        self.classes = {}        # coalition class -> [(member, its type)]
        self.memberships = []
        self.links = {"coalition": [], "database": []}  # by link class

    def _require(self, name):
        # A write needs the coalition's record as well as its class: a
        # forgotten coalition keeps its class and loses its record.
        if name not in self.classes \
                or all(record[0] != name for record in self.records):
            raise Refused(name)

    # -- the ten mutators ------------------------------------------------------

    def advertise(self, description):
        if description.name != self.owner:
            raise Refused(description.name)

    def register_coalition(self, coalition):
        if coalition.name not in _FIXED_CLASSES:
            self.classes.setdefault(coalition.name, [])
        if all(name != coalition.name for name, __ in self.records):
            self.records.append([coalition.name, coalition.information_type])

    def record_membership(self, name):
        self._require(name)
        if name not in self.memberships:
            self.memberships.append(name)

    def drop_membership(self, name):
        if name in self.memberships:
            self.memberships.remove(name)

    def add_member(self, name, description):
        self._require(name)
        if all(member != description.name
               for member, __ in self.classes[name]):
            self.classes[name].append(
                (description.name, description.information_type))

    def remove_member(self, name, source):
        self._require(name)
        self.classes[name] = [(member, kind) for member, kind
                              in self.classes[name] if member != source]

    def forget_coalition(self, name):
        self.records = [record for record in self.records
                        if record[0] != name]
        if name in self.classes:
            self.classes[name] = []
        self.drop_membership(name)

    @staticmethod
    def _ends(link):
        return (link.from_kind.value, link.from_name, link.to_kind.value,
                link.to_name)

    def add_service_link(self, link):
        mine = (link.from_kind.value == "database"
                and link.from_name == self.owner) \
            or (link.to_kind.value == "database"
                and link.to_name == self.owner)
        stored = self.links["database" if mine else "coalition"]
        if all(self._ends(other) != self._ends(link) for other in stored):
            stored.append(link)

    def remove_service_link(self, link):
        for kind, stored in self.links.items():
            self.links[kind] = [other for other in stored
                                if self._ends(other) != self._ends(link)]

    def attach_document(self, source, format_name, content, url):
        pass

    # -- the two reads, by scanning --------------------------------------------

    def find_coalitions(self, query, threshold, ontology):
        matches = []
        for name, information_type in self.records:
            members = self.classes.get(name, [])
            topics = [information_type or "", name] \
                + [kind or "" for __, kind in members]
            score = max(_score(query, topic, ontology) for topic in topics)
            if score < threshold and ontology is not None and (
                    ontology.are_related(query, information_type or "")
                    or ontology.are_related(query, name)):
                score = threshold
            if score >= threshold:
                matches.append({"name": name,
                                "information_type": information_type or "",
                                "score": score,
                                "members": [member for member, __ in members]})
        return sorted(matches, key=lambda m: (-m["score"], m["name"]))

    def consult(self, query, neighbors, threshold, ontology):
        links = self.links["coalition"] + self.links["database"]
        leads, targets = [], []
        for link in links:
            target = (link.to_kind.value, link.to_name)
            score = max(_score(query, link.information_type),
                        _score(query, link.to_name),
                        _score(query, link.description))
            if target in targets or score < threshold:
                continue
            targets.append(target)
            leads.append({
                "to_kind": link.to_kind.value, "to_name": link.to_name,
                "information_type": link.information_type or link.description,
                "score": score,
                "label": link.from_name.replace(" ", "") + "_to_"
                + link.to_name.replace(" ", ""),
                "contact": link.contact})
        contacts = []
        for link in links:
            if link.contact and link.contact not in contacts:
                contacts.append(link.contact)
        around = []
        for name in self.memberships:
            for member, __ in self.classes.get(name, []):
                if member != self.owner and member not in around:
                    around.append(member)
        return {"matches": self.find_coalitions(query, threshold, ontology),
                "leads": leads, "contacts": contacts,
                "neighbors": around if neighbors else []}


#: Asked after every step: the write scripts' topic words and names
#: (alone, so that a one-word topic fully matches), a healthcare
#: synonym, the words :func:`_grow` adds, a pair, and nothing.
QUERIES = ["cardiology", "insurance", "cover", "care", "heart", "pædiatric",
           "beta c2", "cardiology insurance", ""]


def _grow(ontology):
    # "care" ~ "cover" joins no group, it links two: "insurance" still
    # does not expand to "care", but "pædiatric care" now expands to
    # "cover" — an index built before this answers "insurance" wrong.
    ontology.add_synonyms("care", ["cover"])
    ontology.add_synonyms("cardiology", ["heart"])
    ontology.relate("insurance", "cardiology")


@SETTINGS
@given(script=st.lists(writes, min_size=1, max_size=24),
       threshold=st.sampled_from([0.3, 0.5, 1.0]),
       ontology_kind=st.sampled_from(["none", "healthcare", "grown"]),
       grow_at=st.integers(min_value=0, max_value=23))
def test_the_index_answers_what_a_scan_answers_after_every_write(
        script, threshold, ontology_kind, grow_at):
    ontology = None if ontology_kind == "none" else healthcare_ontology()
    codatabase = CoDatabase(OWNER, ontology=ontology)
    reference = PlainCoDatabase(OWNER)

    def agree():
        for number, query in enumerate(QUERIES):
            neighbors = number % 2 == 0
            assert codatabase.consult(query, neighbors, threshold).to_wire() \
                == reference.consult(query, neighbors, threshold, ontology)
            assert codatabase.find_coalitions(query, threshold) \
                == reference.find_coalitions(query, threshold, ontology)

    for step, (operation, args) in enumerate(script):
        try:
            getattr(reference, operation)(*args)
        except Refused:
            expected_refusal = True
        else:
            expected_refusal = False
        try:
            getattr(codatabase, operation)(*args)
        except WebFinditError:
            refused = True
        else:
            refused = False
        assert refused == expected_refusal, (step, operation)
        agree()
        if ontology_kind == "grown" and step == min(grow_at, len(script) - 1):
            _grow(ontology)  # the index was built by agree() just now
            agree()


def _stocked():
    codatabase = CoDatabase("Alpha")
    codatabase.register_coalition(Coalition("Cardio", "cardiology"))
    codatabase.add_member("Cardio", SourceDescription("Gamma", "cardiology"))
    codatabase.record_membership("Cardio")
    return codatabase


INSURANCE_LINK = ServiceLink(EndpointKind.DATABASE, "Alpha",
                             EndpointKind.DATABASE, "Beta",
                             information_type="insurance", contact="Beta")


def _lead_names(codatabase):
    return [lead.to_name for lead in
            codatabase.consult("insurance", False, 0.5).leads]


def test_a_consult_inside_a_write_does_not_hide_the_write():
    """Read between the ``epoch`` bump and ``applied``: the index built
    then shows the state before the write and must not be kept."""
    codatabase = _stocked()
    assert _lead_names(codatabase) == []  # an index of the old state
    store = codatabase.object_database
    create = store.create
    inside = []

    def create_after_a_read(class_name, **values):
        inside.append(_lead_names(codatabase))
        return create(class_name, **values)

    store.create = create_after_a_read
    try:
        codatabase.add_service_link(INSURANCE_LINK)
    finally:
        del store.create
    assert inside == [[]]
    assert codatabase.epoch == codatabase.applied
    assert _lead_names(codatabase) == ["Beta"]


def test_a_write_landing_during_a_build_is_not_hidden():
    """A write lands after the build read the coalitions and before it
    read the links: that index answers the read that built it and is
    dropped, although no write is in flight once it is done."""
    codatabase = _stocked()
    store = codatabase.object_database
    extent = store.extent
    landed = []

    def extent_racing_a_write(class_name, include_subclasses=True):
        if class_name == "ServiceLink" and not landed:
            landed.append(True)
            codatabase.add_member("Cardio",
                                  SourceDescription("Delta", "insurance"))
        return extent(class_name, include_subclasses)

    store.extent = extent_racing_a_write
    try:
        raced = codatabase.find_coalitions("cardiology")
    finally:
        del store.extent
    assert landed and raced[0]["members"] == ["Gamma"]
    assert codatabase.find_coalitions("cardiology")[0]["members"] \
        == ["Gamma", "Delta"]


def test_readers_racing_a_writer_never_keep_a_stale_index():
    """Threads consult (and build and keep indexes) while one thread
    writes: after each write returns, its own next read must show it."""
    codatabase = _stocked()
    stop = threading.Event()
    errors = []

    def read():
        while not stop.is_set():
            codatabase.consult("insurance", True, 0.5)

    def write():
        try:
            for number in range(150):
                codatabase.add_service_link(ServiceLink(
                    EndpointKind.DATABASE, "Alpha", EndpointKind.DATABASE,
                    f"Beta {number}", information_type="insurance"))
                if len(_lead_names(codatabase)) != number + 1:
                    errors.append(number)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for __ in range(4)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(_lead_names(codatabase)) == 150


def test_reads_without_writes_reuse_one_index(monkeypatch):
    builds = []
    build = CoDatabase._build_index

    def counted(self, key):
        builds.append(key)
        return build(self, key)

    monkeypatch.setattr(CoDatabase, "_build_index", counted)
    ontology = healthcare_ontology()
    codatabase = CoDatabase("Alpha", ontology=ontology)
    codatabase.register_coalition(Coalition("Cardio", "cardiology"))
    for query in ("cardiology", "insurance", "heart"):
        codatabase.consult(query, True, 0.5)
        codatabase.find_coalitions(query)
    assert len(builds) == 1
    codatabase.add_service_link(INSURANCE_LINK)
    codatabase.consult("insurance", False, 0.5)
    ontology.add_synonyms("cardiology", ["heart"])
    assert codatabase.find_coalitions("heart")[0]["name"] == "Cardio"
    assert len(builds) == 3


def test_every_answer_is_the_callers_own():
    codatabase = _stocked()
    codatabase.add_service_link(INSURANCE_LINK)
    first = codatabase.consult("cardiology insurance", True, 0.5)
    assert first.matches and first.leads and first.neighbors
    # The answer shares the index's tuples: nobody can change them.
    match, lead = first.matches[0], first.leads[0]
    for target, field in ((first, "neighbors"), (match, "members"),
                          (lead, "contact")):
        with pytest.raises(AttributeError):
            setattr(target, field, "scribble")
    for sequence in (first.matches, first.leads, first.contacts,
                     first.neighbors, match.members):
        assert isinstance(sequence, tuple)
    assert codatabase.consult("cardiology insurance", True, 0.5) == first
    found = codatabase.find_coalitions("cardiology")
    found[0]["members"].append("scribble")
    assert codatabase.find_coalitions("cardiology")[0]["members"] == ["Gamma"]
