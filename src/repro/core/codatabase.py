"""Co-databases: the object-oriented metadata layer.

"Each participating database has a co-database attached to it.  A
co-database is an object-oriented database that stores information
about its associated database, coalitions, and service links" (§2.2).

Faithfully to the paper, a co-database here *is* an
:class:`~repro.oodb.database.ObjectDatabase`: every coalition is a
class in its schema (subclass relationships model topic
specialization), member databases are instances of those classes, and
service links live in a two-subclass lattice (coalition links vs.
database links).  Documents (the multimedia documentation of §2.2) are
stored per source.

The co-database is served over the ORB by :class:`CoDatabaseServant`
(interface :data:`CODATABASE_INTERFACE`) so remote metadata queries are
real middleware traffic.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro.core.coalition import Coalition
from repro.core.model import (Ontology, SourceDescription, topic_words,
                              word_scorer)
from repro.core.service_link import EndpointKind, ServiceLink, link_label
from repro.errors import UnknownCoalition, UnknownDatabase, WebFinditError
from repro.oodb.database import ObjectDatabase
from repro.oodb.schema import Attribute
from repro.orb.cdr import CdrDecoder, CdrEncoder, register_value
from repro.orb.idl import InterfaceBuilder, InterfaceDef

#: Root class name for the coalition lattice inside every co-database.
SOURCE_ROOT_CLASS = "InformationSource"

#: Most ``consult`` answers one topic index keeps; a question past them
#: is answered and not stored.
CONSULT_MEMO_SIZE = 64


class _TopicIndex(NamedTuple):
    """Everything ``consult`` scores, derived from one co-database state.

    Word sets are :func:`~repro.core.model.topic_words` — for coalitions
    expanded through the ontology, as :meth:`CoDatabase.find_coalitions`
    scores them; links are scored on their own words.
    """

    #: ``(epoch, applied, ontology version)`` the index was built at.
    key: tuple[int, int, int]
    #: Per coalition: name, information type, member names, and the word
    #: sets of its type, its name and each member's advertised type.
    coalitions: tuple[tuple[str, str, tuple[str, ...],
                            tuple[frozenset[str], ...]], ...]
    #: Per service link, in store order: target kind and name, advertised
    #: type (or description), label, contact, and the word sets of its
    #: type, target name and description.
    links: tuple[tuple[str, str, str, str, str,
                       tuple[frozenset[str], ...]], ...]
    #: The links' distinct contacts, in link order.
    contacts: tuple[str, ...]
    neighbors: tuple[str, ...]
    #: ``(query, neighbors, threshold)`` -> the :class:`ConsultAnswer`
    #: given: it lives and dies with the index, whose key covers every
    #: other input of ``consult``.
    answers: dict[tuple[str, bool, float], "ConsultAnswer"]


# ---------------------------------------------------------------------------
# The consult answer
# ---------------------------------------------------------------------------

class CoalitionMatch(NamedTuple):
    """A locally-known coalition whose topic matches the query."""

    name: str
    information_type: str
    score: float
    members: tuple[str, ...]

    def to_wire(self) -> dict[str, Any]:
        """The ``find_coalitions`` dict form."""
        return {**self._asdict(), "members": list(self.members)}


class LinkLead(NamedTuple):
    """The first service link into one target that advertises the topic."""

    to_kind: str
    to_name: str
    information_type: str
    score: float
    label: str
    contact: str

    def to_wire(self) -> dict[str, Any]:
        return self._asdict()


@dataclass(frozen=True)
class ConsultAnswer:
    """What one co-database answers to :meth:`CoDatabase.consult`.

    Immutable all the way down — tuples of immutable records — so a
    cache hands its one stored answer to every caller and nobody copies
    it.
    """

    matches: tuple[CoalitionMatch, ...] = ()
    leads: tuple[LinkLead, ...] = ()
    contacts: tuple[str, ...] = ()
    neighbors: tuple[str, ...] = ()

    def to_wire(self) -> dict[str, Any]:
        """The same answer as plain lists and dicts."""
        return {"matches": [match.to_wire() for match in self.matches],
                "leads": [lead.to_wire() for lead in self.leads],
                "contacts": list(self.contacts),
                "neighbors": list(self.neighbors)}


def _write_answer(encoder: CdrEncoder, answer: ConsultAnswer) -> None:
    matches, leads = answer.matches, answer.leads
    encoder.write_array("I", (len(matches), len(leads), len(answer.contacts),
                              len(answer.neighbors),
                              *[len(match.members) for match in matches]))
    strings = [*answer.contacts, *answer.neighbors]
    if matches or leads:
        encoder.write_array("d", [*[match.score for match in matches],
                                  *[lead.score for lead in leads]])
        for match in matches:
            strings += (match.name, match.information_type, *match.members)
        for lead in leads:
            strings += (lead.to_kind, lead.to_name, lead.information_type,
                        lead.label, lead.contact)
    encoder.write_strings(strings)


def _read_answer(decoder: CdrDecoder) -> ConsultAnswer:
    matches, leads, contacts, neighbors = decoder.read_array("I", 4)
    members = scores = ()
    if matches or leads:
        members = decoder.read_array("I", matches)
        scores = decoder.read_array("d", matches + leads)
    at = contacts + neighbors
    strings = decoder.read_strings(at + 2 * matches + sum(members)
                                   + 5 * leads)
    found = []
    for score, count in zip(scores, members):
        found.append(CoalitionMatch(strings[at], strings[at + 1], score,
                                    tuple(strings[at + 2:at + 2 + count])))
        at += 2 + count
    led = []
    for score in scores[matches:]:
        led.append(LinkLead(*strings[at:at + 3], score,
                            *strings[at + 3:at + 5]))
        at += 5
    return ConsultAnswer(tuple(found), tuple(led), tuple(strings[:contacts]),
                         tuple(strings[contacts:contacts + neighbors]))


# Positional on the wire: the four list counts and each match's member
# count as one ulong array; every score as one double array (matches,
# then leads; absent when there are neither); every string as one
# packed run — contacts, neighbours, then per match and per lead
# (layout: docs/middleware.md).  An answer with no matches and no leads,
# the commonest, pays for no empty score array.
register_value("ConsultAnswer/1", ConsultAnswer, _write_answer, _read_answer)


_SOURCE_ATTRIBUTES = [
    Attribute("name", "string", required=True),
    Attribute("information_type", "string"),
    Attribute("documentation_url", "string"),
    Attribute("location", "string"),
    Attribute("wrapper", "string"),
    Attribute("interface", "string", many=True),
    Attribute("dbms", "string"),
    Attribute("orb_product", "string"),
    Attribute("structure", "string", many=True),
]


def _link_identity(link: ServiceLink) -> dict[str, str]:
    """The stored attributes that say which record is *link* (the names
    first: an equality select is answered by its first one's index)."""
    return {"from_name": link.from_name, "to_name": link.to_name,
            "from_kind": link.from_kind.value,
            "to_kind": link.to_kind.value}


class CoDatabase:
    """The metadata repository attached to one information source."""

    def __init__(self, owner_name: str, ontology: Optional[Ontology] = None,
                 product: str = "ObjectStore", version: str = "5.1"):
        self.owner_name = owner_name
        self.ontology = ontology
        self._db = ObjectDatabase(f"co-{owner_name}", product=product,
                                  version=version)
        self._db.define_class(SOURCE_ROOT_CLASS, list(_SOURCE_ATTRIBUTES),
                              doc="Root of the coalition class lattice")
        self._db.define_class("CoalitionInfo", [
            Attribute("name", "string", required=True),
            Attribute("information_type", "string"),
            Attribute("parent", "string"),
            Attribute("doc", "string"),
        ], doc="Metadata about one known coalition")
        self._db.define_class("ServiceLink", [
            Attribute("from_kind", "string"),
            Attribute("from_name", "string"),
            Attribute("to_kind", "string"),
            Attribute("to_name", "string"),
            Attribute("information_type", "string"),
            Attribute("description", "string"),
            Attribute("contact", "string"),
        ], doc="Root of the service-link subschema")
        self._db.define_class("CoalitionServiceLink", bases=["ServiceLink"],
                              doc="Links involving the owner's coalitions")
        self._db.define_class("DatabaseServiceLink", bases=["ServiceLink"],
                              doc="Links involving the owner database itself")
        self._db.define_class("Document", [
            Attribute("owner", "string", required=True),
            Attribute("format", "string"),
            Attribute("content", "string"),
            Attribute("url", "string"),
        ], doc="Multimedia documentation of a source")
        self.local_description: Optional[SourceDescription] = None
        #: Coalitions the owner database is a member of.
        self.memberships: list[str] = []
        #: Monotonic version: bumped once per maintenance write.  Two
        #: replicas of the same co-database that applied the same write
        #: prefix carry the same epoch — which is what journal replay,
        #: anti-entropy, and stale-read detection all compare.
        self.epoch = 0
        #: High-water mark of *completed* writes.  ``epoch`` moves at
        #: the start of a write and ``applied`` at its end, so a reader
        #: that tags a value with ``applied`` can only understate its
        #: freshness — never claim a version whose write it missed.
        #: The metadata cache's epoch tags rely on this.
        self.applied = 0
        #: Derived state, see :meth:`_topic_index`.
        self._index: Optional[_TopicIndex] = None

    # ------------------------------------------------------------ population --

    def advertise(self, description: SourceDescription) -> None:
        """Record the owner's own advertisement."""
        if description.name != self.owner_name:
            raise UnknownDatabase(
                f"co-database of {self.owner_name!r} cannot advertise "
                f"{description.name!r}")
        self.epoch += 1
        self.local_description = description
        self.applied = self.epoch

    def register_coalition(self, coalition: Coalition) -> None:
        """Make *coalition* known: define its class in the lattice."""
        # Epoch bumps are unconditional — a replayed no-op must move the
        # version exactly as the original call did.
        self.epoch += 1
        if not self._db.schema.has_class(coalition.name):
            parent = coalition.parent
            base = parent if parent and self._db.schema.has_class(parent) \
                else SOURCE_ROOT_CLASS
            self._db.define_class(coalition.name, [], bases=[base],
                                  doc=coalition.doc)
        # forget_coalition keeps the class (append-only schema) but
        # deletes the record, so a re-join finds one without the other.
        if not self._db.select("CoalitionInfo", name=coalition.name):
            self._db.create("CoalitionInfo", name=coalition.name,
                            information_type=coalition.information_type,
                            parent=coalition.parent or "",
                            doc=coalition.doc)
        self.applied = self.epoch

    def record_membership(self, coalition_name: str) -> None:
        """Note that the owner belongs to *coalition_name*."""
        self._require_coalition(coalition_name, write=True)
        self.epoch += 1
        if coalition_name not in self.memberships:
            self.memberships.append(coalition_name)
        self.applied = self.epoch

    def drop_membership(self, coalition_name: str) -> None:
        self.epoch += 1
        if coalition_name in self.memberships:
            self.memberships.remove(coalition_name)
        self.applied = self.epoch

    def add_member(self, coalition_name: str,
                   description: SourceDescription) -> None:
        """Store *description* as an instance of the coalition class."""
        self._require_coalition(coalition_name, write=True)
        self.epoch += 1
        if not self._db.select(coalition_name, include_subclasses=False,
                               name=description.name):
            self._db.create(coalition_name, **description.to_wire())
        self.applied = self.epoch

    def remove_member(self, coalition_name: str, source_name: str) -> None:
        self._require_coalition(coalition_name, write=True)
        self.epoch += 1
        for obj in self._db.select(coalition_name, include_subclasses=False,
                                   name=source_name):
            self._db.delete(obj.oid)
        self.applied = self.epoch

    def forget_coalition(self, coalition_name: str) -> None:
        """Remove a dissolved coalition's metadata (class stays defined —
        schema evolution is append-only, as in the era's object stores —
        but its info record and instances go away)."""
        self.epoch += 1
        for obj in self._db.select("CoalitionInfo", name=coalition_name):
            self._db.delete(obj.oid)
        if self._db.schema.has_class(coalition_name):
            for obj in self._db.extent(coalition_name,
                                       include_subclasses=False):
                self._db.delete(obj.oid)
        # Inlined (rather than calling drop_membership) so one logical
        # maintenance write bumps the epoch exactly once.
        if coalition_name in self.memberships:
            self.memberships.remove(coalition_name)
        self.applied = self.epoch

    def add_service_link(self, link: ServiceLink) -> None:
        """Record a service link in the appropriate subclass."""
        self.epoch += 1
        involves_owner = link.involves(EndpointKind.DATABASE, self.owner_name)
        class_name = ("DatabaseServiceLink" if involves_owner
                      else "CoalitionServiceLink")
        if not self._db.select(class_name, include_subclasses=False,
                               **_link_identity(link)):
            self._db.create(class_name, **link.to_wire())
        self.applied = self.epoch

    def remove_service_link(self, link: ServiceLink) -> None:
        self.epoch += 1
        for class_name in ("DatabaseServiceLink", "CoalitionServiceLink"):
            for obj in self._db.select(class_name, include_subclasses=False,
                                       **_link_identity(link)):
                self._db.delete(obj.oid)
        self.applied = self.epoch

    def attach_document(self, source_name: str, format_name: str,
                        content: str, url: str = "") -> None:
        """Store one documentation artefact for *source_name*."""
        self.epoch += 1
        self._db.create("Document", owner=source_name, format=format_name,
                        content=content, url=url)
        self.applied = self.epoch

    # ------------------------------------------------------------- queries --

    def _require_coalition(self, name: str, write: bool = False) -> None:
        """Refuse a name that is no coalition class.  A *write* also
        needs the coalition's record: a forgotten coalition's class
        stays defined (append-only schema) but a snapshot-restored copy
        has neither, and a write the live co-database took would
        quarantine that copy."""
        if not self._db.schema.has_class(name) \
                or name in (SOURCE_ROOT_CLASS, "CoalitionInfo", "ServiceLink",
                            "CoalitionServiceLink", "DatabaseServiceLink",
                            "Document") \
                or write and not self._db.select(
                    "CoalitionInfo", include_subclasses=False, name=name):
            raise UnknownCoalition(
                f"co-database of {self.owner_name!r} knows no coalition "
                f"{name!r}")

    def known_coalitions(self) -> list[Coalition]:
        """All coalitions this co-database has metadata for."""
        result = []
        for obj in self._db.extent("CoalitionInfo"):
            members = [m.get("name") for m in self._db.extent(
                obj["name"], include_subclasses=False)] \
                if self._db.schema.has_class(obj["name"]) else []
            result.append(Coalition(
                name=obj["name"],
                information_type=obj.get("information_type") or "",
                parent=obj.get("parent") or None,
                doc=obj.get("doc") or "",
                members=members))
        return result

    def find_coalitions(self, query: str,
                        threshold: float = 0.5) -> list[dict[str, Any]]:
        """Locally-known coalitions whose topic matches *query*.

        Returns dicts ``{name, information_type, score, members}`` sorted
        by descending score.
        """
        return [match.to_wire()
                for match in self._matches(self._topic_index(), query,
                                           threshold)]

    def _matches(self, index: _TopicIndex, query: str,
                 threshold: float) -> tuple[CoalitionMatch, ...]:
        ontology = self.ontology
        score_of = word_scorer(query, ontology)
        matches: list[CoalitionMatch] = []
        for name, information_type, members, words in index.coalitions:
            # A coalition answers for its own topic AND for what its
            # member databases advertise — "every class contains a
            # description about the participating databases and the
            # type of information they contain" (§2.2).
            score = max(map(score_of, words))
            # Topic proximity (§2.1: clusters "are related to each other
            # by topic proximity relationships"): a coalition whose
            # topic the ontology marks as *close* to the query is a
            # threshold-level lead even without word overlap.
            if (score < threshold and ontology is not None
                    and (ontology.are_related(query, information_type)
                         or ontology.are_related(query, name))):
                score = threshold
            if score >= threshold:
                matches.append(CoalitionMatch(name, information_type, score,
                                              members))
        matches.sort(key=lambda match: (-match.score, match.name))
        return tuple(matches)

    def subclasses_of(self, class_name: str) -> list[str]:
        """Direct subclasses of a coalition class (topic specializations)."""
        if class_name != SOURCE_ROOT_CLASS:
            self._require_coalition(class_name)
        return self._db.schema.subclasses(class_name)

    def instances_of(self, class_name: str) -> list[SourceDescription]:
        """Member databases of a coalition class (including specializations)."""
        self._require_coalition(class_name)
        seen: set[str] = set()
        result: list[SourceDescription] = []
        for obj in self._db.extent(class_name, include_subclasses=True):
            name = obj.get("name")
            if name in seen:
                continue
            seen.add(name)
            result.append(SourceDescription.from_wire(obj.values()))
        return result

    def describe_instance(self, source_name: str) -> SourceDescription:
        """Description of one member database, searched across classes."""
        if self.local_description is not None \
                and self.local_description.name == source_name:
            return self.local_description
        for obj in self._db.extent(SOURCE_ROOT_CLASS,
                                   include_subclasses=True):
            if obj.get("name") == source_name:
                return SourceDescription.from_wire(obj.values())
        raise UnknownDatabase(
            f"co-database of {self.owner_name!r} has no description of "
            f"{source_name!r}")

    def documents_of(self, source_name: str) -> list[dict[str, str]]:
        """Documentation artefacts stored for *source_name*."""
        return [
            {"format": obj.get("format") or "",
             "content": obj.get("content") or "",
             "url": obj.get("url") or ""}
            for obj in self._db.select("Document", owner=source_name)
        ]

    def service_links(self) -> list[ServiceLink]:
        """All service links this co-database knows about."""
        return [ServiceLink.from_wire(obj.values())
                for obj in self._db.extent("ServiceLink",
                                           include_subclasses=True)]

    def links_of(self, kind: EndpointKind, name: str) -> list[ServiceLink]:
        """Known links with (kind, name) at either end."""
        return [link for link in self.service_links()
                if link.involves(kind, name)]

    def neighbor_databases(self) -> list[str]:
        """Other members of the owner's coalitions — the databases the
        discovery algorithm may consult next."""
        neighbors: list[str] = []
        for coalition_name in self.memberships:
            if not self._db.schema.has_class(coalition_name):
                continue
            for obj in self._db.extent(coalition_name,
                                       include_subclasses=False):
                name = obj.get("name")
                if name != self.owner_name and name not in neighbors:
                    neighbors.append(name)
        return neighbors

    def consult(self, query: str, neighbors: bool,
                threshold: float) -> ConsultAnswer:
        """One resolution step, answered where the metadata lives — "the
        query is sent to a local metadata repository" (§2).

        ``matches`` is :meth:`find_coalitions`.  ``leads`` names, per
        link target, the first service link that advertises the topic
        at or over *threshold* (best of its information type, target
        name and description).  ``contacts`` are the databases the
        links route the query on to, advertised topic or not;
        ``neighbors`` is :meth:`neighbor_databases` when asked for (the
        start repository's courtesy check), else empty.

        A question the topic index has answered is answered from its
        memo: the answer is immutable, so every caller shares it.
        """
        index = self._topic_index()
        question = (query, neighbors, threshold)
        answer = index.answers.get(question)
        if answer is None:
            answer = self._answer(index, query, neighbors, threshold)
            if len(index.answers) < CONSULT_MEMO_SIZE:
                index.answers[question] = answer
        return answer

    def _answer(self, index: _TopicIndex, query: str, neighbors: bool,
                threshold: float) -> ConsultAnswer:
        """:meth:`consult`'s answer, scored from *index*."""
        score_of = word_scorer(query)
        leads: dict[tuple[str, str], LinkLead] = {}
        for kind, name, information_type, label, contact, words \
                in index.links:
            target = (kind, name)
            if target in leads:
                continue
            score = max(map(score_of, words))
            if score >= threshold:
                leads[target] = LinkLead(kind, name, information_type, score,
                                         label, contact)
        return ConsultAnswer(self._matches(index, query, threshold),
                             tuple(leads.values()), index.contacts,
                             index.neighbors if neighbors else ())

    # ---------------------------------------------------------- topic index --

    def _index_key(self) -> tuple[int, int, int]:
        ontology = self.ontology
        return (self.epoch, self.applied,
                ontology.version if ontology is not None else 0)

    def _topic_index(self) -> _TopicIndex:
        """The topic index of the current state, rebuilt on the first
        read after a write or an ontology change.

        Seqlock-style keep rule: an index is kept only when no write was
        in flight as it was built (``epoch == applied``) and none began
        before it was done (the key read after the build is the key read
        before it).  Otherwise it answers this read and is dropped.
        """
        key = self._index_key()
        index = self._index
        if index is not None and index.key == key:
            return index
        index = self._build_index(key)
        if key[0] == key[1] and self._index_key() == key:
            self._index = index
        return index

    def _build_index(self, key: tuple[int, int, int]) -> _TopicIndex:
        """One pass over the store: what :meth:`find_coalitions` and
        :meth:`consult` score, as word sets, read straight from the
        stored values (no model objects)."""
        db = self._db
        has_class = db.schema.has_class
        ontology = self.ontology
        words_of = topic_words if ontology is None else ontology.topic_words
        coalitions = []
        for info in db.extent("CoalitionInfo"):
            name = info["name"]
            information_type = info.get("information_type") or ""
            members = db.extent(name, include_subclasses=False) \
                if has_class(name) else ()
            coalitions.append((
                name, information_type,
                tuple(member.get("name") for member in members),
                (words_of(information_type), words_of(name),
                 *(words_of(member.get("information_type") or "")
                   for member in members))))
        links = []
        for link in db.extent("ServiceLink"):
            values = link.values()
            to_name = values["to_name"]
            information_type = values["information_type"]
            description = values["description"]
            links.append((
                values["to_kind"], to_name,
                information_type or description,
                link_label(values["from_name"], to_name),
                values["contact"],
                (topic_words(information_type), topic_words(to_name),
                 topic_words(description))))
        return _TopicIndex(
            key, tuple(coalitions), tuple(links),
            tuple(dict.fromkeys(link[4] for link in links if link[4])),
            tuple(self.neighbor_databases()), {})

    @property
    def object_database(self) -> ObjectDatabase:
        """The underlying object store (for inspection and tests)."""
        return self._db


# ---------------------------------------------------------------------------
# The maintenance-write surface
# ---------------------------------------------------------------------------

#: Declared once: mutator name -> the value type of each positional
#: argument (``str`` for plain names; the others have ``to_wire`` /
#: ``from_wire``).  The journal codec, the replicated facade's mutators
#: and the registry's write gate derive from it — a new mutator is a
#: method above plus a line here.
MAINTENANCE_WRITES: dict[str, tuple[type, ...]] = {
    "advertise": (SourceDescription,),
    "register_coalition": (Coalition,),
    "record_membership": (str,),
    "drop_membership": (str,),
    "add_member": (str, SourceDescription),
    "remove_member": (str, str),
    "forget_coalition": (str,),
    "add_service_link": (ServiceLink,),
    "remove_service_link": (ServiceLink,),
    "attach_document": (str, str, str, str),
}

_WRITE_SIGNATURES = {name: inspect.signature(getattr(CoDatabase, name))
                     for name in MAINTENANCE_WRITES}


def write_arguments(operation: str, args: tuple,
                    kwargs: Optional[dict[str, Any]] = None) -> tuple:
    """One mutator call's full positional arguments, defaults filled
    in — what a journal records."""
    signature = _WRITE_SIGNATURES.get(operation)
    if signature is None:
        raise WebFinditError(
            f"{operation!r} is not a co-database maintenance write")
    bound = signature.bind(None, *args, **(kwargs or {}))
    bound.apply_defaults()
    return bound.args[1:]


# ---------------------------------------------------------------------------
# CORBA surface
# ---------------------------------------------------------------------------

#: The co-database server interface (meta-data layer of Figure 3).
CODATABASE_INTERFACE: InterfaceDef = (
    InterfaceBuilder("CoDatabase", module="webfindit",
                     doc="Metadata queries against one co-database")
    .operation("find_coalitions", "query",
               doc="Locally-known coalitions matching a topic")
    .operation("known_coalitions", doc="All coalition metadata records")
    .operation("memberships", doc="Coalitions the owner belongs to")
    .operation("subclasses_of", "class_name")
    .operation("instances_of", "class_name")
    .operation("describe_instance", "source_name")
    .operation("documents_of", "source_name")
    .operation("service_links")
    .operation("neighbor_databases")
    .operation("consult", "query", "neighbors", "threshold",
               doc="One resolution step: matching coalitions, link "
                   "leads, link contacts and (on request) neighbours")
    .operation("owner", doc="Name of the attached database")
    .operation("epoch", doc="Monotonic maintenance-write version")
    .operation("versioned", "operation", "arguments",
               doc="A read plus the epoch tag it is valid at — the "
                   "metadata cache's fetch path")
    .build())

#: Reads a metadata cache may fetch through :meth:`CoDatabaseServant.
#: versioned` — every query operation, never a mutator.
VERSIONED_OPERATIONS = frozenset({
    "find_coalitions", "known_coalitions", "memberships", "subclasses_of",
    "instances_of", "describe_instance", "documents_of", "service_links",
    "neighbor_databases", "consult"})


class CoDatabaseServant:
    """CORBA servant exposing one co-database: its reads (the model
    objects they return are CDR value types and cross as themselves),
    its ``memberships`` / ``owner`` / ``epoch`` attributes as
    operations, and :meth:`versioned`."""

    def __init__(self, codatabase: CoDatabase):
        self._codb = codatabase

    def find_coalitions(self, query: str) -> list[dict[str, Any]]:
        return self._codb.find_coalitions(query)

    def known_coalitions(self) -> list[Coalition]:
        return self._codb.known_coalitions()

    def memberships(self) -> list[str]:
        return list(self._codb.memberships)

    def subclasses_of(self, class_name: str) -> list[str]:
        return self._codb.subclasses_of(class_name)

    def instances_of(self, class_name: str) -> list[SourceDescription]:
        return self._codb.instances_of(class_name)

    def describe_instance(self, source_name: str) -> SourceDescription:
        return self._codb.describe_instance(source_name)

    def documents_of(self, source_name: str) -> list[dict[str, str]]:
        return self._codb.documents_of(source_name)

    def service_links(self) -> list[ServiceLink]:
        return self._codb.service_links()

    def neighbor_databases(self) -> list[str]:
        return self._codb.neighbor_databases()

    def consult(self, query: str, neighbors: bool,
                threshold: float) -> ConsultAnswer:
        return self._codb.consult(query, neighbors, threshold)

    def owner(self) -> str:
        return self._codb.owner_name

    def epoch(self) -> int:
        return self._codb.epoch

    def versioned(self, operation: str, arguments: list) -> dict[str, Any]:
        """One read plus the epoch tag it is valid at.

        The tag is the ``applied`` watermark read *before* the value: a
        maintenance write racing this read bumps ``epoch`` first and
        ``applied`` last, so the tag can only understate the value's
        freshness — a stale tag makes the metadata cache re-fetch, never
        serve silently stale data.
        """
        if operation not in VERSIONED_OPERATIONS:
            raise WebFinditError(
                f"{operation!r} is not a versioned co-database read")
        tag = self._codb.applied
        value = getattr(self, operation)(*arguments)
        return {"value": value, "epoch": tag}
