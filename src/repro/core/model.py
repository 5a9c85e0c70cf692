"""Information-space model: information types, source descriptions, ontology.

WebFINDIT organizes sources by *information type* — the topic a source
or coalition advertises (``Medical Research``, ``Medical Insurance``).
Topics are free text; matching is word-overlap based, expanded through
an optional :class:`Ontology` of synonyms and topic-proximity
relationships (the paper's "clusters related by topic proximity").
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.orb.cdr import CdrDecoder, CdrEncoder, register_value

_WORD_RE = re.compile(r"[a-z0-9]+")

#: Words ignored when matching topics.
STOP_WORDS = frozenset({"and", "or", "of", "the", "a", "an", "in", "on",
                        "for", "with", "to"})

#: Topic strings whose word sets are memoised (an information space
#: names a few hundred at most; the bound only guards odd callers).
WORD_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def topic_words(text: str) -> frozenset[str]:
    """Normalized, stop-word-free word set of a topic string."""
    return frozenset(w for w in _WORD_RE.findall(text.lower())
                     if w not in STOP_WORDS)


def word_scorer(query: str, ontology: Optional["Ontology"] = None
                ) -> Callable[[frozenset[str]], float]:
    """The fraction of *query*'s words a topic covers, given the topic
    as a word set: :func:`topic_words` of it, or with an ontology
    :meth:`Ontology.topic_words`.  The query's word set (and each
    word's synonym set) is built once, however many topics are scored."""
    query_set = topic_words(query)
    if not query_set:
        return lambda words: 0.0
    size = len(query_set)
    if ontology is None:
        return lambda words: len(query_set & words) / size
    synonyms = [ontology.expand({word}) for word in query_set]
    return lambda words: sum(1 for group in synonyms
                             if not group.isdisjoint(words)) / size


def topic_scorer(query: str, ontology: Optional["Ontology"] = None
                 ) -> Callable[[str], float]:
    """:func:`topic_score` with *query* fixed (see :func:`word_scorer`)."""
    score = word_scorer(query, ontology)
    words_of = topic_words if ontology is None else ontology.topic_words
    return lambda topic: score(words_of(topic))


def topic_score(query: str, topic: str,
                ontology: Optional["Ontology"] = None) -> float:
    """Fraction of the query's words covered by *topic* (0.0–1.0).

    With an ontology, query words are expanded to their synonym sets
    before matching.
    """
    return topic_scorer(query, ontology)(topic)


@dataclass(frozen=True)
class InformationType:
    """A named information type with optional structural description.

    The paper's co-databases describe both the databases and "the
    information type ... its general structure and behavior"; *structure*
    carries attribute-name → type-name pairs for display.
    """

    name: str
    structure: tuple[tuple[str, str], ...] = ()
    doc: str = ""

    def matches(self, query: str,
                ontology: Optional["Ontology"] = None) -> float:
        return topic_score(query, self.name, ontology)


@dataclass
class SourceDescription:
    """Everything a co-database advertises about one information source.

    Mirrors the paper's advertisement block::

        Information Source Royal Brisbane Hospital {
            Information Type "Research and Medical"
            Documentation   "http://www.medicine.uq.edu.au/RBH"
            Location        "dba.icis.qut.edu.au"
            Wrapper         "dba.icis.qut.edu.au/WebTassiliOracle"
            Interface       ResearchProjects, PatientHistory
        }
    """

    name: str
    information_type: str
    documentation_url: str = ""
    location: str = ""
    wrapper: str = ""
    interface: list[str] = field(default_factory=list)
    dbms: str = ""
    orb_product: str = ""
    #: Flat structural vocabulary of the exported interface:
    #: attribute paths and function names (``ResearchProjects.Title``,
    #: ``Funding``).  Drives structure-qualified search (§2.3's "search
    #: for an information type while providing its structure").
    structure: list[str] = field(default_factory=list)

    def to_wire(self) -> dict:
        """The field set as a plain dict: the form journals and
        snapshots store (between ORBs a description travels as the
        positional ``SourceDescription/2`` below)."""
        return {
            "name": self.name,
            "information_type": self.information_type,
            "documentation_url": self.documentation_url,
            "location": self.location,
            "wrapper": self.wrapper,
            "interface": list(self.interface),
            "dbms": self.dbms,
            "orb_product": self.orb_product,
            "structure": list(self.structure),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "SourceDescription":
        return cls(
            name=payload.get("name", ""),
            information_type=payload.get("information_type", ""),
            documentation_url=payload.get("documentation_url", ""),
            location=payload.get("location", ""),
            wrapper=payload.get("wrapper", ""),
            interface=list(payload.get("interface", [])),
            dbms=payload.get("dbms", ""),
            orb_product=payload.get("orb_product", ""),
            structure=list(payload.get("structure", [])),
        )

    def copy(self) -> "SourceDescription":
        """An independent copy — the wire form is the field set, read
        back with its own lists: what a cache hands each caller."""
        return self.from_wire(vars(self))

    def render(self) -> str:
        """The paper's advertisement syntax."""
        lines = [f"Information Source {self.name} {{"]
        lines.append(f'    Information Type "{self.information_type}"')
        if self.documentation_url:
            lines.append(f'    Documentation "{self.documentation_url}"')
        if self.location:
            lines.append(f'    Location "{self.location}"')
        if self.wrapper:
            lines.append(f'    Wrapper "{self.wrapper}"')
        if self.interface:
            lines.append(f"    Interface {', '.join(self.interface)}")
        lines.append("}")
        return "\n".join(lines)


def _write_description(encoder: CdrEncoder,
                       description: SourceDescription) -> None:
    interface, structure = description.interface, description.structure
    encoder.write_array("I", (len(interface), len(structure)))
    encoder.write_strings([
        description.name, description.information_type,
        description.documentation_url, description.location,
        description.wrapper, description.dbms, description.orb_product,
        *interface, *structure])


def _read_description(decoder: CdrDecoder) -> SourceDescription:
    interfaces, structures = decoder.read_array("I", 2)
    strings = decoder.read_strings(7 + interfaces + structures)
    return SourceDescription(*strings[:5], interface=strings[7:7 + interfaces],
                             dbms=strings[5], orb_product=strings[6],
                             structure=strings[7 + interfaces:])


# Positional on the wire: the interface and structure counts, then the
# seven scalar fields and both lists as one packed run of strings
# (layout: docs/middleware.md).  The id is not the "SourceDescription"
# of the nine-key struct this replaced: a stale peer fails on an unknown
# value type, it never misparses.  The journal and snapshots keep the
# JSON form of ``to_wire`` / ``from_wire``.
register_value("SourceDescription/2", SourceDescription, _write_description,
               _read_description)


class Ontology:
    """Synonyms and topic-proximity relationships between terms.

    Terms are single normalized words; :meth:`relate` records that two
    topics are *close* (the paper's proximity between clusters), which
    discovery uses to rank near-miss coalitions.

    :attr:`version` moves on every change, so state derived from the
    ontology (a co-database's topic index) can tell it is out of date.
    """

    def __init__(self) -> None:
        self._synonyms: dict[str, set[str]] = {}
        self._proximity: dict[str, set[str]] = {}
        self.version = 0
        self._words: dict[str, frozenset[str]] = {}

    def _changed(self) -> None:
        # A fresh memo, not a cleared one: a reader still expanding
        # against the old synonyms stores into the dict it fetched.
        self._words = {}
        self.version += 1

    def add_synonyms(self, word: str, synonyms: Iterable[str]) -> None:
        """Declare *synonyms* as interchangeable with *word*."""
        group = {word.lower(), *(s.lower() for s in synonyms)}
        for member in group:
            self._synonyms.setdefault(member, set()).update(group)
        self._changed()

    def expand(self, words: Iterable[str]) -> frozenset[str]:
        """Words plus all their synonyms."""
        expanded: set[str] = set()
        for word in words:
            expanded.add(word)
            expanded.update(self._synonyms.get(word, ()))
        return frozenset(expanded)

    def topic_words(self, text: str) -> frozenset[str]:
        """:func:`topic_words` of *text* plus all their synonyms,
        memoised per string until the ontology next changes."""
        memo = self._words
        words = memo.get(text)
        if words is None:
            if len(memo) >= WORD_MEMO_SIZE:
                memo.clear()
            words = memo[text] = self.expand(topic_words(text))
        return words

    def relate(self, topic_a: str, topic_b: str) -> None:
        """Record topic proximity (symmetric)."""
        a = topic_a.lower()
        b = topic_b.lower()
        self._proximity.setdefault(a, set()).add(b)
        self._proximity.setdefault(b, set()).add(a)
        self._changed()

    def related(self, topic: str) -> frozenset[str]:
        """Topics recorded as close to *topic*."""
        return frozenset(self._proximity.get(topic.lower(), frozenset()))

    def are_related(self, topic_a: str, topic_b: str) -> bool:
        return topic_b.lower() in self._proximity.get(topic_a.lower(),
                                                      frozenset())
