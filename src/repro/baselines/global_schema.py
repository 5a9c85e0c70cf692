"""Centralized global-schema integration — the tightly-coupled baseline.

§6.1 of the paper: "Tightly-coupled approaches offer better solutions
for the heterogeneity problem by using a global schema.  However, this
scheme does not provide site autonomy nor does it scale-up given the
complexity when constructing the global schema for a large number of
heterogeneous systems."

:class:`GlobalSchemaMultidatabase` makes that complexity measurable.
Integrating a new source requires reconciling each of its schema items
against the *entire* existing global schema (conflict detection is
pairwise), so construction cost grows quadratically with the federation
while query cost stays flat.  ``tests/apps/test_paper_claims.py`` (S3)
holds this trade-off against WebFINDIT's incremental coalition joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.model import Ontology, SourceDescription, topic_score, topic_words
from repro.errors import WebFinditError


@dataclass(frozen=True)
class SchemaItem:
    """One exported schema element (a table or type) of a source."""

    source: str
    name: str
    topic: str


@dataclass
class IntegrationReport:
    """Cost accounting for one source integration."""

    source: str
    items_added: int
    comparisons: int
    conflicts_resolved: int


class GlobalSchemaMultidatabase:
    """A single integrated schema over all member databases."""

    def __init__(self, ontology: Optional[Ontology] = None):
        self._ontology = ontology
        self._items: list[SchemaItem] = []
        self._sources: dict[str, SourceDescription] = {}
        #: Cumulative pairwise comparisons performed by the integrator.
        self.total_comparisons = 0
        #: Cumulative naming/semantic conflicts the administrator resolved.
        self.total_conflicts = 0

    # -- construction ---------------------------------------------------------

    def integrate_source(self, description: SourceDescription,
                         schema_items: list[str]) -> IntegrationReport:
        """Add a source: every new item is reconciled against the whole
        existing global schema (the centralized administrator's job)."""
        if description.name in self._sources:
            raise WebFinditError(
                f"source {description.name!r} already integrated")
        comparisons = 0
        conflicts = 0
        new_items: list[SchemaItem] = []
        for item_name in schema_items:
            candidate = SchemaItem(source=description.name, name=item_name,
                                   topic=description.information_type)
            for existing in self._items:
                comparisons += 1
                if self._conflicts(candidate, existing):
                    conflicts += 1
            new_items.append(candidate)
        self._items.extend(new_items)
        self._sources[description.name] = description
        self.total_comparisons += comparisons
        self.total_conflicts += conflicts
        return IntegrationReport(source=description.name,
                                 items_added=len(new_items),
                                 comparisons=comparisons,
                                 conflicts_resolved=conflicts)

    def remove_source(self, name: str) -> None:
        """Removing a member forces a consistency sweep of what remains."""
        if name not in self._sources:
            raise WebFinditError(f"source {name!r} not integrated")
        del self._sources[name]
        survivors = [item for item in self._items if item.source != name]
        # The administrator re-checks remaining items for views that
        # depended on the departed source.
        self.total_comparisons += len(survivors)
        self._items = survivors

    @staticmethod
    def _conflicts(a: SchemaItem, b: SchemaItem) -> bool:
        """Same item name exported by different sources = a naming
        conflict the integrator must resolve."""
        return a.name.lower() == b.name.lower() and a.source != b.source

    # -- querying -----------------------------------------------------------------

    def discover(self, query: str,
                 match_threshold: float = 0.5) -> list[SourceDescription]:
        """Query the integrated schema: one lookup, no fan-out —
        centralization's one genuine advantage."""
        matches: list[tuple[float, SourceDescription]] = []
        query_set = topic_words(query)
        if not query_set:
            return []
        for description in self._sources.values():
            score = topic_score(query, description.information_type,
                                self._ontology)
            if score >= match_threshold:
                matches.append((score, description))
        matches.sort(key=lambda pair: (-pair[0], pair[1].name))
        return [description for __, description in matches]

    # -- stats ----------------------------------------------------------------------

    @property
    def item_count(self) -> int:
        return len(self._items)

    @property
    def source_count(self) -> int:
        return len(self._sources)
