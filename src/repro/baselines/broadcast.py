"""Flat broadcast discovery — the no-organization baseline.

This is what discovery looks like without WebFINDIT's two-level
organization: each source knows only its own advertisement, so locating
providers of a topic means contacting **every** source's metadata
service.  §2 of the paper argues this is what makes "the anarchic Web
enormously complex"; ``tests/apps/test_paper_claims.py`` (S1) holds it
against coalition routing.

The directory supports the same cost accounting as
:class:`~repro.core.discovery.DiscoveryEngine` (sources contacted,
metadata calls) so the two are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.model import Ontology, SourceDescription, topic_score


@dataclass
class BroadcastResult:
    """Outcome of one broadcast resolution."""

    query: str
    matches: list[SourceDescription]
    sources_contacted: int
    metadata_calls: int

    @property
    def resolved(self) -> bool:
        return bool(self.matches)


class BroadcastDirectory:
    """A flat information space: every query fans out to all sources."""

    def __init__(self, ontology: Optional[Ontology] = None,
                 match_threshold: float = 0.5):
        self._ontology = ontology
        self._threshold = match_threshold
        self._sources: dict[str, SourceDescription] = {}
        #: Total metadata contacts across all queries (benchmarks).
        self.total_contacts = 0

    def register(self, description: SourceDescription) -> None:
        """Add one source to the flat space."""
        self._sources[description.name] = description

    def __len__(self) -> int:
        return len(self._sources)

    def discover(self, query: str) -> BroadcastResult:
        """Find sources advertising *query* by asking every one of them."""
        matches: list[tuple[float, SourceDescription]] = []
        contacted = 0
        for description in self._sources.values():
            contacted += 1  # one metadata round-trip per source
            score = topic_score(query, description.information_type,
                                self._ontology)
            if score >= self._threshold:
                matches.append((score, description))
        self.total_contacts += contacted
        matches.sort(key=lambda pair: (-pair[0], pair[1].name))
        return BroadcastResult(
            query=query,
            matches=[description for __, description in matches],
            sources_contacted=contacted,
            metadata_calls=contacted)
