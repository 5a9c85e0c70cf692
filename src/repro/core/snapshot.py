"""Saving and restoring metadata: two JSON-able layouts.

* ``webfindit-topology/1`` — the registry's administrative state
  (advertisements, coalitions with hierarchy and membership, service
  links, documentation); imports into a fresh
  :class:`~repro.core.registry.Registry`, rebuilding every co-database
  according to the locality rule.
* ``webfindit-codatabase/1`` — one co-database's full state, epoch
  included: the replica snapshot a journal truncates against.

Both spell a model object as its ``to_wire()`` form, share one
parents-first ordering and one document list, and are pinned byte for
byte by ``tests/core/golden/``.  Native database *contents* are out of
scope: sources are autonomous; WebFINDIT owns the metadata level.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, Optional

from repro.core.coalition import Coalition
from repro.core.codatabase import CoDatabase
from repro.core.model import Ontology, SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import ServiceLink
from repro.errors import WebFinditError

#: Format marker written into every export.
FORMAT = "webfindit-topology/1"

#: Format marker for single co-database exports (replica snapshots).
CODATABASE_FORMAT = "webfindit-codatabase/1"


def _parents_first(coalitions: list[Coalition]) -> Iterator[Coalition]:
    """*coalitions* in listing order, except that a listed parent comes
    before its children (as during live registration)."""
    listed = {coalition.name for coalition in coalitions}
    placed: set[str] = set()
    remaining = coalitions
    while remaining:
        deferred = []
        for coalition in remaining:
            if coalition.parent in listed and coalition.parent not in placed:
                deferred.append(coalition)
                continue
            placed.add(coalition.name)
            yield coalition
        if len(deferred) == len(remaining):
            names = [coalition.name for coalition in deferred]
            raise WebFinditError(f"cyclic coalition parents: {names!r}")
        remaining = deferred


def _documents(holders: Iterable[tuple[str, Any]]) -> list[dict[str, str]]:
    """Every artefact of each ``(source, co-database that holds its
    documentation)`` pair, tagged with its source."""
    return [{"source": source, **document}
            for source, codatabase in holders
            for document in codatabase.documents_of(source)]


def _attach_documents(target, payload: dict[str, Any]) -> None:
    """Re-attach a payload's ``documents`` to a registry or co-database."""
    for document in payload.get("documents", []):
        target.attach_document(document["source"],
                               document.get("format", ""),
                               document.get("content", ""),
                               document.get("url", ""))


def _adopt_epoch(codatabase: CoDatabase, epoch) -> None:
    """Give a rebuilt co-database its recorded epoch — authoritative:
    the rebuild's own write count reflects import mechanics, not
    federation history.  Every write of it is complete, so ``applied``
    is the same number (reads are tagged with it)."""
    codatabase.epoch = codatabase.applied = int(epoch)


def export_topology(registry: Registry) -> dict[str, Any]:
    """Capture *registry*'s full administrative state."""
    return {
        "format": FORMAT,
        "sources": [registry.source(name).to_wire()
                    for name in registry.source_names()],
        "coalitions": [registry.coalition(name).to_wire()
                       for name in registry.coalition_names()],
        # Each source's coalitions in join order: with every coalition's
        # ``members`` order it lets import replay the joins in an order
        # consistent with the original history.
        "memberships": {name: list(registry.codatabase(name).memberships)
                        for name in registry.source_names()},
        "service_links": [link.to_wire()
                          for link in registry.service_links()],
        "documents": _documents(
            (name, registry.codatabase(name))
            for name in registry.source_names()),
        # Per-co-database maintenance-write versions; authoritative on
        # import (the rebuild's own write count is an implementation
        # detail, the recorded epoch is the federation's truth).
        "epochs": {name: registry.codatabase(name).epoch
                   for name in registry.source_names()},
    }


def import_topology(payload: dict[str, Any],
                    ontology: Optional[Ontology] = None) -> Registry:
    """Rebuild a registry (and all co-databases) from an export."""
    if payload.get("format") != FORMAT:
        raise WebFinditError(
            f"unsupported topology format {payload.get('format')!r}; "
            f"expected {FORMAT!r}")
    registry = Registry(ontology=ontology)
    for source_payload in payload.get("sources", []):
        registry.add_source(SourceDescription.from_wire(source_payload))

    coalitions = [Coalition.from_wire(wire)
                  for wire in payload.get("coalitions", [])]
    for coalition in _parents_first(coalitions):
        # A parent the payload does not list is dangling: refused here.
        registry.create_coalition(coalition.name, coalition.information_type,
                                  parent=coalition.parent, doc=coalition.doc)

    # Replay joins so that each coalition's ``members`` order and each
    # source's ``memberships`` order both come back: a join is due when
    # it heads both lists.  Payloads without "memberships" (older
    # exports) constrain nothing and replay in listing order.
    pending = {coalition.name: coalition.members
               for coalition in coalitions}
    order = {name: list(joined)
             for name, joined in payload.get("memberships", {}).items()}
    while any(pending.values()):
        progressed = False
        for coalition_name, members in pending.items():
            while members:
                queue = order.get(members[0])
                if queue and queue[0] != coalition_name:
                    break  # this member joined another coalition first
                registry.join(members.pop(0), coalition_name)
                if queue:
                    queue.pop(0)
                progressed = True
        if not progressed:
            raise WebFinditError(
                "coalition member lists and source membership lists "
                "describe no common join order")
    for link_payload in payload.get("service_links", []):
        registry.add_service_link(ServiceLink.from_wire(link_payload))
    _attach_documents(registry, payload)
    for name, epoch in payload.get("epochs", {}).items():
        _adopt_epoch(registry.codatabase(name), epoch)
    return registry


# ---------------------------------------------------------------------------
# Single co-database exports (replica snapshots)
# ---------------------------------------------------------------------------

def export_codatabase(codatabase) -> dict[str, Any]:
    """Capture one co-database's full state, epoch included.

    This is the replica-snapshot format: a killed co-database server
    restores from the latest of these plus its journal tail, and
    anti-entropy ships one of these from a live peer when the tail is
    not enough (see :mod:`repro.core.replication`).
    """
    coalitions = [coalition.to_wire()
                  for coalition in codatabase.known_coalitions()]
    members: dict[str, list[dict[str, Any]]] = {}
    for coalition in coalitions:
        members[coalition["name"]] = [
            description.to_wire()
            for description in codatabase.instances_of(coalition["name"])]
    description = codatabase.local_description
    document_owners = {codatabase.owner_name}
    document_owners.update(
        member["name"] for names in members.values() for member in names)
    return {
        "format": CODATABASE_FORMAT,
        "owner": codatabase.owner_name,
        "epoch": codatabase.epoch,
        "description": description.to_wire() if description else None,
        "memberships": list(codatabase.memberships),
        "coalitions": coalitions,
        "members": members,
        "service_links": [link.to_wire()
                          for link in codatabase.service_links()],
        "documents": _documents((owner, codatabase)
                                for owner in sorted(document_owners)),
    }


def import_codatabase(payload: dict[str, Any],
                      ontology: Optional[Ontology] = None):
    """Rebuild one co-database from an :func:`export_codatabase` dump."""
    if payload.get("format") != CODATABASE_FORMAT:
        raise WebFinditError(
            f"unsupported co-database format {payload.get('format')!r}; "
            f"expected {CODATABASE_FORMAT!r}")
    codatabase = CoDatabase(payload["owner"], ontology=ontology)
    if payload.get("description"):
        codatabase.advertise(
            SourceDescription.from_wire(payload["description"]))
    for coalition in _parents_first([
            Coalition.from_wire(wire)
            for wire in payload.get("coalitions", [])]):
        codatabase.register_coalition(coalition)
    for coalition_name, descriptions in payload.get("members", {}).items():
        for wire in descriptions:
            codatabase.add_member(coalition_name,
                                  SourceDescription.from_wire(wire))
    for membership in payload.get("memberships", []):
        codatabase.record_membership(membership)
    for wire in payload.get("service_links", []):
        codatabase.add_service_link(ServiceLink.from_wire(wire))
    _attach_documents(codatabase, payload)
    _adopt_epoch(codatabase, payload.get("epoch", 0))
    return codatabase


def save_topology(registry: Registry, path: str) -> None:
    """Write an export to *path* as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_topology(registry), handle, indent=2)


def load_topology(path: str,
                  ontology: Optional[Ontology] = None) -> Registry:
    """Read a JSON export from *path* and rebuild the registry."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return import_topology(payload, ontology=ontology)
