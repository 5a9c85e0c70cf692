"""Saving and restoring the information-space topology.

The registry's administrative state — source advertisements, coalitions
(with hierarchy and membership), service links, and documentation
artefacts — exports to a plain JSON-able dict and imports back into a
fresh :class:`~repro.core.registry.Registry`, rebuilding every
co-database according to the locality rule.

Native database *contents* are deliberately out of scope: sources are
autonomous, and what WebFINDIT owns is the metadata level.
"""

from __future__ import annotations

import json
from typing import Any, Optional

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


def export_topology(registry: Registry) -> dict[str, Any]:
    """Capture *registry*'s full administrative state."""
    coalitions = []
    for name in registry.coalition_names():
        coalition = registry.coalition(name)
        coalitions.append({
            "name": coalition.name,
            "information_type": coalition.information_type,
            "parent": coalition.parent,
            "doc": coalition.doc,
            "members": list(coalition.members),
        })
    documents = []
    for source_name in registry.source_names():
        codatabase = registry.codatabase(source_name)
        for document in codatabase.documents_of(source_name):
            documents.append({"source": source_name, **document})
    return {
        "format": FORMAT,
        "sources": [registry.source(name).to_wire()
                    for name in registry.source_names()],
        "coalitions": coalitions,
        # Each source's coalitions in join order: with every coalition's
        # ``members`` order it lets import replay the joins in an order
        # consistent with the original history.
        "memberships": {name: list(registry.codatabase(name).memberships)
                        for name in registry.source_names()},
        "service_links": [link.to_wire()
                          for link in registry.service_links()],
        "documents": documents,
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

    coalitions = list(payload.get("coalitions", []))
    # Parents must exist before children; resolve in dependency order.
    created: set[str] = set()
    remaining = coalitions
    while remaining:
        progressed = False
        deferred = []
        for coalition in remaining:
            parent = coalition.get("parent")
            if parent and parent not in created:
                deferred.append(coalition)
                continue
            registry.create_coalition(coalition["name"],
                                      coalition.get("information_type", ""),
                                      parent=parent,
                                      doc=coalition.get("doc", ""))
            created.add(coalition["name"])
            progressed = True
        if not progressed:
            names = [c["name"] for c in deferred]
            raise WebFinditError(
                f"cyclic or dangling coalition parents: {names!r}")
        remaining = deferred

    # Replay joins so that each coalition's ``members`` order and each
    # source's ``memberships`` order both come back: a join is due when
    # it heads both lists.  Payloads without "memberships" (older
    # exports) constrain nothing and replay in listing order.
    pending = {coalition["name"]: list(coalition.get("members", []))
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
    for document in payload.get("documents", []):
        registry.attach_document(document["source"],
                                 document.get("format", ""),
                                 document.get("content", ""),
                                 document.get("url", ""))
    for name, epoch in payload.get("epochs", {}).items():
        registry.codatabase(name).epoch = int(epoch)
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
    documents = []
    for owner in sorted(document_owners):
        for document in codatabase.documents_of(owner):
            documents.append({"source": owner, **document})
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
        "documents": documents,
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
    # Parents before children, as during live registration.
    coalitions = [Coalition.from_wire(wire)
                  for wire in payload.get("coalitions", [])]
    known = {coalition.name for coalition in coalitions}
    registered: set[str] = set()
    remaining = coalitions
    while remaining:
        deferred = []
        for coalition in remaining:
            if coalition.parent and coalition.parent in known \
                    and coalition.parent not in registered:
                deferred.append(coalition)
                continue
            codatabase.register_coalition(coalition)
            registered.add(coalition.name)
        if len(deferred) == len(remaining):
            names = [coalition.name for coalition in deferred]
            raise WebFinditError(
                f"cyclic coalition parents in snapshot: {names!r}")
        remaining = deferred
    for coalition_name, descriptions in payload.get("members", {}).items():
        for wire in descriptions:
            codatabase.add_member(coalition_name,
                                  SourceDescription.from_wire(wire))
    for membership in payload.get("memberships", []):
        codatabase.record_membership(membership)
    for wire in payload.get("service_links", []):
        codatabase.add_service_link(ServiceLink.from_wire(wire))
    for document in payload.get("documents", []):
        codatabase.attach_document(document["source"],
                                   document.get("format", ""),
                                   document.get("content", ""),
                                   document.get("url", ""))
    # The recorded epoch is authoritative — the rebuild's own write
    # count reflects import mechanics, not federation history.
    codatabase.epoch = int(payload.get("epoch", 0))
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
