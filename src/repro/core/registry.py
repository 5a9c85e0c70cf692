"""The WebFINDIT information-space registry.

The registry is the administrative bookkeeping that keeps every
co-database consistent with the paper's locality rule: the co-database
of database *D* stores

* *D*'s own advertisement,
* the coalitions *D* is a member of — their class (plus lattice
  context), their metadata record, and descriptions of **all** their
  members,
* service links involving those coalitions or *D* itself.

Nothing else: a co-database never holds a global view, which is what
lets WebFINDIT scale and is what the discovery algorithm navigates.

Query traffic is remote (CORBA, via :class:`~repro.core.codatabase.
CoDatabaseServant`); maintenance operations run through the registry,
which writes directly into the affected co-databases and counts every
write — the currency of the S2/S3 claims in
``tests/apps/test_paper_claims.py``.  Every such write goes through
:meth:`Registry.codb_write`, whose gate admits only the declared
maintenance writes; a mutation ends by handing each subscribed
listener ``{name: floor}`` for the co-databases it wrote, before it
returns.  There is one registry per federation, in the process of the
system that owns it: the co-databases, not the registry, are what
spreads WebFINDIT's metadata over its sources.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence

from repro.core.coalition import Coalition
from repro.core.codatabase import MAINTENANCE_WRITES, CoDatabase
from repro.core.metacache import TOMBSTONE
from repro.core.model import Ontology, SourceDescription
from repro.core.resilience import HealthBoard
from repro.core.service_link import EndpointKind, ServiceLink, link_label
from repro.errors import (MembershipError, UnknownCoalition, UnknownDatabase,
                          WebFinditError)


class Registry:
    """Administers coalitions, service links, sources, and co-databases."""

    #: Co-database mutators the registry may issue through
    #: :meth:`codb_write` — the declared surface minus ``advertise``
    #: (an advertisement is written by ``add_source`` and ``advertise``
    #: alone).  This is the auditable write surface of the registry.
    CODB_WRITE_OPERATIONS = frozenset(MAINTENANCE_WRITES) - {"advertise"}

    def __init__(self, ontology: Optional[Ontology] = None,
                 codatabase_factory: Optional[Callable[[str], CoDatabase]]
                 = None):
        self.ontology = ontology
        #: Builds the co-database for a newly registered source.  The
        #: default is one plain in-process CoDatabase; the availability
        #: layer injects a factory producing
        #: :class:`~repro.core.replication.ReplicatedCoDatabase` sets.
        self._codatabase_factory = codatabase_factory
        self._sources: dict[str, SourceDescription] = {}
        self._codatabases: dict[str, CoDatabase] = {}
        self._coalitions: dict[str, Coalition] = {}
        #: Stored links by identity, in establishment order (see
        #: :meth:`_find_link`).
        self._links: dict[tuple[str, EndpointKind, EndpointKind],
                          ServiceLink] = {}
        #: Children of each coalition (topic specialisations).
        self._children: dict[str, list[str]] = {}
        #: Count of individual co-database writes — the maintenance-cost
        #: currency of the S2/S3 claims.
        self.update_operations = 0
        self._invalidation_listeners: \
            list[Callable[[dict[str, int]], None]] = []
        #: Per-source circuit breakers, shared by every discovery engine
        #: in the federation so health memory outlives a single query.
        self.health = HealthBoard()

    # --------------------------------------------------------- invalidation --

    def add_invalidation_listener(
            self, listener: Callable[[dict[str, int]], None]) -> None:
        """Subscribe to co-database mutations.

        *listener* receives ``{name: floor}`` for every database whose
        co-database content just changed: the floor is that
        co-database's post-mutation epoch, or :data:`TOMBSTONE` for a
        removed source — exactly what a metadata cache needs to retire
        the entries the mutation made stale
        (:meth:`~repro.core.metacache.MetadataCache.retire`).
        """
        self._invalidation_listeners.append(listener)

    def _notify(self, names: Iterable[str]) -> None:
        """Tell the listeners which co-databases a mutation wrote, in
        name order, before the mutation returns."""
        affected = sorted({name for name in names if name})
        if not affected or not self._invalidation_listeners:
            return
        floors = {name: self._codatabases[name].epoch
                  if name in self._sources else TOMBSTONE
                  for name in affected}
        for listener in self._invalidation_listeners:
            listener(floors)

    def codb_write(self, database_name: str, operation: str,
                   arguments: Sequence) -> None:
        """One counted maintenance write into a co-database.

        This is the unit every operation is composed from; each call is
        exactly one ``update_operations`` tick.
        """
        if operation not in self.CODB_WRITE_OPERATIONS:
            raise WebFinditError(
                f"{operation!r} is not a co-database maintenance write")
        codatabase = self.codatabase(database_name)
        getattr(codatabase, operation)(*arguments)
        self.update_operations += 1

    # ------------------------------------------------------------- sources --

    def add_source(self, description: SourceDescription,
                   codatabase_product: str = "ObjectStore") -> CoDatabase:
        """Register an information source; creates its co-database."""
        if description.name in self._sources:
            raise WebFinditError(
                f"source {description.name!r} already registered")
        if self._codatabase_factory is not None:
            codatabase = self._codatabase_factory(description.name)
        else:
            codatabase = CoDatabase(description.name, ontology=self.ontology,
                                    product=codatabase_product)
        codatabase.advertise(description)
        self._sources[description.name] = description
        self._codatabases[description.name] = codatabase
        self.update_operations += 1
        self._notify([description.name])
        return codatabase

    def advertise(self, description: SourceDescription):
        """Create the source if new, else replace its advertisement
        (propagating the refreshed description to coalition peers)."""
        name = description.name
        if name not in self._sources:
            return self.add_source(description)
        self._sources[name] = description
        codatabase = self._codatabases[name]
        codatabase.advertise(description)
        self.update_operations += 1
        touched = {name}
        for coalition_name in list(codatabase.memberships):
            if coalition_name not in self._coalitions:
                continue
            for member in list(self._coalitions[coalition_name].members):
                # Replacing one member record is one logical write.
                member_codb = self._codatabases[member]
                member_codb.remove_member(coalition_name, name)
                member_codb.add_member(coalition_name, description)
                self.update_operations += 1
                touched.add(member)
        self._notify(touched)
        return codatabase

    def source(self, name: str) -> SourceDescription:
        description = self._sources.get(name)
        if description is None:
            raise UnknownDatabase(f"no source {name!r} registered")
        return description

    def codatabase(self, name: str) -> CoDatabase:
        codatabase = self._codatabases.get(name)
        if codatabase is None:
            raise UnknownDatabase(f"no co-database for {name!r}")
        return codatabase

    def source_names(self) -> list[str]:
        return sorted(self._sources)

    def epochs(self) -> dict[str, int]:
        """Per-co-database maintenance-write versions."""
        return {name: codatabase.epoch
                for name, codatabase in self._codatabases.items()}

    def leases(self) -> dict[str, dict]:
        """Per-co-database lease/fence view (quorum-replicated sets only).

        Sources whose co-database is a plain (or non-quorum) facade are
        omitted — they have no election state to report.
        """
        leases: dict[str, dict] = {}
        for name, codatabase in self._codatabases.items():
            status = getattr(codatabase, "lease_status", None)
            if status is None:
                continue
            snapshot = status()
            if snapshot.get("quorum"):
                leases[name] = snapshot
        return leases

    def remove_source(self, name: str) -> None:
        """Unregister a source, leaving all its coalitions first."""
        self.source(name)
        for coalition in list(self._coalitions.values()):
            if coalition.has_member(name):
                self.leave(name, coalition.name)
        # Links naming the source go through the removal path, so the
        # peers' co-databases unlearn them and their caches are told.
        for link in [l for l in self._links.values()
                     if l.involves(EndpointKind.DATABASE, name)]:
            self.remove_service_link(link)
        del self._sources[name]
        del self._codatabases[name]
        self.update_operations += 1
        self._notify([name])
        self.health.forget(name)

    # ------------------------------------------------------------ coalitions --

    def create_coalition(self, name: str, information_type: str,
                         parent: Optional[str] = None,
                         doc: str = "") -> Coalition:
        """Create a coalition (optionally specializing *parent*)."""
        if name in self._coalitions:
            raise WebFinditError(f"coalition {name!r} already exists")
        if parent is not None and parent not in self._coalitions:
            raise UnknownCoalition(f"no parent coalition {parent!r}")
        coalition = Coalition(name=name, information_type=information_type,
                              parent=parent, doc=doc)
        self._coalitions[name] = coalition
        self._children.setdefault(name, [])
        if parent is not None:
            self._children[parent].append(name)
            # Members of the parent learn the new specialization so the
            # class lattice stays browsable from their co-databases.
            parent_members = list(self._coalitions[parent].members)
            for member in parent_members:
                self._write_lattice(member, coalition)
            self._notify(parent_members)
        return coalition

    def coalition(self, name: str) -> Coalition:
        coalition = self._coalitions.get(name)
        if coalition is None:
            raise UnknownCoalition(f"no coalition {name!r}")
        return coalition

    def has_coalition(self, name: str) -> bool:
        return name in self._coalitions

    def coalition_names(self) -> list[str]:
        return sorted(self._coalitions)

    def dissolve_coalition(self, name: str) -> None:
        """Dissolve a coalition: members leave, links to it are dropped."""
        coalition = self.coalition(name)
        children = self._children[name]
        if children:
            raise WebFinditError(
                f"coalition {name!r} has specializations "
                f"{children!r}; dissolve them first")
        for member in list(coalition.members):
            self.leave(member, name)
        for link in [l for l in self._links.values()
                     if l.involves(EndpointKind.COALITION, name)]:
            self.remove_service_link(link)
        if coalition.parent is not None:
            self._children[coalition.parent].remove(name)
        del self._coalitions[name]
        del self._children[name]

    # ------------------------------------------------------------ membership --

    def _write_lattice(self, database_name: str,
                       coalition: Coalition) -> None:
        """Register *coalition* and its ancestor chain in the owner's
        co-database — one counted write per lattice class."""
        chain = [coalition]
        while chain[-1].parent in self._coalitions:
            chain.append(self._coalitions[chain[-1].parent])
        for ancestor in reversed(chain):
            self.codb_write(database_name, "register_coalition", [ancestor])

    def join(self, database_name: str, coalition_name: str) -> None:
        """Join a database to a coalition, propagating metadata both ways."""
        description = self.source(database_name)
        coalition = self.coalition(coalition_name)
        if coalition.has_member(database_name):
            raise MembershipError(
                f"{database_name!r} is already in {coalition_name!r}")
        coalition.add_member(database_name)
        members = list(coalition.members)

        self._write_lattice(database_name, coalition)
        for child_name in self._children[coalition_name]:
            self._write_lattice(database_name, self._coalitions[child_name])
        self.codb_write(database_name, "record_membership", [coalition_name])

        # The joiner learns every existing member (and itself)...
        for member in members:
            self.codb_write(database_name, "add_member",
                            [coalition_name, self._sources[member]])
        # ...and existing links involving the coalition.
        for link in list(self._links.values()):
            if link.involves(EndpointKind.COALITION, coalition_name):
                self.codb_write(database_name, "add_service_link", [link])

        # Existing members learn the joiner.
        for member in members:
            if member != database_name:
                self.codb_write(member, "add_member",
                                [coalition_name, description])
        self._notify(members)

    def leave(self, database_name: str, coalition_name: str) -> None:
        """Remove a database from a coalition, updating all co-databases."""
        coalition = self.coalition(coalition_name)
        if not coalition.has_member(database_name):
            raise MembershipError(
                f"{database_name!r} is not in {coalition_name!r}")
        coalition.remove_member(database_name)
        remaining = list(coalition.members)
        self.codb_write(database_name, "forget_coalition", [coalition_name])
        # The leaver unlearns the coalition's links (join copied them
        # in) unless the locality rule still entitles it to them: as a
        # database endpoint, or through a coalition it remains in.
        kept = list(self.codatabase(database_name).memberships)
        for link in list(self._links.values()):
            if link.involves(EndpointKind.COALITION, coalition_name) \
                    and not link.involves(EndpointKind.DATABASE,
                                          database_name) \
                    and not any(link.involves(EndpointKind.COALITION, other)
                                for other in kept):
                self.codb_write(database_name, "remove_service_link",
                                [link])
        for member in remaining:
            self.codb_write(member, "remove_member",
                            [coalition_name, database_name])
        self._notify([database_name, *remaining])

    # ------------------------------------------------------------ service links --

    @staticmethod
    def _link_key(link: ServiceLink
                  ) -> tuple[str, EndpointKind, EndpointKind]:
        """A link's identity: label + endpoint kinds."""
        return link.label, link.from_kind, link.to_kind

    def _find_link(self, link: ServiceLink) -> Optional[ServiceLink]:
        """The stored link with *link*'s identity, or None: the caller's
        copy may lack the filled-in contact."""
        return self._links.get(self._link_key(link))

    def _audience_names(self, link: ServiceLink) -> list[str]:
        """Databases whose co-databases must know about *link*: members
        of coalition endpoints, the database endpoints themselves."""
        audience: list[str] = []
        for kind, name in ((link.from_kind, link.from_name),
                           (link.to_kind, link.to_name)):
            if kind is EndpointKind.COALITION:
                for member in self.coalition(name).members:
                    if member not in audience:
                        audience.append(member)
            else:
                self.source(name)
                if name not in audience:
                    audience.append(name)
        return audience

    def add_service_link(self, link: ServiceLink) -> None:
        """Establish a service link and propagate it to its audience.

        The link's *contact* is filled in when empty: the to-database
        itself, or the first member of the to-coalition — the co-database
        discovery will consult to continue past the link.
        """
        for kind, name in ((link.from_kind, link.from_name),
                           (link.to_kind, link.to_name)):
            if kind is EndpointKind.COALITION:
                self.coalition(name)
            else:
                self.source(name)
        if not link.contact:
            if link.to_kind is EndpointKind.DATABASE:
                contact = link.to_name
            else:
                members = self.coalition(link.to_name).members
                contact = members[0] if members else ""
            link = replace(link, contact=contact)
        key = self._link_key(link)
        if key in self._links:
            raise WebFinditError(f"service link {link.label} already exists")
        self._links[key] = link
        audience = self._audience_names(link)
        for name in audience:
            self.codb_write(name, "add_service_link", [link])
        self._notify(audience)

    def remove_service_link(self, link: ServiceLink) -> None:
        stored = self._find_link(link)
        if stored is None:
            raise WebFinditError(f"no service link {link.label}")
        del self._links[self._link_key(stored)]
        audience = self._audience_names(stored)
        for name in audience:
            self.codb_write(name, "remove_service_link", [stored])
        self._notify(audience)

    def service_links(self) -> list[ServiceLink]:
        return list(self._links.values())

    def service_link(self, from_kind: EndpointKind, from_name: str,
                     to_kind: EndpointKind, to_name: str
                     ) -> Optional[ServiceLink]:
        """The stored link between exactly these ends, or None: found
        by its key, then held to the names as written (a label drops
        their spaces)."""
        link = self._links.get((link_label(from_name, to_name), from_kind,
                                to_kind))
        if link is None or (link.from_name, link.to_name) \
                != (from_name, to_name):
            return None
        return link

    # ------------------------------------------------------------- documents --

    def attach_document(self, source_name: str, format_name: str,
                        content: str, url: str = "") -> None:
        """Store documentation in the owner's co-database."""
        self.codb_write(source_name, "attach_document",
                        [source_name, format_name, content, url])
        self._notify([source_name])

    # ------------------------------------------------------------- summary --

    def summary(self) -> dict:
        """Topology snapshot (counts checked against Figure 1 in tests)."""
        return {
            "sources": len(self._sources),
            "coalitions": len(self._coalitions),
            "service_links": len(self._links),
            "memberships": sum(len(c.members)
                               for c in self._coalitions.values()),
        }
