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
``tests/apps/test_paper_claims.py``.

There is one implementation at every deployment size.  A
:class:`RegistryShard` holds the state of the names that hash into its
arc of a :class:`~repro.core.sharding.HashRing` and offers *shard-local
primitives* (``refresh_advertisement``, ``put_coalition``,
``codb_write``, …) that touch only that state.  :class:`Registry` is
the coordinator: it runs every administrative rule once and issues the
primitives to whichever shard the ring says owns each name:

* single-name operations (``source``, ``codatabase``, ``advertise``,
  ``remove_source``, ``join``, ``leave``) route by ring lookup;
* global reads (``source_names``, ``summary``, ``epochs``, coalition
  listings) fan out to every shard and merge deterministically — name
  lists sorted, counters summed, per-name dicts unioned;
* coalitions live on the shard owning the coalition name; the
  specialization index of a coalition lives with it; service links are
  federation-wide routing metadata and are replicated to every shard in
  coordinator order, so every shard stores the same link ordering.

``Registry()`` is a ring of one in-process shard, ``Registry(shards=4)``
a ring of four; the shard handles may equally be proxies over
:data:`~repro.core.sharding.REGISTRY_SHARD_INTERFACE`, whose operations
are these primitives under the same names.  The partition never
shows: any shard count performs the same counted co-database writes and
fires the same invalidation sets (the invariant
``tests/core/test_sharding_properties.py`` locks down).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.coalition import Coalition
from repro.core.codatabase import MAINTENANCE_WRITES, CoDatabase
from repro.core.model import Ontology, SourceDescription
from repro.core.resilience import HealthBoard
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.sharding import HashRing
from repro.errors import (MembershipError, UnknownCoalition, UnknownDatabase,
                          WebFinditError)
from repro.orb.orb import Proxy


class RegistryShard:
    """The state and shard-local primitives of one arc of the registry."""

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
        self._links: list[ServiceLink] = []
        #: Children of each coalition (topic specialisations).
        self._children: dict[str, list[str]] = {}
        #: Count of individual co-database writes — the maintenance-cost
        #: currency of the S2/S3 claims.
        self.update_operations = 0
        #: Called with the set of database names whose co-databases a
        #: mutation just wrote to; metadata caches subscribe here.
        self._invalidation_listeners: \
            list[Callable[[frozenset[str]], None]] = []
        #: Monotonic shard-level mutation version: bumped once per
        #: invalidation broadcast.  The cache tier and the ``\shards``
        #: inspection read it to see how far a shard has moved.
        self.mutation_epoch = 0

    # --------------------------------------------------------- invalidation --

    def add_invalidation_listener(
            self, listener: Callable[[frozenset[str]], None]) -> None:
        """Subscribe to co-database mutations.

        *listener* receives the names of every database whose
        co-database content just changed — exactly the entries a
        metadata cache must drop to stay coherent.
        """
        self._invalidation_listeners.append(listener)

    def notify_mutation(self, names: Iterable[str]) -> None:
        """Fire the invalidation listeners.

        The coordinator finishes a mutation by telling each shard which
        of its co-databases were written, so listeners (metadata
        caches, the shared cache tier) see, in union, exactly the
        mutation's audience.
        """
        affected = frozenset(name for name in names if name)
        if not affected:
            return
        self.mutation_epoch += 1
        for listener in self._invalidation_listeners:
            listener(affected)

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
        self.notify_mutation([description.name])
        return codatabase

    def refresh_advertisement(self, description: SourceDescription) -> None:
        """Replace an owned source's advertisement (no peer propagation,
        no invalidation — the coordinator orchestrates both)."""
        self.source(description.name)
        self._sources[description.name] = description
        self._codatabases[description.name].advertise(description)
        self.update_operations += 1

    def refresh_member(self, member_name: str, coalition_name: str,
                       description: SourceDescription) -> None:
        """Replace one member record in an owned co-database — a single
        logical maintenance write."""
        member_codb = self.codatabase(member_name)
        member_codb.remove_member(coalition_name, description.name)
        member_codb.add_member(coalition_name, description)
        self.update_operations += 1

    def has_source(self, name: str) -> bool:
        return name in self._sources

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
        return list(self._sources)

    def epochs(self) -> dict[str, int]:
        """Per-co-database maintenance-write versions."""
        return {name: getattr(codatabase, "epoch", 0)
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

    def coalitions_containing(self, member: str) -> list[str]:
        """Owned coalitions (in creation order) that *member* belongs to."""
        return [coalition.name for coalition in self._coalitions.values()
                if coalition.has_member(member)]

    def drop_links_involving(self, kind: EndpointKind, name: str) -> None:
        """Forget stored links touching an endpoint, without co-database
        writes (mirrors what source removal has always done)."""
        self._links = [link for link in self._links
                       if not link.involves(kind, name)]

    def drop_source(self, name: str) -> None:
        """Unregister an owned source whose coalition memberships and
        links the coordinator already unwound."""
        self.source(name)
        del self._sources[name]
        del self._codatabases[name]
        self.update_operations += 1
        self.notify_mutation([name])

    # ------------------------------------------------------------ coalitions --

    def put_coalition(self, coalition: Coalition) -> None:
        """Store an owned coalition record."""
        self._coalitions[coalition.name] = coalition
        self._children.setdefault(coalition.name, [])

    def drop_coalition(self, name: str) -> None:
        """Forget an owned (already emptied) coalition record."""
        self.coalition(name)
        del self._coalitions[name]
        self._children.pop(name, None)

    def note_child(self, parent: str, child: str) -> None:
        """Record a specialization under an owned parent coalition."""
        self._children.setdefault(parent, []).append(child)

    def forget_child(self, parent: str, child: str) -> None:
        if child in self._children.get(parent, []):
            self._children[parent].remove(child)

    def children_of(self, name: str) -> list[str]:
        return list(self._children.get(name, []))

    def has_coalition(self, name: str) -> bool:
        return name in self._coalitions

    def coalition(self, name: str) -> Coalition:
        coalition = self._coalitions.get(name)
        if coalition is None:
            raise UnknownCoalition(f"no coalition {name!r}")
        return coalition

    def coalition_add_member(self, coalition_name: str,
                             database_name: str) -> None:
        """Record membership in an owned coalition (the coordinator
        validated and propagates)."""
        self.coalition(coalition_name).add_member(database_name)

    def coalition_remove_member(self, coalition_name: str,
                                database_name: str) -> None:
        self.coalition(coalition_name).remove_member(database_name)

    def coalition_names(self) -> list[str]:
        return list(self._coalitions)

    # ------------------------------------------------------------ service links --

    def find_link(self, link: ServiceLink) -> Optional[ServiceLink]:
        """The stored link matching *link*'s identity (label + endpoint
        kinds), or None."""
        label = link.label
        return next((existing for existing in self._links
                     if existing.label == label
                     and existing.from_kind == link.from_kind
                     and existing.to_kind == link.to_kind), None)

    def append_link(self, link: ServiceLink) -> None:
        """Append to the stored link list (the coordinator validated,
        filled the contact, and writes the audience)."""
        self._links.append(link)

    def remove_link(self, link: ServiceLink) -> None:
        """Remove the stored link with *link*'s identity: the caller's
        copy may have crossed GIOP, or lack the filled-in contact."""
        stored = self.find_link(link)
        if stored is None:
            raise WebFinditError(
                f"no stored link matches {link.from_name!r} -> "
                f"{link.to_name!r}")
        self._links.remove(stored)

    def service_links(self) -> list[ServiceLink]:
        return list(self._links)

    # ------------------------------------------------------ co-database writes --

    #: Co-database mutators the coordinator may issue through
    #: :meth:`codb_write` — the declared surface minus ``advertise``
    #: (an advertisement is written by ``add_source`` and
    #: ``refresh_advertisement`` alone).  This is the auditable wire
    #: surface of a registry shard.
    CODB_WRITE_OPERATIONS = frozenset(MAINTENANCE_WRITES) - {"advertise"}

    def codb_write(self, database_name: str, operation: str,
                   arguments: Sequence) -> None:
        """One counted maintenance write into an owned co-database.

        This is the unit the coordinator composes every operation from;
        each call is exactly one ``update_operations`` tick.
        """
        if operation not in self.CODB_WRITE_OPERATIONS:
            raise WebFinditError(
                f"{operation!r} is not a co-database maintenance write")
        codatabase = self.codatabase(database_name)
        getattr(codatabase, operation)(*arguments)
        self.update_operations += 1

    def epoch_of(self, name: str) -> int:
        """Maintenance-write version of one owned co-database."""
        return getattr(self.codatabase(name), "epoch", 0)

    def memberships_of(self, name: str) -> list[str]:
        """Coalitions an owned source belongs to, in join order."""
        return list(self.codatabase(name).memberships)

    def shard_status(self) -> dict:
        """Inspection snapshot for ``\\shards`` and shard metrics."""
        return {
            "sources": len(self._sources),
            "coalitions": len(self._coalitions),
            "service_links": len(self._links),
            "update_operations": self.update_operations,
            "mutation_epoch": self.mutation_epoch,
        }

    def summary(self) -> dict:
        """Owned counts (the coordinator sums them over shards)."""
        return {
            "sources": len(self._sources),
            "coalitions": len(self._coalitions),
            "service_links": len(self._links),
            "memberships": sum(len(c.members)
                               for c in self._coalitions.values()),
        }


#: An in-process shard, or a proxy over REGISTRY_SHARD_INTERFACE.
ShardHandle = Union[RegistryShard, Proxy]


class Registry:
    """Administers coalitions, service links, sources, and co-databases
    across one or more consistent-hash shards."""

    def __init__(self, ontology: Optional[Ontology] = None,
                 codatabase_factory: Optional[Callable[[str], CoDatabase]]
                 = None,
                 shards: Union[int, Sequence[ShardHandle]] = 1,
                 ring: Optional[HashRing] = None):
        """*shards* is a count of in-process shards to create, or the
        handles (in-process, typed proxies, or a mix) to coordinate;
        *ring* defaults to one over the shard indices."""
        if isinstance(shards, int):
            shards = [RegistryShard(ontology, codatabase_factory)
                      for __ in range(shards)]
        if not shards:
            raise WebFinditError("a registry needs >= 1 shard")
        self.shards: list[ShardHandle] = list(shards)
        self.ring = ring if ring is not None \
            else HashRing(range(len(self.shards)))
        if sorted(self.ring.nodes()) != sorted(range(len(self.shards))):
            raise WebFinditError(
                "ring nodes must be the shard indices 0..N-1")
        self.ontology = ontology
        #: Per-source circuit breakers, shared by every discovery engine
        #: in the federation so health memory outlives a single query.
        self.health = HealthBoard()

    # ------------------------------------------------------------- plumbing --

    def shard_of(self, name: str) -> int:
        """Ring lookup: index of the shard owning *name*."""
        return self.ring.owner(name)

    def _shard(self, name: str) -> ShardHandle:
        return self.shards[self.ring.owner(name)]

    @property
    def update_operations(self) -> int:
        """Aggregate counted co-database writes across all shards."""
        return sum(shard.shard_status()["update_operations"]
                   for shard in self.shards)

    def add_invalidation_listener(
            self, listener: Callable[[frozenset[str]], None]) -> None:
        """Subscribe to mutations on every in-process shard.

        Remote shards run their listeners server-side (that is where
        the cache-tier invalidation broadcaster lives), so a proxy-only
        coordinator cannot subscribe from here.
        """
        for shard in self.shards:
            if not isinstance(shard, RegistryShard):
                raise WebFinditError(
                    "invalidation listeners attach in the shard server "
                    "process, not through a remote shard handle")
        for shard in self.shards:
            shard.add_invalidation_listener(listener)

    def _notify(self, names: Iterable[str]) -> None:
        """Tell each shard which of its co-databases were written; the
        per-shard subsets union to exactly the mutation's audience."""
        by_shard: dict[int, set[str]] = {}
        for name in names:
            if not name:
                continue
            by_shard.setdefault(self.ring.owner(name), set()).add(name)
        for index in sorted(by_shard):
            self.shards[index].notify_mutation(sorted(by_shard[index]))

    def shard_statuses(self) -> list[dict]:
        """Per-shard inspection rows for ``\\shards`` and metrics."""
        return [{**shard.shard_status(), "shard": index}
                for index, shard in enumerate(self.shards)]

    # ------------------------------------------------------------- sources --

    def add_source(self, description: SourceDescription,
                   codatabase_product: str = "ObjectStore"):
        """Register an information source; creates its co-database."""
        return self._shard(description.name).add_source(description,
                                                        codatabase_product)

    def advertise(self, description: SourceDescription):
        """Create the source if new, else replace its advertisement
        (propagating the refreshed description to coalition peers)."""
        name = description.name
        shard = self._shard(name)
        if not shard.has_source(name):
            return self.add_source(description)
        shard.refresh_advertisement(description)
        touched = {name}
        for coalition_name in shard.memberships_of(name):
            coalition_shard = self._shard(coalition_name)
            if not coalition_shard.has_coalition(coalition_name):
                continue
            for member in list(coalition_shard.coalition(
                    coalition_name).members):
                self._shard(member).refresh_member(member, coalition_name,
                                                   description)
                touched.add(member)
        self._notify(touched)
        if isinstance(shard, RegistryShard):
            return shard.codatabase(name)
        return None

    def source(self, name: str) -> SourceDescription:
        return self._shard(name).source(name)

    def has_source(self, name: str) -> bool:
        return self._shard(name).has_source(name)

    def codatabase(self, name: str) -> CoDatabase:
        return self._shard(name).codatabase(name)

    def source_names(self) -> list[str]:
        """Fan-out merge: every shard's names, sorted (the one order
        that does not depend on how names are partitioned)."""
        return sorted(name for shard in self.shards
                      for name in shard.source_names())

    def epochs(self) -> dict[str, int]:
        """Per-co-database maintenance-write versions."""
        merged: dict[str, int] = {}
        for shard in self.shards:
            merged.update(shard.epochs())
        return merged

    def leases(self) -> dict[str, dict]:
        """Per-co-database lease/fence view (quorum-replicated sets)."""
        merged: dict[str, dict] = {}
        for shard in self.shards:
            merged.update(shard.leases())
        return merged

    def remove_source(self, name: str) -> None:
        """Unregister a source, leaving all its coalitions first."""
        shard = self._shard(name)
        shard.source(name)
        for coalition_shard in self.shards:
            for coalition_name in coalition_shard.coalitions_containing(name):
                self.leave(name, coalition_name)
        for any_shard in self.shards:
            any_shard.drop_links_involving(EndpointKind.DATABASE, name)
        shard.drop_source(name)
        self.health.forget(name)

    # ------------------------------------------------------------ coalitions --

    def create_coalition(self, name: str, information_type: str,
                         parent: Optional[str] = None,
                         doc: str = "") -> Coalition:
        """Create a coalition (optionally specializing *parent*)."""
        shard = self._shard(name)
        if shard.has_coalition(name):
            raise WebFinditError(f"coalition {name!r} already exists")
        if parent is not None and not self.has_coalition(parent):
            raise UnknownCoalition(f"no parent coalition {parent!r}")
        coalition = Coalition(name=name, information_type=information_type,
                              parent=parent, doc=doc)
        shard.put_coalition(coalition)
        if parent is not None:
            parent_shard = self._shard(parent)
            parent_shard.note_child(parent, name)
            # Members of the parent learn the new specialization so the
            # class lattice stays browsable from their co-databases.
            parent_members = list(parent_shard.coalition(parent).members)
            for member in parent_members:
                self._write_lattice(member, coalition)
            self._notify(parent_members)
        return coalition

    def coalition(self, name: str) -> Coalition:
        return self._shard(name).coalition(name)

    def has_coalition(self, name: str) -> bool:
        return self._shard(name).has_coalition(name)

    def coalition_names(self) -> list[str]:
        return sorted(name for shard in self.shards
                      for name in shard.coalition_names())

    def dissolve_coalition(self, name: str) -> None:
        """Dissolve a coalition: members leave, links to it are dropped."""
        shard = self._shard(name)
        coalition = shard.coalition(name)
        children = shard.children_of(name)
        if children:
            raise WebFinditError(
                f"coalition {name!r} has specializations "
                f"{children!r}; dissolve them first")
        for member in list(coalition.members):
            self.leave(member, name)
        for link in [l for l in self.service_links()
                     if l.involves(EndpointKind.COALITION, name)]:
            self.remove_service_link(link)
        if coalition.parent is not None:
            self._shard(coalition.parent).forget_child(coalition.parent,
                                                       name)
        shard.drop_coalition(name)

    # ------------------------------------------------------------ membership --

    def _coalition_chain(self, coalition: Coalition) -> list[Coalition]:
        """*coalition* plus its ancestors, fetched shard by shard."""
        chain = [coalition]
        current = coalition
        while current.parent:
            parent_shard = self._shard(current.parent)
            if not parent_shard.has_coalition(current.parent):
                break
            current = parent_shard.coalition(current.parent)
            chain.append(current)
        return chain

    def _write_lattice(self, database_name: str,
                       coalition: Coalition) -> None:
        """Register *coalition* and its ancestor chain in the owner's
        co-database — one counted write per lattice class."""
        shard = self._shard(database_name)
        for ancestor in reversed(self._coalition_chain(coalition)):
            shard.codb_write(database_name, "register_coalition", [ancestor])

    def join(self, database_name: str, coalition_name: str) -> None:
        """Join a database to a coalition, propagating metadata both ways."""
        database_shard = self._shard(database_name)
        coalition_shard = self._shard(coalition_name)
        description = database_shard.source(database_name)
        coalition = coalition_shard.coalition(coalition_name)
        if coalition.has_member(database_name):
            raise MembershipError(
                f"{database_name!r} is already in {coalition_name!r}")
        coalition_shard.coalition_add_member(coalition_name, database_name)
        members = list(coalition_shard.coalition(coalition_name).members)

        self._write_lattice(database_name, coalition)
        for child_name in coalition_shard.children_of(coalition_name):
            child = self._shard(child_name).coalition(child_name)
            self._write_lattice(database_name, child)
        database_shard.codb_write(database_name, "record_membership",
                                  [coalition_name])

        # The joiner learns every existing member (and itself)...
        for member in members:
            member_description = self._shard(member).source(member)
            database_shard.codb_write(database_name, "add_member",
                                      [coalition_name, member_description])
        # ...and existing links involving the coalition.
        for link in self.service_links():
            if link.involves(EndpointKind.COALITION, coalition_name):
                database_shard.codb_write(database_name, "add_service_link",
                                          [link])

        # Existing members learn the joiner.
        for member in members:
            if member == database_name:
                continue
            self._shard(member).codb_write(member, "add_member",
                                           [coalition_name, description])
        self._notify(members)

    def leave(self, database_name: str, coalition_name: str) -> None:
        """Remove a database from a coalition, updating all co-databases."""
        coalition_shard = self._shard(coalition_name)
        coalition = coalition_shard.coalition(coalition_name)
        if not coalition.has_member(database_name):
            raise MembershipError(
                f"{database_name!r} is not in {coalition_name!r}")
        coalition_shard.coalition_remove_member(coalition_name,
                                                database_name)
        remaining = [member for member in coalition.members
                     if member != database_name]
        database_shard = self._shard(database_name)
        database_shard.codb_write(database_name, "forget_coalition",
                                  [coalition_name])
        # The leaver unlearns the coalition's links (join copied them
        # in) unless the locality rule still entitles it to them: as a
        # database endpoint, or through a coalition it remains in.
        kept = database_shard.memberships_of(database_name)
        for link in self.service_links():
            if link.involves(EndpointKind.COALITION, coalition_name) \
                    and not link.involves(EndpointKind.DATABASE,
                                          database_name) \
                    and not any(link.involves(EndpointKind.COALITION, other)
                                for other in kept):
                database_shard.codb_write(database_name,
                                          "remove_service_link", [link])
        for member in remaining:
            self._shard(member).codb_write(member, "remove_member",
                                           [coalition_name, database_name])
        self._notify([database_name, *remaining])

    # ------------------------------------------------------------ service links --

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
        if self.shards[0].find_link(link) is not None:
            raise WebFinditError(f"service link {link.label} already exists")
        # Links are replicated to every shard in coordinator order, so
        # every shard's stored list has the same ordering.
        for shard in self.shards:
            shard.append_link(link)
        audience = self._audience_names(link)
        for name in audience:
            self._shard(name).codb_write(name, "add_service_link", [link])
        self._notify(audience)

    def remove_service_link(self, link: ServiceLink) -> None:
        stored = self.shards[0].find_link(link)
        if stored is None:
            raise WebFinditError(f"no service link {link.label}")
        for shard in self.shards:
            shard.remove_link(stored)
        audience = self._audience_names(stored)
        for name in audience:
            self._shard(name).codb_write(name, "remove_service_link",
                                         [stored])
        self._notify(audience)

    def service_links(self) -> list[ServiceLink]:
        return self.shards[0].service_links()

    # ------------------------------------------------------------- documents --

    def attach_document(self, source_name: str, format_name: str,
                        content: str, url: str = "") -> None:
        """Store documentation in the owner's co-database."""
        shard = self._shard(source_name)
        shard.codb_write(source_name, "attach_document",
                         [source_name, format_name, content, url])
        shard.notify_mutation([source_name])

    # ------------------------------------------------------------- summary --

    def summary(self) -> dict:
        """Topology snapshot (counts checked against Figure 1 in tests):
        per-shard counters summed; the replicated link list counted
        once."""
        parts = [shard.summary() for shard in self.shards]
        return {
            "sources": sum(part["sources"] for part in parts),
            "coalitions": sum(part["coalitions"] for part in parts),
            "service_links": parts[0]["service_links"],
            "memberships": sum(part["memberships"] for part in parts),
        }
