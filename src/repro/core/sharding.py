"""Consistent-hash sharding of the WebFINDIT registry.

The paper's repository layer is one logical catalog; this module is the
machinery that lets N autonomous registry servants share it.
Co-database and coalition names are placed on a :class:`HashRing`
(SHA-1 based, vnode-weighted, so the mapping is identical in every
process regardless of ``PYTHONHASHSEED``) and each shard owns the names
that hash into its arc.  The coordination rules themselves — which
shard is asked what, and how fan-out reads merge — live once, in
:class:`~repro.core.registry.Registry`, which composes every mutation
from the shard-local primitives of
:class:`~repro.core.registry.RegistryShard`.

Shards are exported over the ORB by :class:`RegistryShardServant`
(interface :data:`REGISTRY_SHARD_INTERFACE`, bound at
``webfindit/registry/shard<i>``); :class:`RemoteShard` presents a
proxy-backed shard through the same primitive surface, so the
coordinator does not care whether a shard is in-process or across GIOP.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.core.coalition import Coalition
from repro.core.codatabase import CoDatabase
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import WebFinditError
from repro.orb.idl import InterfaceBuilder, InterfaceDef

if TYPE_CHECKING:  # registry.py imports this module for the ring
    from repro.core.registry import RegistryShard

#: Virtual nodes per unit of shard weight.  64 points per shard keeps
#: the largest/smallest arc ratio low enough that random name sets
#: spread within ~2x of even (asserted by the property suite).
DEFAULT_VNODES = 64


class HashRing:
    """A deterministic consistent-hash ring with virtual nodes.

    Placement uses SHA-1 over stable labels, never :func:`hash`, so two
    processes (or two runs with different ``PYTHONHASHSEED``) agree on
    every owner.  Removing a node frees exactly its own arcs: keys it
    did not own keep their owner (the minimal-remapping property).
    """

    def __init__(self, nodes: Iterable = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise WebFinditError("a hash ring needs at least 1 vnode")
        self.vnodes = vnodes
        self._weights: dict = {}
        #: Sorted (point, vnode_label, node); the label breaks the
        #: astronomically-unlikely point tie deterministically.
        self._ring: list[tuple[int, str, Any]] = []
        self._points: list[int] = []
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def _hash(label: str) -> int:
        digest = hashlib.sha1(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add_node(self, node, weight: int = 1) -> None:
        """Join *node* with ``vnodes * weight`` points on the ring."""
        if node in self._weights:
            raise WebFinditError(f"node {node!r} is already on the ring")
        if weight < 1:
            raise WebFinditError("node weight must be >= 1")
        self._weights[node] = weight
        for index in range(self.vnodes * weight):
            label = f"vnode:{node}:{index}"
            entry = (self._hash(label), label, node)
            position = bisect.bisect_left(self._ring, entry[:2])
            self._ring.insert(position, entry)
        self._points = [entry[0] for entry in self._ring]

    def remove_node(self, node) -> None:
        """Leave: only keys *node* owned get a new owner."""
        if node not in self._weights:
            raise WebFinditError(f"node {node!r} is not on the ring")
        del self._weights[node]
        self._ring = [entry for entry in self._ring if entry[2] != node]
        self._points = [entry[0] for entry in self._ring]

    def nodes(self) -> list:
        return list(self._weights)

    def owner(self, key: str):
        """The node owning *key*: first vnode clockwise from its point."""
        if not self._ring:
            raise WebFinditError("hash ring has no nodes")
        if len(self._weights) == 1:
            # Every arc belongs to the only node, so the hash could not
            # pick another: the default one-shard registry skips it.
            return self._ring[0][2]
        point = self._hash(f"key:{key}")
        index = bisect.bisect_right(self._points, point) % len(self._ring)
        return self._ring[index][2]

    def ownership(self, keys: Iterable[str]) -> dict:
        """Partition *keys* by owner (every live node gets an entry)."""
        partition: dict = {node: [] for node in self._weights}
        for key in keys:
            partition[self.owner(key)].append(key)
        return partition

    def describe(self) -> dict:
        """Ring inspection: vnode points per node, for ``\\shards``."""
        counts: dict = {node: 0 for node in self._weights}
        for __, __unused, node in self._ring:
            counts[node] += 1
        return {"vnodes": self.vnodes,
                "points": {str(node): count
                           for node, count in counts.items()}}


# ---------------------------------------------------------------------------
# CORBA surface of one registry shard
# ---------------------------------------------------------------------------

#: The registry-shard server interface: the shard-local primitive
#: surface of :class:`RegistryShard`, plus the reads the coordinator
#: fans out.
REGISTRY_SHARD_INTERFACE: InterfaceDef = (
    InterfaceBuilder("RegistryShard", module="webfindit",
                     doc="One consistent-hash arc of the registry")
    .operation("has_source", "name")
    .operation("get_source", "name")
    .operation("source_names")
    .operation("memberships_of", "name")
    .operation("coalitions_containing", "member")
    .operation("epochs")
    .operation("epoch_of", "name")
    .operation("leases")
    .operation("summary")
    .operation("has_coalition", "name")
    .operation("get_coalition", "name")
    .operation("coalition_names")
    .operation("children_of", "name")
    .operation("service_links")
    .operation("find_link", "link")
    .operation("shard_status")
    .operation("add_source", "description", "codatabase_product")
    .operation("refresh_advertisement", "description")
    .operation("refresh_member", "member_name", "coalition_name",
               "description")
    .operation("drop_source", "name")
    .operation("drop_links_involving", "kind", "name")
    .operation("put_coalition", "coalition")
    .operation("drop_coalition", "name")
    .operation("note_child", "parent", "child")
    .operation("forget_child", "parent", "child")
    .operation("coalition_add_member", "coalition_name", "database_name")
    .operation("coalition_remove_member", "coalition_name", "database_name")
    .operation("append_link", "link")
    .operation("remove_link", "link")
    .operation("codb_write", "database_name", "operation", "arguments")
    .operation("notify_mutation", "names")
    .build())


def _encode_arg(value: Any) -> Any:
    """CDR-friendly encoding of one primitive argument."""
    if isinstance(value, SourceDescription):
        return {"__kind__": "source", "value": value.to_wire()}
    if isinstance(value, Coalition):
        return {"__kind__": "coalition", "value": value.to_wire()}
    if isinstance(value, ServiceLink):
        return {"__kind__": "link", "value": value.to_wire()}
    return value


def _decode_arg(value: Any) -> Any:
    if isinstance(value, dict) and "__kind__" in value:
        kind = value["__kind__"]
        payload = value.get("value", {})
        if kind == "source":
            return SourceDescription.from_wire(payload)
        if kind == "coalition":
            return Coalition.from_wire(payload)
        if kind == "link":
            return ServiceLink.from_wire(payload)
        raise WebFinditError(f"unknown wire argument kind {kind!r}")
    return value


class RegistryShardServant:
    """CORBA servant exposing one shard's registry primitives.

    A shard server is a single authoritative writer for its arc, so the
    servant serializes every operation under one lock (the in-process
    :class:`RegistryShard` is not thread-safe).  ``service_time`` models the
    per-write commit cost of a real registry server; bench S12 uses it
    to measure how aggregate throughput scales when independent shard
    endpoints absorb that cost concurrently.
    """

    def __init__(self, registry: RegistryShard, service_time: float = 0.0):
        self.registry = registry
        self.service_time = service_time
        self._lock = threading.Lock()

    def _commit_cost(self) -> None:
        if self.service_time > 0:
            time.sleep(self.service_time)

    # ----------------------------------------------------------------- reads --

    def has_source(self, name: str) -> bool:
        with self._lock:
            return self.registry.has_source(name)

    def get_source(self, name: str) -> dict:
        with self._lock:
            return self.registry.source(name).to_wire()

    def source_names(self) -> list[str]:
        with self._lock:
            return self.registry.source_names()

    def memberships_of(self, name: str) -> list[str]:
        with self._lock:
            return self.registry.memberships_of(name)

    def coalitions_containing(self, member: str) -> list[str]:
        with self._lock:
            return self.registry.coalitions_containing(member)

    def epochs(self) -> dict:
        with self._lock:
            return self.registry.epochs()

    def epoch_of(self, name: str) -> int:
        with self._lock:
            return self.registry.epoch_of(name)

    def leases(self) -> dict:
        with self._lock:
            return self.registry.leases()

    def summary(self) -> dict:
        with self._lock:
            return self.registry.summary()

    def has_coalition(self, name: str) -> bool:
        with self._lock:
            return self.registry.has_coalition(name)

    def get_coalition(self, name: str) -> dict:
        with self._lock:
            return self.registry.coalition(name).to_wire()

    def coalition_names(self) -> list[str]:
        with self._lock:
            return self.registry.coalition_names()

    def children_of(self, name: str) -> list[str]:
        with self._lock:
            return self.registry.children_of(name)

    def service_links(self) -> list[dict]:
        with self._lock:
            return [link.to_wire() for link in self.registry.service_links()]

    def find_link(self, link: dict) -> Optional[dict]:
        with self._lock:
            stored = self.registry.find_link(ServiceLink.from_wire(link))
            return stored.to_wire() if stored is not None else None

    def shard_status(self) -> dict:
        with self._lock:
            return self.registry.shard_status()

    # ------------------------------------------------------------- mutations --

    def add_source(self, description: dict, codatabase_product: str) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.add_source(SourceDescription.from_wire(description),
                                     codatabase_product or "ObjectStore")
            return True

    def refresh_advertisement(self, description: dict) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.refresh_advertisement(
                SourceDescription.from_wire(description))
            return True

    def refresh_member(self, member_name: str, coalition_name: str,
                       description: dict) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.refresh_member(
                member_name, coalition_name,
                SourceDescription.from_wire(description))
            return True

    def drop_source(self, name: str) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.drop_source(name)
            return True

    def drop_links_involving(self, kind: str, name: str) -> bool:
        with self._lock:
            self.registry.drop_links_involving(EndpointKind.parse(kind), name)
            return True

    def put_coalition(self, coalition: dict) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.put_coalition(Coalition.from_wire(coalition))
            return True

    def drop_coalition(self, name: str) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.drop_coalition(name)
            return True

    def note_child(self, parent: str, child: str) -> bool:
        with self._lock:
            self.registry.note_child(parent, child)
            return True

    def forget_child(self, parent: str, child: str) -> bool:
        with self._lock:
            self.registry.forget_child(parent, child)
            return True

    def coalition_add_member(self, coalition_name: str,
                             database_name: str) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.coalition_add_member(coalition_name, database_name)
            return True

    def coalition_remove_member(self, coalition_name: str,
                                database_name: str) -> bool:
        with self._lock:
            self._commit_cost()
            self.registry.coalition_remove_member(coalition_name,
                                                  database_name)
            return True

    def append_link(self, link: dict) -> bool:
        with self._lock:
            self.registry.append_link(ServiceLink.from_wire(link))
            return True

    def remove_link(self, link: dict) -> bool:
        with self._lock:
            stored = self.registry.find_link(ServiceLink.from_wire(link))
            if stored is None:
                raise WebFinditError(
                    f"no stored link matches {link.get('from_name')!r} -> "
                    f"{link.get('to_name')!r}")
            self.registry.remove_link(stored)
            return True

    def codb_write(self, database_name: str, operation: str,
                   arguments: list) -> bool:
        with self._lock:
            self._commit_cost()
            decoded = [_decode_arg(argument) for argument in arguments]
            self.registry.codb_write(database_name, operation, *decoded)
            return True

    def notify_mutation(self, names: list[str]) -> bool:
        with self._lock:
            self.registry.notify_mutation(names)
            return True


class RemoteShard:
    """A proxy-backed shard handle with the same primitive surface a
    local :class:`RegistryShard` offers, so the coordinator orchestrates
    identically over in-process and GIOP shards."""

    def __init__(self, proxy):
        self._proxy = proxy

    # ----------------------------------------------------------------- reads --

    def has_source(self, name: str) -> bool:
        return bool(self._proxy.invoke("has_source", name))

    def source(self, name: str) -> SourceDescription:
        return SourceDescription.from_wire(self._proxy.invoke("get_source",
                                                              name))

    def source_names(self) -> list[str]:
        return list(self._proxy.invoke("source_names"))

    def memberships_of(self, name: str) -> list[str]:
        return list(self._proxy.invoke("memberships_of", name))

    def coalitions_containing(self, member: str) -> list[str]:
        return list(self._proxy.invoke("coalitions_containing", member))

    def epochs(self) -> dict:
        return dict(self._proxy.invoke("epochs"))

    def epoch_of(self, name: str) -> int:
        return int(self._proxy.invoke("epoch_of", name))

    def leases(self) -> dict:
        return dict(self._proxy.invoke("leases"))

    def summary(self) -> dict:
        return dict(self._proxy.invoke("summary"))

    def has_coalition(self, name: str) -> bool:
        return bool(self._proxy.invoke("has_coalition", name))

    def coalition(self, name: str) -> Coalition:
        return Coalition.from_wire(self._proxy.invoke("get_coalition", name))

    def coalition_names(self) -> list[str]:
        return list(self._proxy.invoke("coalition_names"))

    def children_of(self, name: str) -> list[str]:
        return list(self._proxy.invoke("children_of", name))

    def service_links(self) -> list[ServiceLink]:
        return [ServiceLink.from_wire(payload)
                for payload in self._proxy.invoke("service_links")]

    def find_link(self, link: ServiceLink) -> Optional[ServiceLink]:
        payload = self._proxy.invoke("find_link", link.to_wire())
        return ServiceLink.from_wire(payload) if payload else None

    def shard_status(self) -> dict:
        return dict(self._proxy.invoke("shard_status"))

    def codatabase(self, name: str) -> CoDatabase:
        raise WebFinditError(
            "co-database objects are shard-local; resolve the co-database "
            "servant through the naming service instead")

    # ------------------------------------------------------------- mutations --

    def add_source(self, description: SourceDescription,
                   codatabase_product: str = "ObjectStore") -> None:
        self._proxy.invoke("add_source", description.to_wire(),
                           codatabase_product)

    def refresh_advertisement(self, description: SourceDescription) -> None:
        self._proxy.invoke("refresh_advertisement", description.to_wire())

    def refresh_member(self, member_name: str, coalition_name: str,
                       description: SourceDescription) -> None:
        self._proxy.invoke("refresh_member", member_name, coalition_name,
                           description.to_wire())

    def drop_source(self, name: str) -> None:
        self._proxy.invoke("drop_source", name)

    def drop_links_involving(self, kind: EndpointKind, name: str) -> None:
        self._proxy.invoke("drop_links_involving", kind.value, name)

    def put_coalition(self, coalition: Coalition) -> None:
        self._proxy.invoke("put_coalition", coalition.to_wire())

    def drop_coalition(self, name: str) -> None:
        self._proxy.invoke("drop_coalition", name)

    def note_child(self, parent: str, child: str) -> None:
        self._proxy.invoke("note_child", parent, child)

    def forget_child(self, parent: str, child: str) -> None:
        self._proxy.invoke("forget_child", parent, child)

    def coalition_add_member(self, coalition_name: str,
                             database_name: str) -> None:
        self._proxy.invoke("coalition_add_member", coalition_name,
                           database_name)

    def coalition_remove_member(self, coalition_name: str,
                                database_name: str) -> None:
        self._proxy.invoke("coalition_remove_member", coalition_name,
                           database_name)

    def append_link(self, link: ServiceLink) -> None:
        self._proxy.invoke("append_link", link.to_wire())

    def remove_link(self, link: ServiceLink) -> None:
        self._proxy.invoke("remove_link", link.to_wire())

    def codb_write(self, database_name: str, operation: str, *args) -> None:
        self._proxy.invoke("codb_write", database_name, operation,
                           [_encode_arg(argument) for argument in args])

    def notify_mutation(self, names: Iterable[str]) -> None:
        self._proxy.invoke("notify_mutation", sorted(set(names)))
