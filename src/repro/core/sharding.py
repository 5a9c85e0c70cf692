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
``webfindit/registry/shard<i>``).  The interface *is* the primitive
surface — same operation names, same arities — and the model objects
the primitives exchange are CDR value types, so a remote shard handle
is nothing more than ``orb.proxy(ior, REGISTRY_SHARD_INTERFACE)``: the
coordinator does not care whether a shard is in-process or across GIOP.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

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
#: surface of :class:`RegistryShard` under the same names, plus the
#: reads the coordinator fans out.  ``codatabase`` is deliberately not
#: here — co-database objects are shard-local; remote peers resolve the
#: co-database servant through the naming service instead.
REGISTRY_SHARD_INTERFACE: InterfaceDef = (
    InterfaceBuilder("RegistryShard", module="webfindit",
                     doc="One consistent-hash arc of the registry")
    .operation("has_source", "name")
    .operation("source", "name")
    .operation("source_names")
    .operation("memberships_of", "name")
    .operation("coalitions_containing", "member")
    .operation("epochs")
    .operation("epoch_of", "name")
    .operation("leases")
    .operation("summary")
    .operation("has_coalition", "name")
    .operation("coalition", "name")
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

#: The operations that commit to the shard's store and so pay the
#: modelled per-write ``service_time``.
COMMIT_OPERATIONS = frozenset({
    "add_source", "refresh_advertisement", "refresh_member", "drop_source",
    "put_coalition", "drop_coalition", "coalition_add_member",
    "coalition_remove_member", "codb_write"})


class RegistryShardServant:
    """CORBA skeleton of one :class:`RegistryShard`.

    Every operation of :data:`REGISTRY_SHARD_INTERFACE` is the shard's
    same-named primitive; the skeleton adds only what a server adds.  A
    shard server is a single authoritative writer for its arc, so every
    operation runs under one lock (the in-process :class:`RegistryShard`
    is not thread-safe).  ``service_time`` models the per-write commit
    cost of a real registry server on the :data:`COMMIT_OPERATIONS`;
    bench S12 uses it to measure how aggregate throughput scales when
    independent shard endpoints absorb that cost concurrently.
    """

    def __init__(self, registry: RegistryShard, service_time: float = 0.0):
        self.registry = registry
        self.service_time = service_time
        self._lock = threading.Lock()

    def __getattr__(self, operation: str) -> Callable[..., Any]:
        if REGISTRY_SHARD_INTERFACE.find_operation(operation) is None:
            raise AttributeError(operation)
        primitive = getattr(self.registry, operation)

        def locked(*arguments: Any) -> Any:
            with self._lock:
                if operation in COMMIT_OPERATIONS and self.service_time > 0:
                    time.sleep(self.service_time)
                result = primitive(*arguments)
            # add_source answers in-process callers with the new
            # CoDatabase, which is shard-local and not a wire value.
            return None if operation == "add_source" else result

        return locked
