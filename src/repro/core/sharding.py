"""Consistent-hash sharding of the WebFINDIT registry.

The paper's repository layer is one logical catalog; this module is the
machinery that splits it into N shards.
Co-database and coalition names are placed on a :class:`HashRing`
(SHA-1 based, vnode-weighted, so the mapping is identical in every
process regardless of ``PYTHONHASHSEED``) and each shard owns the names
that hash into its arc.  The coordination rules themselves — which
shard is asked what, and how fan-out reads merge — live once, in
:class:`~repro.core.registry.Registry`, which composes every mutation
from the shard-local primitives of
:class:`~repro.core.registry.RegistryShard`.

Every shard is an in-process :class:`~repro.core.registry.RegistryShard`
of the one coordinator: the paper's CORBA traffic is queries to
co-database servers and calls to each source's ISI, and no peer reaches
a registry shard over GIOP.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Iterable

from repro.errors import WebFinditError

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
