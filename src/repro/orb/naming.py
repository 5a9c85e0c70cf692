"""A CORBA-style Naming Service.

Objects publish their stringified IORs under hierarchical names
(``webfindit/codb/Royal Brisbane Hospital``); clients resolve names to
object references.  The naming service is itself a CORBA object: it is
activated on an ORB and spoken to through GIOP like everything else,
so ``resolve`` calls count as real middleware traffic.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import NamingError
from repro.orb.idl import InterfaceBuilder, InterfaceDef
from repro.orb.ior import Ior
from repro.orb.orb import Orb, Proxy

#: The naming service interface (CosNaming, reduced).
NAMING_INTERFACE: InterfaceDef = (
    InterfaceBuilder("NamingService", module="cosnaming",
                     doc="Hierarchical name -> IOR binding")
    .operation("bind", "name", "ior", doc="Bind a new name (error if bound)")
    .operation("rebind", "name", "ior", doc="Bind, replacing any binding")
    .operation("resolve", "name", doc="IOR string bound to name")
    .operation("resolve_with_generation", "name",
               doc="IOR string plus the binding's generation counter")
    .operation("unbind", "name", doc="Remove a binding")
    .operation("list_names", "prefix", doc="All bound names under prefix")
    .build())


class NamingServant:
    """Server-side implementation of the naming service.

    Every binding carries a **generation counter**: 1 when first bound,
    bumped atomically by each ``rebind``.  A client that cached an IOR
    (and a proxy built from it) can therefore tell, in one resolve,
    whether the name was re-bound behind its back — the stale-IOR
    window a restarted server would otherwise leave open.  Requests run
    concurrently: one lock keeps each IOR paired with its generation.
    """

    def __init__(self) -> None:
        self._bindings: dict[str, str] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.RLock()

    def bind(self, name: str, ior: str) -> bool:
        with self._lock:
            if name in self._bindings:
                raise NamingError(f"name {name!r} already bound")
            return self.rebind(name, ior)

    def rebind(self, name: str, ior: str) -> bool:
        with self._lock:
            self._bindings[name] = ior
            self._generations[name] = self._generations.get(name, 0) + 1
        return True

    def resolve(self, name: str) -> str:
        ior = self._bindings.get(name)
        if ior is None:
            raise NamingError(f"name {name!r} not bound")
        return ior

    def resolve_with_generation(self, name: str) -> dict:
        with self._lock:
            return {"ior": self.resolve(name),
                    "generation": self._generations.get(name, 0)}

    def unbind(self, name: str) -> bool:
        with self._lock:
            if name not in self._bindings:
                raise NamingError(f"name {name!r} not bound")
            del self._bindings[name]
        return True

    def list_names(self, prefix: str) -> list[str]:
        with self._lock:
            return sorted(name for name in self._bindings
                          if name.startswith(prefix))


class NamingClient:
    """Typed client wrapper over a naming-service proxy."""

    def __init__(self, proxy: Proxy):
        self._proxy = proxy

    def bind(self, name: str, ior: Ior) -> None:
        self._proxy.invoke("bind", name, ior.to_string())

    def rebind(self, name: str, ior: Ior) -> None:
        self._proxy.invoke("rebind", name, ior.to_string())

    def resolve(self, name: str) -> Ior:
        return Ior.from_string(self._proxy.invoke("resolve", name))

    def resolve_with_generation(self, name: str) -> tuple[Ior, int]:
        """Resolve *name* to ``(ior, generation)``.

        The generation lets callers that cache IORs/proxies detect a
        ``rebind`` (e.g. a co-database server that restarted on a new
        endpoint) and atomically drop their stale cache entry.
        """
        payload = self._proxy.invoke("resolve_with_generation", name)
        return (Ior.from_string(payload["ior"]),
                int(payload.get("generation", 0)))

    def resolve_proxy(self, orb: Orb, name: str,
                      interface: Optional[InterfaceDef] = None) -> Proxy:
        """Resolve *name* and wrap the result as a stub on *orb*."""
        return orb.proxy(self.resolve(name), interface)

    def unbind(self, name: str) -> None:
        self._proxy.invoke("unbind", name)

    def list_names(self, prefix: str = "") -> list[str]:
        return list(self._proxy.invoke("list_names", prefix))


def start_naming_service(orb: Orb) -> tuple[Ior, NamingClient]:
    """Activate a naming service on *orb*; returns (IOR, local client)."""
    servant = NamingServant()
    ior = orb.activate(servant, NAMING_INTERFACE, object_name="NameService")
    client = NamingClient(orb.proxy(ior, NAMING_INTERFACE))
    return ior, client
