"""Off-site Information Source Interfaces.

The paper allows an ISI to live "at a different site from the database",
relying on a gateway protocol between them.  Here an ISI of any kind is
activated on an ORB as a CORBA object (:class:`IsiServant`), and
:class:`RemoteIsi` is the client-side ISI whose every call crosses the
middleware as GIOP traffic.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import AccessError
from repro.orb.idl import InterfaceBuilder, InterfaceDef
from repro.orb.ior import Ior
from repro.orb.orb import Orb, Proxy
from repro.wrappers.base import (ExportedAttribute, ExportedFunction,
                                 ExportedType, InformationSourceInterface)

#: CORBA interface of a remotely-hosted ISI.
ISI_INTERFACE: InterfaceDef = (
    InterfaceBuilder("InformationSourceInterface", module="webfindit",
                     doc="Wrapper access to one information source")
    .operation("describe", doc="Exported interface description")
    .operation("execute_native", "query", "params",
               doc="Run a native-language query")
    .operation("invoke", "type_name", "function_name", "args",
               doc="Invoke an exported access function")
    .build())


class IsiServant:
    """CORBA servant exposing any local ISI."""

    def __init__(self, isi: InformationSourceInterface):
        self._isi = isi

    def describe(self) -> dict[str, Any]:
        return self._isi.describe()

    def execute_native(self, query: str, params: list[Any]) -> Any:
        return self._isi.execute_native(query, params or None)

    def invoke(self, type_name: str, function_name: str,
               args: list[Any]) -> Any:
        return self._isi.invoke(type_name, function_name, args)


def serve_isi(orb: Orb, isi: InformationSourceInterface,
              object_name: Optional[str] = None) -> Ior:
    """Activate an ISI on *orb*; returns the servant's IOR."""
    return orb.activate(IsiServant(isi), ISI_INTERFACE,
                        object_name=object_name or isi.source_name)


class RemoteIsi(InformationSourceInterface):
    """Client-side ISI proxying a remotely-hosted wrapper.

    The exported interface is fetched once from the remote ``describe``
    and cached; invocations are forwarded as GIOP requests.
    """

    def __init__(self, proxy: Proxy):
        self._proxy = proxy
        description = proxy.invoke("describe")
        if not isinstance(description, dict):
            raise AccessError("remote ISI returned a malformed description")
        self.native_language = str(description.get("language", "unknown"))
        self.banner = str(description.get("banner", "unknown"))
        types = [
            ExportedType(
                name=t["name"],
                doc=t.get("doc", ""),
                attributes=[ExportedAttribute(a["name"], a.get("type", "string"))
                            for a in t.get("attributes", [])],
                functions=[ExportedFunction(
                    name=f["name"],
                    parameters=tuple(f.get("parameters", [])),
                    result_type=f.get("result", "any"),
                    doc=f.get("doc", ""))
                    for f in t.get("functions", [])],
            )
            for t in description.get("types", [])
        ]
        super().__init__(source_name=description.get("source", "remote"),
                         wrapper_name=description.get("wrapper", "remote"),
                         exported_types=types)

    def execute_native(self, query: str,
                       params: Optional[Sequence[Any]] = None) -> Any:
        return self._proxy.invoke("execute_native", query,
                                  list(params) if params else [])

    def invoke(self, type_name: str, function_name: str,
               args: Sequence[Any]) -> Any:
        # Forward without local binding checks: the authoritative
        # interface lives with the remote wrapper.
        self.invocations += 1
        return self._proxy.invoke("invoke", type_name, function_name,
                                  list(args))
