"""Interface definitions — the role of CORBA IDL.

CORBA separates interface from implementation with IDL; here an
:class:`InterfaceDef` plays that role.  Each interface has a repository
id (``IDL:webfindit/CoDatabase:1.0``), a set of operations with named
parameters, and optional inheritance.  Servants are validated against
their interface when activated, and incoming requests are checked
against the operation table — an unknown operation raises
:class:`~repro.errors.BadOperation` on the server side, exactly as a
real ORB rejects a request that is not part of the target's interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from repro.errors import BadOperation, IdlError


@dataclass(frozen=True)
class ParameterDef:
    """One operation parameter.  *mode* is ``in`` in this subset (CORBA
    also has ``out``/``inout``, which Java-era mappings discouraged)."""

    name: str
    mode: str = "in"


@dataclass(frozen=True)
class OperationDef:
    """One operation of an interface."""

    name: str
    parameters: tuple[ParameterDef, ...] = ()
    oneway: bool = False
    doc: str = ""

    @property
    def arity(self) -> int:
        return len(self.parameters)


@dataclass(frozen=True)
class InterfaceDef:
    """A named interface with a repository id and operation table;
    frozen (a read-only copy), so tables compiled from it stay valid."""

    name: str
    repository_id: str
    operations: Mapping[str, OperationDef] = field(default_factory=dict)
    bases: tuple["InterfaceDef", ...] = ()
    doc: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "operations",
                           MappingProxyType(dict(self.operations)))

    def operation(self, name: str) -> OperationDef:
        """Look up an operation, searching base interfaces."""
        found = self.find_operation(name)
        if found is None:
            raise BadOperation(
                f"interface {self.name!r} has no operation {name!r}")
        return found

    def find_operation(self, name: str) -> Optional[OperationDef]:
        if name in self.operations:
            return self.operations[name]
        for base in self.bases:
            found = base.find_operation(name)
            if found is not None:
                return found
        return None

    def all_operations(self) -> dict[str, OperationDef]:
        """Own + inherited operations (own definitions win)."""
        merged: dict[str, OperationDef] = {}
        for base in self.bases:
            merged.update(base.all_operations())
        merged.update(self.operations)
        return merged

    def validate_servant(self, servant: object) -> None:
        """Check that *servant* implements every operation."""
        missing = [name for name in self.all_operations()
                   if not callable(getattr(servant, name, None))]
        if missing:
            raise IdlError(
                f"servant {type(servant).__name__} does not implement "
                f"{sorted(missing)} of interface {self.name!r}")


class InterfaceBuilder:
    """Fluent construction of an :class:`InterfaceDef`.

    Example::

        CO_DATABASE = (InterfaceBuilder("CoDatabase", module="webfindit")
                       .operation("find_coalitions", "information_type")
                       .operation("describe", "name")
                       .build())
    """

    def __init__(self, name: str, module: str = "repro", version: str = "1.0",
                 doc: str = ""):
        if not name or not name[0].isalpha():
            raise IdlError(f"invalid interface name {name!r}")
        self._name = name
        self._repository_id = f"IDL:{module}/{name}:{version}"
        self._operations: dict[str, OperationDef] = {}
        self._bases: tuple[InterfaceDef, ...] = ()
        self._doc = doc

    def operation(self, name: str, *parameters: str, oneway: bool = False,
                  doc: str = "") -> "InterfaceBuilder":
        """Add an operation with the given parameter names."""
        if name in self._operations:
            raise IdlError(f"duplicate operation {name!r}")
        self._operations[name] = OperationDef(
            name=name,
            parameters=tuple(ParameterDef(p) for p in parameters),
            oneway=oneway, doc=doc)
        return self

    def extends(self, *bases: InterfaceDef) -> "InterfaceBuilder":
        """Declare base interfaces."""
        self._bases = self._bases + tuple(bases)
        return self

    def build(self) -> InterfaceDef:
        return InterfaceDef(name=self._name,
                            repository_id=self._repository_id,
                            operations=self._operations,
                            bases=self._bases, doc=self._doc)


class InterfaceRepository:
    """Registry of interfaces keyed by repository id (CORBA's IFR)."""

    def __init__(self) -> None:
        self._by_id: dict[str, InterfaceDef] = {}

    def register(self, interface: InterfaceDef) -> InterfaceDef:
        existing = self._by_id.get(interface.repository_id)
        if existing is not None and existing is not interface:
            raise IdlError(
                f"repository id {interface.repository_id!r} already registered")
        self._by_id[interface.repository_id] = interface
        return interface

    def lookup(self, repository_id: str) -> InterfaceDef:
        interface = self._by_id.get(repository_id)
        if interface is None:
            raise IdlError(f"unknown repository id {repository_id!r}")
        return interface

    def __contains__(self, repository_id: str) -> bool:
        return repository_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)
