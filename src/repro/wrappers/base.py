"""Information Source Interfaces (ISIs) — the paper's wrapper layer.

A database participates in WebFINDIT by exporting an *interface*: a set
of types, each with attributes and access functions (§2.2 of the paper
shows ``Type PatientHistory { attribute ...; function ... }``).  The
wrapper translates an invocation of an exported function into the
native query language of the source — SQL for relational stores, OQL
or a direct method call for object stores — and executes it.

This module defines the export model and the abstract wrapper;
concrete wrappers live in :mod:`repro.wrappers.relational` and
:mod:`repro.wrappers.objectstore`, and the off-site variant in
:mod:`repro.wrappers.remote`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import AccessError, TranslationError


@dataclass(frozen=True)
class ExportedAttribute:
    """One attribute of an exported type, e.g. ``string Patient.Name``."""

    name: str
    type_name: str = "string"

    def render(self) -> str:
        """The paper's declaration syntax."""
        return f"attribute {self.type_name} {self.name};"


@dataclass(frozen=True)
class SqlBinding:
    """Run a parameterized SQL statement against the wrapped source."""

    sql: str
    parameters: tuple[str, ...] = ()


@dataclass(frozen=True)
class OqlBinding:
    """Run an OQL query; ``{param}`` placeholders are literal-substituted."""

    oql: str
    parameters: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallableBinding:
    """Invoke a Python callable directly — the C++-method/JNI analogue."""

    function: Callable[..., Any]


Binding = SqlBinding | OqlBinding | CallableBinding


@dataclass(frozen=True)
class ExportedFunction:
    """One access function of an exported type.

    *binding* tells the owning wrapper how to execute the function
    against the native store; *parameters* name the function's formal
    arguments in order.
    """

    name: str
    parameters: tuple[str, ...] = ()
    result_type: str = "any"
    binding: Optional[Binding] = None
    doc: str = ""

    def render(self) -> str:
        params = ", ".join(self.parameters)
        return f"function {self.result_type} {self.name}({params});"


@dataclass
class ExportedType:
    """One type of a database's exported interface."""

    name: str
    attributes: list[ExportedAttribute] = field(default_factory=list)
    functions: list[ExportedFunction] = field(default_factory=list)
    doc: str = ""

    def function(self, name: str) -> ExportedFunction:
        for fn in self.functions:
            if fn.name.lower() == name.lower():
                return fn
        raise AccessError(
            f"type {self.name!r} exports no function {name!r}")

    def render(self) -> str:
        """The paper's ``Type X { ... }`` declaration."""
        lines = [f"Type {self.name} {{"]
        for attribute in self.attributes:
            lines.append(f"    {attribute.render()}")
        for fn in self.functions:
            lines.append(f"    {fn.render()}")
        lines.append("}")
        return "\n".join(lines)


class InformationSourceInterface:
    """Abstract wrapper around one native database.

    A concrete wrapper sets the two values and defines the two methods
    declared below; one that forwards :meth:`invoke` whole (the remote
    ISI) runs no binding and defines no ``_run_binding``.
    """

    #: The source's native query language (``SQL``, ``OQL``, ...).
    native_language: str
    #: Product banner of the wrapped store.
    banner: str
    #: ``execute_native(query, params=None)``: run a query written in
    #: the source's native language.
    execute_native: Callable[..., Any]
    #: ``_run_binding(fn, args)``: run one exported function's binding
    #: (what :meth:`invoke` calls once the call is checked).
    _run_binding: Callable[[ExportedFunction, list[Any]], Any]

    def __init__(self, source_name: str, wrapper_name: str,
                 exported_types: Optional[Sequence[ExportedType]] = None):
        self.source_name = source_name
        self.wrapper_name = wrapper_name
        self._types: dict[str, ExportedType] = {}
        for exported in exported_types or ():
            self.export_type(exported)
        #: Invocation counter, used by benchmarks.
        self.invocations = 0

    # -- exports -----------------------------------------------------------------

    def export_type(self, exported: ExportedType) -> None:
        """Add a type to the exported interface."""
        key = exported.name.lower()
        if key in self._types:
            raise AccessError(
                f"type {exported.name!r} already exported by "
                f"{self.source_name!r}")
        self._types[key] = exported

    def exported_types(self) -> list[ExportedType]:
        """The exported interface, in export order."""
        return list(self._types.values())

    def exported_type(self, name: str) -> ExportedType:
        exported = self._types.get(name.lower())
        if exported is None:
            raise AccessError(
                f"source {self.source_name!r} exports no type {name!r}")
        return exported

    def describe(self) -> dict[str, Any]:
        """Wire-friendly description of this interface."""
        return {
            "source": self.source_name,
            "wrapper": self.wrapper_name,
            "language": self.native_language,
            "banner": self.banner,
            "types": [
                {
                    "name": exported.name,
                    "doc": exported.doc,
                    "attributes": [
                        {"name": a.name, "type": a.type_name}
                        for a in exported.attributes],
                    "functions": [
                        {"name": f.name, "parameters": list(f.parameters),
                         "result": f.result_type, "doc": f.doc}
                        for f in exported.functions],
                }
                for exported in self._types.values()
            ],
        }

    # -- invocation -----------------------------------------------------------------

    def invoke(self, type_name: str, function_name: str,
               args: Sequence[Any]) -> Any:
        """Invoke an exported function, translating it for the source."""
        exported = self.exported_type(type_name)
        fn = exported.function(function_name)
        if len(args) != len(fn.parameters):
            raise AccessError(
                f"{type_name}.{function_name} takes {len(fn.parameters)} "
                f"arguments, got {len(args)}")
        if fn.binding is None:
            raise TranslationError(
                f"{type_name}.{function_name} has no execution binding")
        self.invocations += 1
        return self._run_binding(fn, list(args))
