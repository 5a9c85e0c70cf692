"""Wrapper for object-oriented sources (ObjectStore / Ontos).

The paper reaches its object stores two ways: C++ CORBA servers call
ObjectStore through **C++ method invocation**, and Java CORBA servers
call Ontos through **JNI**.  Both are direct in-process bindings rather
than a query protocol, modelled here by :class:`CallableBinding`
functions next to OQL-template bindings for declarative access.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

from repro.errors import TranslationError
from repro.oodb.database import ObjectDatabase
from repro.wrappers.base import (CallableBinding, ExportedFunction,
                                 ExportedType, InformationSourceInterface,
                                 OqlBinding)


def _oql_literal(value: Any, function_name: str) -> str:
    """Render a Python value as an OQL literal (an argument of
    *function_name*)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float) and not math.isfinite(value):
        raise TranslationError(
            f"argument {value!r} of {function_name!r} has no OQL literal")
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


class ObjectDbWrapper(InformationSourceInterface):
    """ISI over an in-process object database.

    *binding_style* records which native path the paper used for this
    store: ``"c++"`` (Orbix → ObjectStore) or ``"jni"``
    (OrbixWeb → Ontos).  It is descriptive metadata — both run as direct
    calls — but it surfaces in :meth:`describe` so deployments can be
    checked against Figure 2.
    """

    native_language = "OQL"

    def __init__(self, source_name: str, database: ObjectDatabase,
                 binding_style: str = "c++",
                 exported_types: Optional[Sequence[ExportedType]] = None):
        self._database = database
        self.binding_style = binding_style
        self.banner = database.banner
        super().__init__(source_name, f"WebTassili{database.product}",
                         exported_types)

    def describe(self) -> dict[str, Any]:
        description = super().describe()
        description["binding_style"] = self.binding_style
        return description

    def execute_native(self, query: str,
                       params: Optional[Sequence[Any]] = None) -> list[dict]:
        """Run an OQL query (no parameter protocol: OQL-as-shipped)."""
        if params:
            raise TranslationError(
                "the object wrapper does not support query parameters; "
                "substitute literals into the OQL text")
        return self._database.query(query)

    def _run_binding(self, fn: ExportedFunction, args: list[Any]) -> Any:
        binding = fn.binding
        if isinstance(binding, CallableBinding):
            return binding.function(self._database, *args)
        if isinstance(binding, OqlBinding):
            substitutions = {
                name: _oql_literal(value, fn.name)
                for name, value in zip(binding.parameters, args)
            }
            try:
                oql = binding.oql.format(**substitutions)
            except KeyError as exc:
                raise TranslationError(
                    f"OQL binding for {fn.name!r} references unknown "
                    f"placeholder {exc}") from exc
            rows = self._database.query(oql)
            if fn.result_type in ("real", "int", "integer", "string", "date",
                                  "boolean"):
                if not rows:
                    return None
                first = rows[0]
                return next(iter(first.values())) if first else None
            return rows
        raise TranslationError(
            f"object wrapper cannot run {type(binding).__name__} "
            f"for {fn.name!r}")
