"""Wrapper for relational sources (the ``WebTassiliOracle`` role).

Translates exported-function invocations into SQL executed through the
gateway — over a local connection or a JDBC-over-IIOP one; the wrapper
does not care, which is exactly the transparency JDBC gave the paper's
server objects.

The paper's running example (§2.3) is preserved by
:meth:`RelationalWrapper.generate_sql`: invoking
``Funding(ResearchProjects.Title, Title = 'AIDS and drugs')`` yields the
SQL the paper prints::

    Select a.Funding From ResearchProjects a Where a.Title = 'AIDS and drugs'
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import TranslationError
from repro.gateway.api import Connection
from repro.sql.dialect import Dialect
from repro.sql.result import ResultSet
from repro.wrappers.base import (ExportedFunction, ExportedType,
                                 InformationSourceInterface, SqlBinding)


class RelationalWrapper(InformationSourceInterface):
    """ISI over a gateway connection to a relational database."""

    def __init__(self, source_name: str, connection: Connection,
                 wrapper_name: Optional[str] = None,
                 dialect: Optional[Dialect] = None,
                 exported_types: Optional[Sequence[ExportedType]] = None):
        self._connection = connection
        self._dialect = dialect or connection.database.dialect
        if wrapper_name is None:
            wrapper_name = f"WebTassili{self._dialect.product.split()[0]}"
        super().__init__(source_name, wrapper_name, exported_types)

    # -- ISI surface -------------------------------------------------------------

    @property
    def native_language(self) -> str:
        return "SQL"

    @property
    def banner(self) -> str:
        return self._connection.banner

    def execute_native(self, query: str,
                       params: Optional[Sequence[Any]] = None) -> ResultSet:
        """Run raw SQL (the paper's 'directly using native query languages')."""
        return self._connection.execute(query, params).result

    def _run_binding(self, fn: ExportedFunction, args: list[Any]) -> Any:
        if not isinstance(fn.binding, SqlBinding):
            raise TranslationError(
                f"relational wrapper cannot run "
                f"{type(fn.binding).__name__} for {fn.name!r}")
        result = self.execute_native(fn.binding.sql, args)
        if fn.result_type in ("real", "int", "integer", "string", "date",
                              "boolean"):
            return result.scalar()
        return result

    # -- display helper (Figure 6 / §2.3) -------------------------------------------

    def generate_sql(self, type_name: str, function_name: str,
                     args: Sequence[Any]) -> str:
        """The SQL text an invocation translates to, with literals
        substituted in this source's dialect (for user display)."""
        exported = self.exported_type(type_name)
        fn = exported.function(function_name)
        if not isinstance(fn.binding, SqlBinding):
            raise TranslationError(
                f"{type_name}.{function_name} is not SQL-bound")
        sql = fn.binding.sql
        for value in args:
            literal = self._dialect.format_literal(value)
            if "?" not in sql:
                raise TranslationError(
                    f"binding for {fn.name!r} has fewer placeholders "
                    f"than arguments")
            sql = sql.replace("?", literal, 1)
        return sql

    @property
    def connection(self) -> Connection:
        """The underlying gateway connection."""
        return self._connection
