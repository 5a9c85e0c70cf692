"""Wrapper for relational sources (the ``WebTassiliOracle`` role).

Translates exported-function invocations into SQL executed through a
gateway connection, the transparency JDBC gave the paper's server
objects.

The paper's running example (§2.3) is preserved by
:meth:`RelationalWrapper.generate_sql`: invoking
``Funding(ResearchProjects.Title, Title = 'AIDS and drugs')`` yields the
SQL the paper prints::

    Select a.Funding From ResearchProjects a Where a.Title = 'AIDS and drugs'
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import SqlError, TranslationError
from repro.gateway.api import Connection
from repro.sql.lexer import tokenize
from repro.sql.result import ResultSet
from repro.sql.tokens import TokenType
from repro.wrappers.base import (ExportedFunction, ExportedType,
                                 InformationSourceInterface, SqlBinding)


class RelationalWrapper(InformationSourceInterface):
    """ISI over a gateway connection to a relational database."""

    native_language = "SQL"

    def __init__(self, source_name: str, connection: Connection,
                 exported_types: Optional[Sequence[ExportedType]] = None):
        self._connection = connection
        self._dialect = connection.database.dialect
        self.banner = connection.database.banner
        super().__init__(source_name,
                         f"WebTassili{self._dialect.product.split()[0]}",
                         exported_types)

    # -- ISI surface -------------------------------------------------------------

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
        substituted in this source's dialect (for user display).  The
        placeholders are the statement's ``?`` tokens, so a ``?`` inside
        a string literal or a comment is text; there must be exactly
        one per argument."""
        exported = self.exported_type(type_name)
        fn = exported.function(function_name)
        if not isinstance(fn.binding, SqlBinding):
            raise TranslationError(
                f"{type_name}.{function_name} is not SQL-bound")
        sql = fn.binding.sql
        line_starts = [0] + [index + 1 for index, char in enumerate(sql)
                             if char == "\n"]
        places = [line_starts[token.line - 1] + token.column - 1
                  for token in tokenize(sql) if token.type is TokenType.PARAM]
        if len(places) != len(args):
            raise TranslationError(
                f"binding for {fn.name!r} has {len(places)} placeholders "
                f"for {len(args)} arguments")
        pieces, end = [], 0
        for place, value in zip(places, args):
            try:
                literal = self._dialect.format_literal(value)
            except SqlError:
                raise TranslationError(
                    f"argument {value!r} of {fn.name!r} has no SQL "
                    f"literal") from None
            pieces += (sql[end:place], literal)
            end = place + 1
        return "".join(pieces) + sql[end:]
