"""The relational database facade.

:class:`Database` binds the lexer/parser, catalog, storage, planner and
executor into a single object with an ``execute(sql, params)`` entry
point, vendor dialects, and snapshot-based transactions.

A statement text is parsed once and planned once, in an LRU cache keyed
by the text; a plan is rebuilt when the *catalog version* it was made
under is no longer current.  Every DDL statement and ``rollback()``
moves it, since plans bind tables, indexes and column positions.

Example::

    db = Database("hospital", dialect="oracle")
    db.execute("CREATE TABLE patients (id INT PRIMARY KEY, name VARCHAR(40))")
    db.execute("INSERT INTO patients VALUES (?, ?)", [1, "Alice"])
    result = db.execute("SELECT name FROM patients WHERE id = 1")
    assert result.scalar() == "Alice"
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable, Optional

from repro.errors import CatalogError, SqlError, TransactionError
from repro.sql import ast
from repro.sql.catalog import Catalog, Column, IndexDef, TableSchema
from repro.sql.dialect import GENERIC, Dialect, get_dialect
from repro.sql.executor import execute_plan, run_query
from repro.sql.explain import explain_lines
from repro.sql.parser import Parser
from repro.sql.planner import Planner
from repro.sql.result import ResultSet
from repro.sql.storage import Table


#: What the planner plans; DDL and transaction control run directly.
_PLANNED = (ast.Select, ast.Union, ast.Insert, ast.Update, ast.Delete)
#: Statement texts kept parsed and planned, least recently used first out.
_STATEMENT_CACHE_SIZE = 512


class _Prepared:
    """A parsed statement and, once planned, its plan."""

    __slots__ = ("statement", "plan", "catalog_version")

    def __init__(self, statement: ast.Statement):
        self.statement = statement
        self.plan: Any = None
        self.catalog_version = -1  # never current: not planned yet


class Database:
    """One in-memory relational database with a vendor dialect."""

    def __init__(self, name: str, dialect: str | Dialect = GENERIC):
        self.name = name
        self.dialect = get_dialect(dialect) if isinstance(dialect, str) else dialect
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ast.Statement] = {}
        self._view_display_names: list[str] = []
        self._statement_cache: OrderedDict[str, _Prepared] = OrderedDict()
        self._catalog_version = 0
        self._snapshot: Optional[dict[str, tuple[dict, int]]] = None
        self._lock = threading.RLock()
        #: Cumulative statement counter, surfaced through metadata.
        self.statements_executed = 0
        #: Plans built, and executions that found theirs still current.
        self.plans_compiled = 0
        self.plan_cache_hits = 0

    # ------------------------------------------------------------- metadata --

    @property
    def banner(self) -> str:
        """Vendor banner, e.g. ``Oracle 8.0.5``."""
        return self.dialect.banner

    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return self.catalog.table_names()

    def view_names(self) -> list[str]:
        """Names of all views, in creation order."""
        return list(self._view_display_names)

    def view_select(self, name: str):
        """The SELECT behind a view, or None when *name* is not a view
        (called by the planner to expand view references)."""
        return self._views.get(name.lower())

    def table_for(self, name: str) -> Table:
        """Storage object for *name* (used by planner/executor)."""
        key = name.lower()
        table = self._tables.get(key)
        if table is None:
            raise CatalogError(f"no table {name!r} in database {self.name!r}")
        return table

    def schema_of(self, name: str) -> TableSchema:
        """Schema of one table."""
        return self.catalog.table(name)

    def row_count(self, name: str) -> int:
        """Number of rows currently stored in *name*."""
        return len(self.table_for(name))

    # -------------------------------------------------------------- execution --

    def execute(self, sql: str, params: Optional[list[Any]] = None) -> ResultSet:
        """Parse and execute one SQL statement."""
        with self._lock:
            return self._run(self._prepare(sql), params)

    def executemany(self, sql: str, rows: Iterable[list[Any]]) -> int:
        """Execute one parameterized statement once per parameter row."""
        total = 0
        with self._lock:
            prepared = self._prepare(sql)
            for params in rows:
                total += self._run(prepared, list(params)).rowcount
        return total

    def execute_script(self, sql: str) -> list[ResultSet]:
        """Execute a ``;``-separated script, returning one result per statement."""
        with self._lock:
            return [self._run(_Prepared(statement), None)
                    for statement in Parser(sql).parse_script()]

    def _prepare(self, sql: str) -> _Prepared:
        cache = self._statement_cache
        prepared = cache.get(sql)
        if prepared is None:
            prepared = cache[sql] = _Prepared(Parser(sql).parse_statement())
            if len(cache) > _STATEMENT_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(sql)
        return prepared

    def _run(self, prepared: _Prepared, params: Optional[list[Any]]) -> ResultSet:
        self.statements_executed += 1
        statement = prepared.statement
        ddl = self._DDL.get(type(statement))
        if ddl is not None:
            self._catalog_version += 1
            return ddl(self, statement)
        control = self._TRANSACTION_CONTROL.get(type(statement))
        if control is not None:
            control(self)
            return ResultSet.empty()
        explained = isinstance(statement, ast.Explain)
        target = statement.statement if explained else statement
        if prepared.catalog_version == self._catalog_version:
            self.plan_cache_hits += 1
        elif isinstance(target, _PLANNED):
            prepared.plan = Planner(self, run_query).plan(target)
            prepared.catalog_version = self._catalog_version
            self.plans_compiled += 1
        if explained:
            return ResultSet(columns=["plan"], rows=[
                (line,) for line in explain_lines(target, prepared.plan)])
        return execute_plan(prepared.plan, params)

    # ----------------------------------------------------------------- DDL --

    def _column(self, column_def: ast.ColumnDef) -> Column:
        """A catalog column from its parsed definition."""
        default = None
        if column_def.default is not None:
            if not isinstance(column_def.default, ast.Literal):
                raise SqlError("only literal defaults are supported")
            default = column_def.default.value
        return Column(
            name=column_def.name,
            sql_type=self.dialect.resolve_type(column_def.type_name),
            primary_key=column_def.primary_key, not_null=column_def.not_null,
            unique=column_def.unique, default=default)

    def _create_table(self, statement: ast.CreateTable) -> ResultSet:
        if statement.name.lower() in self._views:
            raise CatalogError(
                f"a view named {statement.name!r} already exists")
        if self.catalog.has_table(statement.name):
            if statement.if_not_exists:
                return ResultSet.empty()
            raise CatalogError(f"table {statement.name!r} already exists")
        columns = [self._column(column_def) for column_def in statement.columns]
        schema = TableSchema(name=statement.name, columns=columns,
                             primary_key=list(statement.primary_key))
        self.catalog.add_table(schema)
        self._tables[statement.name.lower()] = Table(schema)
        return ResultSet.empty()

    def _drop_table(self, statement: ast.DropTable) -> ResultSet:
        if not self.catalog.has_table(statement.name):
            if statement.if_exists:
                return ResultSet.empty()
            raise CatalogError(f"no table {statement.name!r}")
        self.catalog.drop_table(statement.name)
        del self._tables[statement.name.lower()]
        return ResultSet.empty()

    def _alter_add_column(self, statement: ast.AlterTableAddColumn) -> ResultSet:
        table = self.table_for(statement.table)
        column_def = statement.column
        if column_def.primary_key:
            raise SqlError("cannot ADD COLUMN with PRIMARY KEY")
        column = self._column(column_def)
        table.add_column(column, column.default)
        if column.unique:
            table.add_index(f"__unique_{column.name.lower()}__",
                            [column.name], unique=True)
        return ResultSet.empty()

    def _create_view(self, statement: ast.CreateView) -> ResultSet:
        key = statement.name.lower()
        if self.catalog.has_table(statement.name):
            raise CatalogError(
                f"a table named {statement.name!r} already exists")
        if key in self._views:
            raise CatalogError(f"view {statement.name!r} already exists")
        self._views[key] = statement.select
        self._view_display_names.append(statement.name)
        return ResultSet.empty()

    def _drop_view(self, statement: ast.DropView) -> ResultSet:
        key = statement.name.lower()
        if key not in self._views:
            if statement.if_exists:
                return ResultSet.empty()
            raise CatalogError(f"no view {statement.name!r}")
        del self._views[key]
        self._view_display_names = [
            name for name in self._view_display_names
            if name.lower() != key]
        return ResultSet.empty()

    def _create_index(self, statement: ast.CreateIndex) -> ResultSet:
        self.catalog.add_index(IndexDef(
            name=statement.name, table=statement.table,
            columns=statement.columns, unique=statement.unique))
        table = self.table_for(statement.table)
        table.add_index(statement.name.lower(), statement.columns,
                        statement.unique)
        return ResultSet.empty()

    def _drop_index(self, statement: ast.DropIndex) -> ResultSet:
        index = self.catalog.drop_index(statement.name)
        self.table_for(index.table).drop_index(statement.name.lower())
        return ResultSet.empty()

    _DDL = {
        ast.CreateTable: _create_table, ast.DropTable: _drop_table,
        ast.AlterTableAddColumn: _alter_add_column,
        ast.CreateView: _create_view, ast.DropView: _drop_view,
        ast.CreateIndex: _create_index, ast.DropIndex: _drop_index,
    }

    # ---------------------------------------------------------- transactions --

    @property
    def in_transaction(self) -> bool:
        """True between ``BEGIN`` and ``COMMIT``/``ROLLBACK``."""
        return self._snapshot is not None

    def begin(self) -> None:
        """Start a transaction (snapshot every table)."""
        with self._lock:
            if self._snapshot is not None:
                raise TransactionError("transaction already in progress")
            self._snapshot = {
                name: (table.snapshot(), table.next_row_id)
                for name, table in self._tables.items()
            }

    def commit(self) -> None:
        """Make the changes since ``begin`` permanent."""
        with self._lock:
            if self._snapshot is None:
                raise TransactionError("no transaction in progress")
            self._snapshot = None

    def rollback(self) -> None:
        """Undo every change since ``begin``.

        Tables created inside the transaction are dropped; tables dropped
        inside it are *not* resurrected (DDL is only partially
        transactional, as in many real engines).
        """
        with self._lock:
            if self._snapshot is None:
                raise TransactionError("no transaction in progress")
            for name in list(self._tables):
                if name not in self._snapshot:
                    schema = self._tables[name].schema
                    self.catalog.drop_table(schema.name)
                    del self._tables[name]
            for name, (rows, next_row_id) in self._snapshot.items():
                table = self._tables.get(name)
                if table is not None:
                    table.restore(rows, next_row_id)
            self._snapshot = None
            self._catalog_version += 1

    _TRANSACTION_CONTROL = {ast.BeginTransaction: begin, ast.Commit: commit,
                            ast.Rollback: rollback}

    # ------------------------------------------------------------ bulk loading --

    def load_rows(self, table_name: str, rows: Iterable[Iterable[Any]]) -> int:
        """Insert pre-shaped rows directly (bypasses SQL, keeps validation)."""
        table = self.table_for(table_name)
        count = 0
        with self._lock:
            for row in rows:
                table.insert(list(row))
                count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Database(name={self.name!r}, dialect={self.dialect.name!r}, "
                f"tables={len(self._tables)})")
