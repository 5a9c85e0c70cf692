"""Statement planning for the relational engine.

The planner turns a parsed statement into the one plan object that the
executor runs and ``EXPLAIN`` prints: a tree of row sources with every
name resolved and every expression (filters, join keys, projection,
group keys, aggregate arguments, ORDER BY keys) compiled to a closure.
A plan binds storage objects and holds no per-execution state, so the
engine caches it per statement text until the catalog changes.

Three rewrites shape the row-source tree:

* **index lookup** — an equality conjunct ``col = <constant>`` on a base
  table with a matching hash index becomes an :class:`IndexLookup`;
* **hash join** — an INNER or LEFT join whose condition is a pure
  conjunction of cross-side equalities becomes a :class:`HashJoin`
  instead of a nested loop;
* **filter push-down** — a WHERE conjunct whose columns all belong to
  one join input is applied to that input before the join: either side
  of INNER/CROSS, only the preserved side of LEFT/RIGHT, never a
  conjunct holding a subquery.  There it may in turn pick an index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.errors import CatalogError, SqlError
from repro.sql import ast
from repro.sql.expressions import (SAME_KIND, Compiled, Compiler, Frame,
                                   Header, Scope, iso_text_as_date)
from repro.sql.functions import (AGGREGATE_FUNCTIONS, Aggregate,
                                 CountAggregate, is_aggregate)
from repro.sql.storage import HashIndex, Table
from repro.sql.types import STORED_AS, SqlType

_EMPTY_HEADER = Header([])


@dataclass
class RowSource:
    """Base class for planned row sources; *header* names their columns."""

    header: Header


@dataclass
class SingleRow(RowSource):
    """The one empty row a SELECT without FROM projects from."""


@dataclass
class TableScan(RowSource):
    """Full scan of a base table."""

    table: Table
    name: str
    binding: str


@dataclass
class IndexLookup(RowSource):
    """Equality probe into a hash index of a base table.  A key not of
    *key_types* — the types that compare directly with what the column
    stores — is answered by *fallback*, the same equality evaluated row
    by row under the full comparison rules."""

    table: Table
    name: str
    column: str
    index: HashIndex
    key: Compiled
    key_types: frozenset
    fallback: Compiled


@dataclass
class DerivedTable(RowSource):
    """A subquery in FROM (or a view), materialized under an alias."""

    plan: "QueryPlan"
    binding: str


@dataclass
class NestedLoopJoin(RowSource):
    """General join; *kind* in INNER/LEFT/RIGHT/CROSS.  With USING,
    *keep* lists the combined-row positions that survive the merge."""

    kind: str
    left: RowSource
    right: RowSource
    condition: Optional[ast.Expression] = None
    test: Optional[Compiled] = None
    using: Optional[list[str]] = None
    keep: Optional[list[int]] = None


@dataclass
class HashJoin(RowSource):
    """Equi-join executed by building a hash table on the right side."""

    kind: str  # INNER or LEFT
    left: RowSource
    right: RowSource
    left_keys: list[ast.Expression]
    right_keys: list[ast.Expression]
    left_key: Compiled
    right_key: Compiled


@dataclass
class FilteredSource(RowSource):
    """A row source with predicates applied on top, one per conjunct in
    WHERE order; over a :class:`TableScan` the executor fuses the two."""

    child: RowSource
    conjuncts: list[ast.Expression]
    tests: list[Compiled]


#: ``(output ordinal, None)`` or ``(None, closure)``, then ascending.
OrderKey = tuple[Optional[int], Optional[Compiled], bool]


@dataclass
class SelectPlan:
    """One SELECT block.  After grouping, *having*, *project* and the
    closures of *order* read the group's representative row extended by
    one value per entry of *aggregates*."""

    select: ast.Select
    columns: list[str]
    source: RowSource
    #: None when the block does not aggregate; else (factory, argument)
    #: per aggregate call, argument None for ``COUNT(*)``.
    aggregates: Optional[list[tuple[Callable[[], Aggregate], Optional[Compiled]]]]
    group_key: Optional[Compiled]
    having: Optional[Compiled]
    #: None when the source rows already are the output rows.
    project: Optional[Compiled]
    order: list[OrderKey]
    limit: Optional[Compiled]
    offset: Optional[Compiled]


@dataclass
class UnionPlan:
    """``left UNION [ALL] right``; *order* closures read the output row."""

    union: ast.Union
    columns: list[str]
    left: "QueryPlan"
    right: "QueryPlan"
    order: list[OrderKey]
    limit: Optional[Compiled]


QueryPlan = Union[SelectPlan, UnionPlan]


@dataclass
class InsertPlan:
    """INSERT of the value rows ``rows_of(frame)`` yields (a VALUES list
    or a query) into *positions* of a row of column *defaults*."""

    table: Table
    name: str
    positions: list[int]
    defaults: list[Any]
    rows_of: Callable[[Frame], Iterable[Sequence]]


@dataclass
class ModifyPlan:
    """UPDATE, or DELETE when *assignments* is None, of the rows that
    *source* (a single-table access path) finds."""

    table: Table
    name: str
    source: RowSource
    assignments: Optional[list[tuple[int, Compiled]]]


def split_conjuncts(expression: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.Binary) and expression.op == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def _positions(expression: ast.Expression, header: Header) -> Optional[set[int]]:
    """Slots of *header* that *expression* reads; None when it holds a
    subquery or a column from outside *header* (such a conjunct or join
    key stays where it was written)."""
    found: set[int] = set()
    for node in ast.walk(expression):
        if isinstance(node, ast.Statement):
            return None
        if isinstance(node, ast.ColumnRef):
            position = header.resolve(node.name, node.table)
            if position is None:
                return None
            found.add(position)
    return found


def _key_closure(parts: list[Compiled], nulls_match: bool) -> Compiled:
    """One closure for a composite key.  A join key with a NULL part
    collapses to None (NULL joins nothing); a group key keeps it."""
    if len(parts) == 1:
        return parts[0]
    if nulls_match:
        return lambda row, frame: tuple([part(row, frame) for part in parts])

    def key(row, frame):
        values = tuple([part(row, frame) for part in parts])
        return None if None in values else values
    return key


class Planner:
    """Plans one statement against a storage lookup interface.

    *storage* must expose ``table_for(name)`` and ``view_select(name)``
    (it is the engine itself); *run_query* is the executor's
    ``(plan, frame) -> rows``, which compiled subqueries call back into.
    """

    def __init__(self, storage, run_query: Callable[[QueryPlan, Frame], list[tuple]]):
        self._storage = storage
        self._run_query = run_query
        self._compiler = Compiler(
            lambda select, scope: partial(run_query, self._query(select, scope)))
        self._compile = self._compiler.compile

    def plan(self, statement: ast.Statement):
        """The plan of any statement the executor runs."""
        if isinstance(statement, (ast.Select, ast.Union)):
            return self._query(statement, None)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        if isinstance(statement, (ast.Update, ast.Delete)):
            return self._modify(statement)
        raise SqlError(f"executor cannot run {type(statement).__name__}")

    # -- query blocks -------------------------------------------------------------

    def _query(self, statement: ast.Statement, outer: Optional[Scope]) -> QueryPlan:
        if isinstance(statement, ast.Select):
            return self._select(statement, outer)
        assert isinstance(statement, ast.Union)
        left = self._query(statement.left, outer)
        right = self._query(statement.right, outer)
        if len(left.columns) != len(right.columns):
            raise SqlError("UNION operands have different column counts")
        columns = list(left.columns)
        scope = Scope(Header([(None, name) for name in columns]), outer)
        return UnionPlan(statement, columns, left, right,
                         self._order_keys(statement.order_by, columns, scope),
                         self._constant(statement.limit))

    def _select(self, select: ast.Select, outer: Optional[Scope]) -> SelectPlan:
        source: RowSource = SingleRow(_EMPTY_HEADER) if select.from_item is None \
            else self._from(select.from_item, outer)
        source = self._filter(source, split_conjuncts(select.where), outer)
        header = source.header
        scope = Scope(header, outer)

        # Aggregate calls of this block; a nested block is its own scope.
        outputs = [item.expression for item in select.items] + [select.having] \
            + [order.expression for order in select.order_by]
        calls = [node for expression in outputs if expression is not None
                 for node in ast.walk(expression)
                 if isinstance(node, ast.FunctionCall) and is_aggregate(node.name)]
        aggregates = group_key = having = None
        if select.group_by or calls or select.having is not None:
            aggregates = [self._aggregate(call, scope) for call in calls]
            if select.group_by:
                group_key = _key_closure(
                    [self._compile(self._group_alias(expr, select, header), scope)
                     for expr in select.group_by], nulls_match=True)
            scope = Scope(header, outer, {id(call): len(header) + slot
                                          for slot, call in enumerate(calls)})
            if select.having is not None:
                having = self._compile(select.having, scope)
        columns, project = self._projection(select, scope,
                                            identity=aggregates is None)
        return SelectPlan(
            select, columns, source, aggregates, group_key, having, project,
            self._order_keys(select.order_by, columns, scope),
            self._constant(select.limit), self._constant(select.offset))

    def _constant(self, expression: Optional[ast.Expression]) -> Optional[Compiled]:
        """LIMIT / OFFSET: an expression over no row at all."""
        return None if expression is None \
            else self._compile(expression, Scope(_EMPTY_HEADER))

    def _projection(self, select: ast.Select, scope: Scope, identity: bool
                    ) -> tuple[list[str], Optional[Compiled]]:
        """Output column names and the closure that makes an output row;
        no closure when (*identity*) the input rows already are it."""
        header = scope.header
        names: list[str] = []
        parts: list[Union[int, ast.Expression]] = []  # a slot, or to compute
        for item in select.items:
            expression = item.expression
            if not isinstance(expression, ast.Star):
                names.append(item.alias or _derive_name(expression))
                parts.append(expression)
                continue
            positions = list(range(len(header))) if expression.table is None \
                else header.positions_for_binding(expression.table)
            if not positions and expression.table is not None:
                raise CatalogError(
                    f"unknown table {expression.table!r} in select list")
            names.extend(header.slots[slot][1] for slot in positions)
            parts.extend(positions)
        if identity and parts == list(range(len(header))):
            return names, None
        items = [(lambda row, frame, slot=part: row[slot]) if isinstance(part, int)
                 else self._compile(part, scope) for part in parts]
        return names, lambda row, frame: tuple([item(row, frame) for item in items])

    @staticmethod
    def _group_alias(expression: ast.Expression, select: ast.Select,
                     header: Header) -> ast.Expression:
        """Allow ``GROUP BY alias`` by substituting the aliased select
        expression when the input has no column of that name."""
        if isinstance(expression, ast.ColumnRef) and expression.table is None:
            lowered = expression.name.lower()
            if all(name.lower() != lowered for name in header.column_names):
                for item in select.items:
                    if item.alias and item.alias.lower() == lowered:
                        return item.expression
        return expression

    def _aggregate(self, call: ast.FunctionCall, scope: Scope
                   ) -> tuple[Callable[[], Aggregate], Optional[Compiled]]:
        cls = AGGREGATE_FUNCTIONS[call.name]
        star = not call.args or isinstance(call.args[0], ast.Star)
        if cls is CountAggregate:
            factory = partial(CountAggregate, distinct=call.distinct,
                              count_star=star)
        elif star:
            raise SqlError(f"aggregate {call.name} requires an argument")
        else:
            factory = partial(cls, distinct=call.distinct)
        return factory, None if star else self._compile(call.args[0], scope)

    def _order_keys(self, order_by: list[ast.OrderItem], columns: list[str],
                    scope: Scope) -> list[OrderKey]:
        """Resolve ORDER BY per SQL custom, for SELECT and UNION alike:
        an integer literal is an output ordinal, a bare name matching
        exactly one output column is that column, anything else is an
        expression over *scope*."""
        lowered = [name.lower() for name in columns]
        keys: list[OrderKey] = []
        for item in order_by:
            expr = item.expression
            if isinstance(expr, ast.Literal) and type(expr.value) is int:
                if not 1 <= expr.value <= len(columns):
                    raise SqlError(f"ORDER BY position {expr.value} out of range")
                keys.append((expr.value - 1, None, item.ascending))
            elif isinstance(expr, ast.ColumnRef) and expr.table is None \
                    and lowered.count(expr.name.lower()) == 1:
                keys.append((lowered.index(expr.name.lower()), None,
                             item.ascending))
            else:
                keys.append((None, self._compile(expr, scope), item.ascending))
        return keys

    # -- FROM tree -------------------------------------------------------------

    def _from(self, item: ast.FromItem, outer: Optional[Scope]) -> RowSource:
        if isinstance(item, ast.TableRef):
            view = self._storage.view_select(item.name)
            if view is not None:
                return self._derived(view, item.binding, None)
            table = self._storage.table_for(item.name)
            return TableScan(Header([(item.binding, name)
                                     for name in table.schema.column_names]),
                             table, item.name, item.binding)
        if isinstance(item, ast.SubqueryRef):
            return self._derived(item.subquery, item.alias, outer)
        if isinstance(item, ast.Join):
            return self._join(item, self._from(item.left, outer),
                              self._from(item.right, outer), outer)
        raise SqlError(f"unsupported FROM item: {type(item).__name__}")

    def _derived(self, statement: ast.Statement, binding: str,
                 outer: Optional[Scope]) -> DerivedTable:
        plan = self._query(statement, outer)
        return DerivedTable(Header([(binding, name) for name in plan.columns]),
                            plan, binding)

    def _join(self, join: ast.Join, left: RowSource, right: RowSource,
              outer: Optional[Scope]) -> RowSource:
        header = left.header + right.header
        scope = Scope(header, outer)
        if join.using is not None:
            condition, keep = self._using(join.using, left.header, right.header)
            return NestedLoopJoin(Header([header.slots[i] for i in keep]),
                                  join.kind, left, right,
                                  test=self._compile(condition, scope),
                                  using=join.using, keep=keep)
        if join.kind in ("INNER", "LEFT") and join.condition is not None:
            keys = self._equi_keys(join.condition, header, len(left.header))
            if keys is not None:
                left_keys, right_keys = keys
                return HashJoin(
                    header, join.kind, left, right, left_keys, right_keys,
                    _key_closure([self._compile(key, Scope(left.header, outer))
                                  for key in left_keys], nulls_match=False),
                    _key_closure([self._compile(key, Scope(right.header, outer))
                                  for key in right_keys], nulls_match=False))
        test = self._compile(join.condition, scope) \
            if join.condition is not None else None
        return NestedLoopJoin(header, join.kind, left, right,
                              condition=join.condition, test=test)

    @staticmethod
    def _equi_keys(condition: ast.Expression, header: Header, left_width: int):
        """If the join condition is a conjunction of equalities with one
        side per operand, return (left_keys, right_keys)."""
        left_keys: list[ast.Expression] = []
        right_keys: list[ast.Expression] = []
        for conjunct in split_conjuncts(condition):
            if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
                return None
            a, b = conjunct.left, conjunct.right
            a_reads, b_reads = _positions(a, header), _positions(b, header)
            if not a_reads or not b_reads:
                return None
            if max(b_reads) < left_width <= min(a_reads):
                a, b = b, a
            elif not max(a_reads) < left_width <= min(b_reads):
                return None
            left_keys.append(a)
            right_keys.append(b)
        return left_keys, right_keys

    @staticmethod
    def _using(using: list[str], left_header: Header, right_header: Header
               ) -> tuple[ast.Expression, list[int]]:
        """The implicit equality condition of JOIN ... USING and the
        combined-row positions left once the right-side duplicates go."""
        condition: Optional[ast.Expression] = None
        drop: set[int] = set()
        for column in using:
            left_position = left_header.resolve(column)
            right_position = right_header.resolve(column)
            if left_position is None or right_position is None:
                raise CatalogError(f"USING column {column!r} missing from a side")
            equality = ast.Binary(
                "=",
                ast.ColumnRef(column, left_header.slots[left_position][0]),
                ast.ColumnRef(column, right_header.slots[right_position][0]))
            condition = equality if condition is None \
                else ast.Binary("AND", condition, equality)
            drop.add(len(left_header) + right_position)
        width = len(left_header) + len(right_header)
        return condition, [i for i in range(width) if i not in drop]

    # -- filters and index selection -------------------------------------------

    def _filter(self, source: RowSource, conjuncts: list[ast.Expression],
                outer: Optional[Scope]) -> RowSource:
        """Apply WHERE conjuncts as low in the tree as their columns
        allow: below a join when one input has them all, as an index
        probe when a base table can answer one."""
        if isinstance(source, HashJoin) or (
                isinstance(source, NestedLoopJoin) and source.using is None):
            left_width = len(source.left.header)
            left, right, above = [], [], []
            for conjunct in conjuncts:
                reads = _positions(conjunct, source.header)
                # An outer join's NULL-extended side must be filtered
                # after the join: only the preserved side moves.
                if reads and max(reads) < left_width and source.kind != "RIGHT":
                    left.append(conjunct)
                elif reads and min(reads) >= left_width and source.kind != "LEFT":
                    right.append(conjunct)
                else:
                    above.append(conjunct)
            source.left = self._filter(source.left, left, outer)
            source.right = self._filter(source.right, right, outer)
            conjuncts = above
        elif isinstance(source, TableScan):
            source, conjuncts = self._index_access(source, conjuncts, outer)
        if not conjuncts:
            return source
        scope = Scope(source.header, outer)
        return FilteredSource(source.header, source, conjuncts,
                              [self._compile(c, scope) for c in conjuncts])

    def _index_access(self, scan: TableScan, conjuncts: list[ast.Expression],
                      outer: Optional[Scope]
                      ) -> tuple[RowSource, list[ast.Expression]]:
        """Replace a TableScan with an IndexLookup when a conjunct
        ``column = constant`` matches an existing index."""
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
                continue
            for column_side, key_side in ((conjunct.left, conjunct.right),
                                          (conjunct.right, conjunct.left)):
                # The key is evaluated once, before any row is read: it
                # may hold no column and no subquery.
                if not isinstance(column_side, ast.ColumnRef) \
                        or _positions(key_side, _EMPTY_HEADER) is None:
                    continue
                position = scan.header.resolve(column_side.name, column_side.table)
                if position is None:
                    continue
                column = scan.table.schema.columns[position]
                index = scan.table.index_on([column.name])
                if index is None:
                    continue
                key = self._compile(key_side, Scope(_EMPTY_HEADER, outer))
                if column.sql_type is SqlType.DATE:
                    key = _iso_text_as_date(key)
                lookup = IndexLookup(
                    scan.header, scan.table, scan.name, column.name, index, key,
                    SAME_KIND[STORED_AS[column.sql_type]],
                    self._compile(conjunct, Scope(scan.header, outer)))
                return lookup, [c for c in conjuncts if c is not conjunct]
        return scan, conjuncts

    # --------------------------------------------------------------------- DML --

    def _insert(self, statement: ast.Insert) -> InsertPlan:
        table = self._storage.table_for(statement.table)
        schema = table.schema
        positions = list(range(len(schema.columns))) if statement.columns is None \
            else [schema.column_index(name) for name in statement.columns]
        if statement.rows is None:
            rows_of = partial(self._run_query, self._query(statement.select, None))
        else:
            scope = Scope(_EMPTY_HEADER)
            value_rows = [[self._compile(value, scope) for value in row]
                          for row in statement.rows]

            def rows_of(frame):
                # A generator: a row is evaluated after the rows before
                # it are stored, so it may read them.
                return ([value((), frame) for value in row] for row in value_rows)
        return InsertPlan(table, statement.table, positions,
                          [column.default for column in schema.columns], rows_of)

    def _modify(self, statement: Union[ast.Update, ast.Delete]) -> ModifyPlan:
        """UPDATE and DELETE take their rows from the access path a
        SELECT with the same WHERE would use."""
        table = self._storage.table_for(statement.table)
        schema = table.schema
        header = Header([(statement.table, name) for name in schema.column_names])
        source = self._filter(
            TableScan(header, table, statement.table, statement.table),
            split_conjuncts(statement.where), None)
        scope = Scope(header)
        return ModifyPlan(
            table, statement.table, source,
            None if isinstance(statement, ast.Delete) else
            [(schema.column_index(a.column), self._compile(a.value, scope))
             for a in statement.assignments])


def _iso_text_as_date(key: Compiled) -> Compiled:
    """Probe a DATE index with the date an ISO string spells, the way
    ``=`` compares the two; other text is left for the fallback scan."""
    def normalised(row, frame):
        value = key(row, frame)
        return iso_text_as_date(value) if type(value) is str else value
    return normalised


def _derive_name(expression: ast.Expression) -> str:
    """Output column name for an unaliased select item."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        args = expression.args
        if not args or (len(args) == 1 and isinstance(args[0], ast.Star)):
            return f"{expression.name}(*)"
        if len(args) == 1 and isinstance(args[0], ast.ColumnRef):
            return f"{expression.name}({args[0].name})"
        return f"{expression.name}(...)"
    if isinstance(expression, ast.Literal):
        return str(expression.value)
    return "expr"
