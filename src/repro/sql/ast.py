"""Abstract syntax tree for the SQL dialect understood by the engine.

All nodes are frozen-ish dataclasses (mutable only where the planner
needs to annotate them).  Expression nodes share the :class:`Expression`
base; statement nodes share :class:`Statement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union


class Node:
    """Base class for every AST node."""


class Expression(Node):
    """Base class for expression nodes."""


class Statement(Node):
    """Base class for statement nodes."""


def walk(node: Node) -> Iterator[Node]:
    """*node* and every node below it, depth first.  A nested query
    block is yielded but not entered: its columns and aggregates belong
    to its own scope."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, Statement):
            stack.extend(reversed([
                child for value in vars(node).values()
                for child in (value if isinstance(value, list) else (value,))
                if isinstance(child, Node)]))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, or NULL."""

    value: Any

    def __str__(self) -> str:
        """The constant as SQL spells it: ``NULL``, ``TRUE``, ``'O''Brien'``."""
        value = self.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return repr(value)


@dataclass
class ColumnRef(Expression):
    """A (possibly qualified) column reference like ``t.name`` or ``name``."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Param(Expression):
    """A positional ``?`` parameter; *index* is assigned left to right."""

    index: int


@dataclass
class Slot(Expression):
    """The *index*-th literal of the statement text, read at run time;
    *kind* (:func:`repro.sql.lexer.kind_of`) is the same for every text
    of the shape: ``int``, ``float``, ``str`` or ``"date"``."""

    index: int
    kind: Any


@dataclass
class Unary(Expression):
    """Unary operator application: ``NOT x``, ``-x``, ``+x``."""

    op: str
    operand: Expression


@dataclass
class Binary(Expression):
    """Binary operator application (arithmetic, comparison, AND/OR, ``||``)."""

    op: str
    left: Expression
    right: Expression


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expression
    items: list[Expression]
    negated: bool = False


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass
class FunctionCall(Expression):
    """Scalar or aggregate function call.  ``COUNT(DISTINCT x)`` sets *distinct*."""

    name: str
    args: list[Expression]
    distinct: bool = False


@dataclass
class Star(Expression):
    """``*`` or ``table.*`` — valid in select lists and ``COUNT(*)``."""

    table: Optional[str] = None


@dataclass
class CaseWhen(Node):
    """One ``WHEN condition THEN result`` arm of a CASE expression."""

    condition: Expression
    result: Expression


@dataclass
class Case(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Optional[Expression]
    whens: list[CaseWhen]
    default: Optional[Expression] = None


@dataclass
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(Expression):
    """A parenthesized SELECT used as a scalar value."""

    subquery: "Select"


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    type_name: str


# ---------------------------------------------------------------------------
# FROM-clause items
# ---------------------------------------------------------------------------

class FromItem(Node):
    """Base class for items in a FROM clause."""


@dataclass
class TableRef(FromItem):
    """A base-table reference with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is visible under in the query scope."""
        return self.alias or self.name


@dataclass
class SubqueryRef(FromItem):
    """A derived table: ``(SELECT ...) alias``."""

    subquery: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class Join(FromItem):
    """A join of two FROM items.  *kind* is INNER, LEFT, RIGHT, or CROSS."""

    kind: str
    left: FromItem
    right: FromItem
    condition: Optional[Expression] = None
    using: Optional[list[str]] = None


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------

@dataclass
class SelectItem(Node):
    """One entry in a select list: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    """One ORDER BY key."""

    expression: Expression
    ascending: bool = True


@dataclass
class Select(Statement):
    """A single SELECT block (no set operators; see :class:`Union`)."""

    items: list[SelectItem]
    from_item: Optional[FromItem] = None
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


@dataclass
class Union(Statement):
    """``left UNION [ALL] right`` with optional trailing ORDER BY/LIMIT."""

    left: Statement
    right: Statement
    all: bool = False
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

@dataclass
class Insert(Statement):
    """``INSERT INTO table [(cols)] VALUES (...), ...`` or ``INSERT ... SELECT``."""

    table: str
    columns: Optional[list[str]]
    rows: Optional[list[list[Expression]]] = None
    select: Optional[Union | Select] = None


@dataclass
class Assignment(Node):
    """One ``column = expression`` pair in an UPDATE."""

    column: str
    value: Expression


@dataclass
class Update(Statement):
    """``UPDATE table SET ... [WHERE ...]``."""

    table: str
    assignments: list[Assignment]
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Optional[Expression] = None


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------

@dataclass
class ColumnDef(Node):
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    default: Optional[Expression] = None


@dataclass
class CreateTable(Statement):
    """``CREATE TABLE [IF NOT EXISTS] name (...)``."""

    name: str
    columns: list[ColumnDef]
    if_not_exists: bool = False
    primary_key: list[str] = field(default_factory=list)


@dataclass
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass
class CreateIndex(Statement):
    """``CREATE [UNIQUE] INDEX name ON table (cols)``."""

    name: str
    table: str
    columns: list[str]
    unique: bool = False


@dataclass
class DropIndex(Statement):
    """``DROP INDEX name``."""

    name: str


@dataclass
class AlterTableAddColumn(Statement):
    """``ALTER TABLE name ADD [COLUMN] coldef [DEFAULT literal]``."""

    table: str
    column: ColumnDef


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name AS SELECT ...``."""

    name: str
    select: Statement


@dataclass
class DropView(Statement):
    """``DROP VIEW [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

@dataclass
class Explain(Statement):
    """``EXPLAIN <statement>`` — describe the access plan."""

    statement: Statement


@dataclass
class BeginTransaction(Statement):
    """``BEGIN [TRANSACTION|WORK]``."""


@dataclass
class Commit(Statement):
    """``COMMIT [TRANSACTION|WORK]``."""


@dataclass
class Rollback(Statement):
    """``ROLLBACK [TRANSACTION|WORK]``."""
