"""Expression compilation with SQL semantics.

An AST expression compiles, once per plan, into a closure
``fn(row, frame)``: column references are resolved to slot positions
against a :class:`Scope` (so an unknown or ambiguous name is an error
whatever the data), operators are specialised, and a same-type fast
path sits in front of the full rules — three-valued logic,
NULL-propagating arithmetic and comparisons, LIKE, scalar functions,
CASE, and the subquery forms (scalar, IN, EXISTS).

A *frame* is all that varies between executions: ``(params, outer_row,
outer_frame)``, the ``?`` bindings plus the chain of enclosing rows a
correlated subquery reads.  Closures hold none of it, so one plan
serves concurrent and nested executions alike.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import CatalogError, SqlError
from repro.sql import ast
from repro.sql.functions import SCALAR_FUNCTIONS, is_aggregate
from repro.sql.types import TYPE_SYNONYMS, coerce, comparable

Frame = tuple  # (params, outer_row, outer_frame)
Compiled = Callable[[Sequence, Frame], Any]


class Header:
    """The column layout of an intermediate relation.

    Each slot is a ``(binding, column_name)`` pair; *binding* is the
    table alias (or None for computed columns).  Lookup resolves both
    qualified (``t.c``) and bare (``c``) references, raising on
    ambiguity as a real engine would.
    """

    def __init__(self, slots: list[tuple[Optional[str], str]]):
        self.slots = slots
        self._bindings = [b.lower() if b is not None else None
                          for b, _ in slots]
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for position, (__, column) in enumerate(slots):
            lowered = column.lower()
            self._by_name.setdefault(lowered, []).append(position)
            if self._bindings[position] is not None:
                self._by_qualified[(self._bindings[position], lowered)] = \
                    position

    def resolve(self, name: str, table: Optional[str] = None) -> Optional[int]:
        """Slot position for a column reference, or None when unknown."""
        if table is not None:
            return self._by_qualified.get((table.lower(), name.lower()))
        positions = self._by_name.get(name.lower())
        if not positions:
            return None
        if len(positions) > 1:
            raise CatalogError(f"ambiguous column reference {name!r}")
        return positions[0]

    def positions_for_binding(self, binding: str) -> list[int]:
        """All slots belonging to one table binding (for ``t.*``)."""
        lowered = binding.lower()
        return [i for i, b in enumerate(self._bindings) if b == lowered]

    def __add__(self, other: "Header") -> "Header":
        return Header(self.slots + other.slots)

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def column_names(self) -> list[str]:
        return [column for _, column in self.slots]


@dataclass
class Scope:
    """Compile-time name resolution for one query block: its input
    header, chained to the scope of the enclosing block.

    *aggregates* maps ``id(FunctionCall)`` to a slot: after grouping,
    expressions run over the group's representative row extended by one
    value per aggregate, and read aggregate results by position.
    """

    header: Header
    outer: Optional["Scope"] = None
    aggregates: Optional[dict[int, int]] = None

    def resolve(self, node: ast.ColumnRef) -> tuple[int, int]:
        """``(depth, position)``: how many frames out, which slot."""
        scope: Optional[Scope] = self
        depth = 0
        while scope is not None:
            position = scope.header.resolve(node.name, node.table)
            if position is not None:
                return depth, position
            scope, depth = scope.outer, depth + 1
        raise CatalogError(f"unknown column {str(node)!r}")


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_regex(pattern: Any) -> re.Pattern:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = [".*" if char == "%" else "." if char == "_"
                 else re.escape(char) for char in str(pattern)]
        compiled = re.compile("^" + "".join(parts) + "$",
                              re.IGNORECASE | re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def like_match(value: Any, pattern: Any) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_``; NULL operands yield NULL."""
    if value is None or pattern is None:
        return None
    return _like_regex(pattern).match(str(value)) is not None


_NUMERIC = frozenset((int, float))
#: Exact type -> the exact types it compares with directly.  A pair
#: outside this table (NULLs, dates against ISO strings, mixed types,
#: subclasses) takes the full rules of :func:`_compare`.
SAME_KIND: dict[type, frozenset] = {
    int: _NUMERIC, float: _NUMERIC, str: frozenset((str,)),
    bool: frozenset((bool,)), datetime.date: frozenset((datetime.date,))}
_TESTS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """NULL-propagating comparison."""
    if left is None or right is None:
        return None
    left, right = _coerce_date_pair(left, right)
    if not comparable(left, right):
        # Mixed types never compare equal but are not an error for =/<>,
        # mirroring permissive engines; ordering comparisons do raise.
        if op == "=":
            return False
        if op == "<>":
            return True
        raise SqlError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    return _TESTS[op](left, right)


def iso_text_as_date(text: str) -> Any:
    """The date an ISO string spells, or the string itself."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        return text


def _coerce_date_pair(left: Any, right: Any) -> tuple[Any, Any]:
    """Promote an ISO string to a date when compared against a date
    column, the way SQL engines implicitly cast date literals."""
    if isinstance(left, datetime.date) and isinstance(right, str):
        return left, iso_text_as_date(right)
    if isinstance(right, datetime.date) and isinstance(left, str):
        return iso_text_as_date(left), right
    return left, right


def sql_equal(left: Any, right: Any) -> bool:
    """True only when the two non-NULL values are SQL-equal."""
    if type(right) in SAME_KIND.get(type(left), ()):
        return left == right
    return _compare("=", left, right) is True


def _member(value: Any, candidates: Iterable[Any], negated: bool) -> Optional[bool]:
    """Three-valued ``value [NOT] IN (candidates)``; over no candidates
    at all the answer is known even for a NULL *value*."""
    saw_null = False
    for candidate in candidates:
        if value is None or candidate is None:
            saw_null = True
        elif sql_equal(value, candidate):
            return not negated
    return None if saw_null else negated


def _arith(op: str, left: Any, right: Any) -> Any:
    """NULL-propagating arithmetic and string concatenation."""
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if not isinstance(left, (int, float)) or isinstance(left, bool) or \
            not isinstance(right, (int, float)) or isinstance(right, bool):
        raise SqlError(f"operator {op!r} requires numeric operands, "
                       f"got {left!r} and {right!r}")
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](left, right)
    if op == "/":
        if right == 0:
            raise SqlError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and result.is_integer():
            return int(result)
        return result
    if op == "%":
        if right == 0:
            raise SqlError("modulo by zero")
        return left % right
    raise SqlError(f"unknown arithmetic operator {op!r}")  # pragma: no cover


class Compiler:
    """Compiles AST expressions to closures over ``(row, frame)``.

    *plan_subquery* is a callable ``(select, scope) -> rows_of`` supplied
    by the planner; ``rows_of(frame)`` runs the nested block.
    """

    def __init__(self, plan_subquery: Callable[[ast.Select, Scope],
                                               Callable[[Frame], list[tuple]]]):
        self._plan_subquery = plan_subquery

    def compile(self, node: ast.Expression, scope: Scope) -> Compiled:
        build = self._BUILDERS.get(type(node))
        if build is None:
            raise SqlError(f"cannot evaluate {type(node).__name__}")
        return build(self, node, scope)

    # -- leaf nodes -----------------------------------------------------------

    def _literal(self, node: ast.Literal, scope: Scope) -> Compiled:
        value = node.value
        return lambda row, frame: value

    def _column(self, node: ast.ColumnRef, scope: Scope) -> Compiled:
        depth, position = scope.resolve(node)
        if depth == 0:
            return lambda row, frame: row[position]

        def outer(row, frame):
            for __ in range(depth - 1):
                frame = frame[2]
            return frame[1][position]
        return outer

    def _param(self, node: ast.Param, scope: Scope) -> Compiled:
        index = node.index

        def param(row, frame):
            try:
                return frame[0][index]
            except IndexError:
                raise SqlError(f"missing value for parameter {index + 1}") from None
        return param

    def _star(self, node: ast.Star, scope: Scope) -> Compiled:
        raise SqlError("* is only valid in a select list or COUNT(*)")

    # -- operators ---------------------------------------------------------------

    def _unary(self, node: ast.Unary, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        op = node.op
        if op == "NOT":
            def negate(row, frame):
                value = operand(row, frame)
                return None if value is None else value is not True
            return negate

        def sign(row, frame):
            value = operand(row, frame)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SqlError(f"unary {op} requires a number, got {value!r}")
            return -value if op == "-" else value
        return sign

    def _binary(self, node: ast.Binary, scope: Scope) -> Compiled:
        op = node.op
        if op in _TESTS:
            return self._comparison(node, scope)
        left = self.compile(node.left, scope)
        right = self.compile(node.right, scope)
        if op == "AND":
            def conjunction(row, frame):
                a = left(row, frame)
                if a is False:
                    return False
                b = right(row, frame)
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return a is True and b is True
            return conjunction
        if op == "OR":
            def disjunction(row, frame):
                a = left(row, frame)
                if a is True:
                    return True
                b = right(row, frame)
                if b is True:
                    return True
                if a is None or b is None:
                    return None
                return False
            return disjunction
        return lambda row, frame: _arith(op, left(row, frame), right(row, frame))

    def _comparison(self, node: ast.Binary, scope: Scope) -> Compiled:
        op, test = node.op, _TESTS[node.op]
        slot = self.local_slot(node.left, scope)
        if slot is not None and isinstance(node.right, ast.Literal) \
                and type(node.right.value) in SAME_KIND:
            # The common shape, column <op> constant, in one call per row.
            constant = node.right.value
            kinds = SAME_KIND[type(constant)]

            def column_to_constant(row, frame):
                a = row[slot]
                if type(a) in kinds:
                    return test(a, constant)
                return _compare(op, a, constant)
            return column_to_constant
        left = self.compile(node.left, scope)
        right = self.compile(node.right, scope)

        def comparison(row, frame):
            a = left(row, frame)
            b = right(row, frame)
            if type(b) in SAME_KIND.get(type(a), ()):
                return test(a, b)
            return _compare(op, a, b)
        return comparison

    @staticmethod
    def local_slot(node: ast.Expression, scope: Scope) -> Optional[int]:
        """Slot of *node* when it is a column of the current row."""
        if isinstance(node, ast.ColumnRef):
            depth, position = scope.resolve(node)
            if depth == 0:
                return position
        return None

    def _is_null(self, node: ast.IsNull, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        negated = node.negated
        return lambda row, frame: (operand(row, frame) is None) != negated

    def _between(self, node: ast.Between, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        low = self.compile(node.low, scope)
        high = self.compile(node.high, scope)
        negated = node.negated

        def decide(value, lower, upper):
            kinds = SAME_KIND.get(type(value), ())
            if type(lower) in kinds and type(upper) in kinds:
                return (lower <= value <= upper) != negated
            # value >= lower AND value <= upper, three-valued: a false
            # side decides even when the other is NULL.
            above = _compare(">=", value, lower)
            below = _compare("<=", value, upper)
            if above is False or below is False:
                return negated
            if above is None or below is None:
                return None
            return not negated

        slot = self.local_slot(node.operand, scope)
        if slot is not None and isinstance(node.low, ast.Literal) \
                and isinstance(node.high, ast.Literal):
            lower, upper = node.low.value, node.high.value
            return lambda row, frame: decide(row[slot], lower, upper)
        return lambda row, frame: decide(operand(row, frame), low(row, frame),
                                         high(row, frame))

    def _like(self, node: ast.Like, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        negated = node.negated
        if isinstance(node.pattern, ast.Literal) and node.pattern.value is not None:
            matches = _like_regex(node.pattern.value).match

            def like_constant(row, frame):
                value = operand(row, frame)
                if value is None:
                    return None
                return (matches(str(value)) is not None) != negated
            return like_constant
        pattern = self.compile(node.pattern, scope)

        def like(row, frame):
            result = like_match(operand(row, frame), pattern(row, frame))
            return None if result is None else result != negated
        return like

    def _in_list(self, node: ast.InList, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        negated = node.negated
        if all(isinstance(item, ast.Literal) for item in node.items):
            constants = tuple(item.value for item in node.items)
            return lambda row, frame: _member(operand(row, frame), constants,
                                              negated)
        items = [self.compile(item, scope) for item in node.items]
        # A generator, so items after a match are not evaluated.
        return lambda row, frame: _member(
            operand(row, frame), (item(row, frame) for item in items), negated)

    def _in_subquery(self, node: ast.InSubquery, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        rows_of = self._plan_subquery(node.subquery, scope)
        negated = node.negated
        return lambda row, frame: _member(
            operand(row, frame),
            [found[0] for found in rows_of((frame[0], row, frame))], negated)

    def _exists(self, node: ast.Exists, scope: Scope) -> Compiled:
        rows_of = self._plan_subquery(node.subquery, scope)
        negated = node.negated
        return lambda row, frame: \
            bool(rows_of((frame[0], row, frame))) != negated

    def _scalar_subquery(self, node: ast.ScalarSubquery, scope: Scope) -> Compiled:
        rows_of = self._plan_subquery(node.subquery, scope)

        def scalar(row, frame):
            rows = rows_of((frame[0], row, frame))
            if not rows:
                return None
            if len(rows) > 1:
                raise SqlError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise SqlError("scalar subquery must return exactly one column")
            return rows[0][0]
        return scalar

    def _case(self, node: ast.Case, scope: Scope) -> Compiled:
        # CASE x WHEN v THEN ... is CASE WHEN x = v THEN ...
        arms = [(self.compile(when.condition if node.operand is None else
                              ast.Binary("=", node.operand, when.condition), scope),
                 self.compile(when.result, scope)) for when in node.whens]
        default = self.compile(node.default, scope) \
            if node.default is not None else (lambda row, frame: None)

        def case(row, frame):
            for condition, result in arms:
                if condition(row, frame) is True:
                    return result(row, frame)
            return default(row, frame)
        return case

    def _cast(self, node: ast.Cast, scope: Scope) -> Compiled:
        operand = self.compile(node.operand, scope)
        target = TYPE_SYNONYMS.get(node.type_name)
        if target is None:
            raise SqlError(f"CAST to unknown type {node.type_name!r}")
        return lambda row, frame: coerce(operand(row, frame), target)

    def _function(self, node: ast.FunctionCall, scope: Scope) -> Compiled:
        if is_aggregate(node.name):
            if scope.aggregates is None or id(node) not in scope.aggregates:
                raise SqlError(
                    f"aggregate {node.name} used outside GROUP BY context")
            slot = scope.aggregates[id(node)]
            return lambda row, frame: row[slot]
        fn = SCALAR_FUNCTIONS.get(node.name)
        if fn is None:
            raise SqlError(f"unknown function {node.name}")
        args = [self.compile(arg, scope) for arg in node.args]
        return lambda row, frame: fn(*[arg(row, frame) for arg in args])

    _BUILDERS = {
        ast.Literal: _literal, ast.ColumnRef: _column, ast.Param: _param,
        ast.Star: _star, ast.Unary: _unary, ast.Binary: _binary,
        ast.IsNull: _is_null, ast.Between: _between, ast.Like: _like,
        ast.InList: _in_list, ast.InSubquery: _in_subquery,
        ast.Exists: _exists, ast.ScalarSubquery: _scalar_subquery,
        ast.Case: _case, ast.Cast: _cast, ast.FunctionCall: _function,
    }
