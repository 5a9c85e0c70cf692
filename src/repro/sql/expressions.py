"""Expression semantics: name resolution and the full SQL rules.

Column references resolve to slot positions against a :class:`Scope`
at plan time (so an unknown or ambiguous name is an error whatever the
data).  The functions here are the full rules — NULL-propagating
comparisons and arithmetic, dates against ISO text, LIKE, IN, BETWEEN
— that the code :mod:`repro.sql.codegen` generates calls on the rare
branch, behind its inline same-kind fast path.

A *frame* is all that varies between executions: ``(params, outer_row,
outer_frame, literals)``, the ``?`` bindings, the chain of enclosing
rows a correlated subquery reads and the values of the statement's
literals (the slots of its shape).  Generated functions hold none of
it, so one plan serves concurrent and nested executions alike.
"""

from __future__ import annotations

import datetime
import functools
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import CatalogError, SqlError
from repro.sql import ast
from repro.sql.types import SqlType, comparable

Frame = tuple  # (params, outer_row, outer_frame, literals)
Compiled = Callable[[Sequence, Frame], Any]


class Header:
    """The column layout of an intermediate relation.

    Each slot is a ``(binding, column_name)`` pair; *binding* is the
    table alias (or None for computed columns).  *kinds* holds each
    slot's :class:`~repro.sql.types.SqlType` when the slot carries a
    base table column's stored cells (every non-null one exactly
    ``STORED_AS[kind]``), else None.  Lookup resolves both qualified
    (``t.c``) and bare (``c``) references, raising on ambiguity as a
    real engine would.
    """

    def __init__(self, slots: list[tuple[Optional[str], str]],
                 kinds: Optional[list[Optional[SqlType]]] = None):
        self.slots = slots
        self.kinds = [None] * len(slots) if kinds is None else kinds
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

    def pick(self, positions: list[int]) -> "Header":
        """The header of the slots at *positions*, in that order."""
        return Header([self.slots[i] for i in positions],
                      [self.kinds[i] for i in positions])

    def __add__(self, other: "Header") -> "Header":
        return Header(self.slots + other.slots, self.kinds + other.kinds)

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


@functools.lru_cache(maxsize=512)  # patterns are user input: bounded
def _like_regex(pattern: str) -> re.Pattern:
    parts = [".*" if char == "%" else "." if char == "_"
             else re.escape(char) for char in pattern]
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


def like_match(value: Any, pattern: Any) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_``; NULL operands yield NULL."""
    if value is None or pattern is None:
        return None
    return _like_regex(str(pattern)).match(str(value)) is not None


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


def _between(value: Any, lower: Any, upper: Any, negated: bool
             ) -> Optional[bool]:
    """Three-valued ``value [NOT] BETWEEN lower AND upper``."""
    kinds = SAME_KIND.get(type(value), ())
    if type(lower) in kinds and type(upper) in kinds:
        return (lower <= value <= upper) != negated
    # value >= lower AND value <= upper, three-valued: a false side
    # decides even when the other is NULL.
    above = _compare(">=", value, lower)
    below = _compare("<=", value, upper)
    if above is False or below is False:
        return negated
    if above is None or below is None:
        return None
    return not negated


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
