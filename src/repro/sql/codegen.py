"""Query pipelines compiled to Python source.

Each per-row loop of a plan (scan + filter, projection, hash-join keys,
GROUP BY bucketing, aggregate arguments) is one generated function over
a list of rows; any other expression is a ``fn(row, frame)``.  A hot row
runs the column read, the :data:`SAME_KIND` check and the operator
inline; NULLs, mixed kinds and dates against ISO text take the full
rules of :mod:`repro.sql.expressions`.  Subqueries, scalar functions,
CAST and LIKE are calls to helpers.  Source is generated per plan
*shape*: constants, kind sets and helpers are parameters of a factory
(``c0``, ``k1``, ``f2`` ...), column positions ints and operators from
fixed tables, so no identifier or literal text is spliced into source.
The literals of a statement's shape are :class:`~repro.sql.ast.Slot`
reads of the frame, and the engine caches the plan per shape: code is
generated for a shape once.  A function over a whole list of rows reads
each slot once, into a local at its top (``s0 = frame[3][0]``); one
over a single row reads it where it is used.  AND, OR and arithmetic
chains are generated flat, nesting no deeper than the parser lets a
statement.
"""

from __future__ import annotations

import datetime
import functools
from typing import Any, Callable, Sequence, Union

from repro.errors import SqlError
from repro.sql import ast
from repro.sql.expressions import (SAME_KIND, Compiled, Frame, Scope,
                                   _arith, _between, _compare, _member,
                                   iso_text_as_date, like_match)
from repro.sql.functions import SCALAR_FUNCTIONS, is_aggregate
from repro.sql.lexer import kind_of
from repro.sql.types import TYPE_SYNONYMS, coerce

#: Compiled factories kept, least recently used first out: the size of
#: the engine's statement cache (of shapes) and the WebTassili parse cache.
CACHE_SIZE = 512

#: A generated loop: ``fn(rows, frame)`` over a whole list of rows.
RowsFn = Callable[[Sequence[Sequence], Frame], Any]
#: What an emitted row expression reads: an AST node, or a slot of the row.
Item = Union[ast.Expression, int]

_PYTHON_TESTS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
                 ">=": ">="}
_ARITHMETIC = frozenset(("+", "-", "*", "/", "%", "||"))
_PREDICATES = (ast.IsNull, ast.Between, ast.Like, ast.InList,
               ast.InSubquery, ast.Exists)
#: The operators (of a Binary, or NOT of a Unary) whose value is a truth.
_LOGIC = frozenset((*_PYTHON_TESTS, "AND", "OR", "NOT"))


def _param(frame: Frame, index: int) -> Any:
    try:
        return frame[0][index]
    except IndexError:
        raise SqlError(f"missing value for parameter {index + 1}") from None


def _signed(op: str, value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlError(f"unary {op} requires a number, got {value!r}")
    return -value if op == "-" else value


def _scalar(rows: list[tuple]) -> Any:
    if not rows:
        return None
    if len(rows) > 1:
        raise SqlError("scalar subquery returned more than one row")
    if len(rows[0]) != 1:
        raise SqlError("scalar subquery must return exactly one column")
    return rows[0][0]


#: The fixed names generated source may call besides its parameters.
_GLOBALS = {
    "_SAME_KIND": SAME_KIND, "_compare": _compare, "_arith": _arith,
    "_between": _between, "_member": _member, "_param": _param,
    "_signed": _signed, "_like_match": like_match, "_scalar": _scalar,
    "_coerce": coerce, "_join_key": lambda key: None if None in key
    or any(part != part for part in key) else key,  # NaN joins nothing
    "_as_date": lambda key: iso_text_as_date(key) if type(key) is str else key}


@functools.lru_cache(maxsize=CACHE_SIZE)
def _factory(source: str) -> Callable:
    """The ``make`` function *source* defines, compiled once per text."""
    namespace = dict(_GLOBALS)
    try:  # a CASE of thousands of arms nests too deep for Python
        code = compile(source, "<sql pipeline>", "exec")
    except (RecursionError, MemoryError, SyntaxError):
        raise SqlError("expression too large to compile") from None
    exec(code, namespace)
    return namespace["make"]


#: Function bodies, each ``make``'s inner part; ``{}`` is emitted source
#: and ``{slots}`` the slot reads at the top of a whole-rows function.
#: The filter's ``test``, a row's, reads them at its top as well: it is
#: emitted from the same source as ``keep``.
_EXPRESSION = "  def fn(r, frame):\n    return {}\n  return fn"
_MAP = ("  def fn(rows, frame):\n{slots}    return [{} for r in rows]\n"
        "  return fn")
_FILTER = ("  def keep(rows, frame):\n{slots}"
           "    return [tuple(r) for r in rows if {0}]\n"
           "  def test(r, frame):\n{slots}    return {0}\n"
           "  return keep, test")
_GROUPS = ("  def fn(rows, frame):\n{slots}    groups = {{}}\n"
           "    for r in rows:\n"
           "      key = {}\n      group = groups.get(key)\n"
           "      if group is None:\n        groups[key] = [r]\n"
           "      else:\n        group.append(r)\n    return groups\n"
           "  return fn")


class _Emitter:
    """The source of one generated function, and the objects its
    factory parameters bind.  Over whole rows (*rows*), a slot is read
    as the local ``s<index>``; :meth:`build` binds each one read."""

    def __init__(self, plan_subquery, rows: bool = False):
        self._plan_subquery = plan_subquery
        self._rows = rows
        self.names: list[str] = []
        self.values: list[Any] = []
        self.slots: dict[int, None] = {}
        self._temps = 0

    def bind(self, value: Any, prefix: str = "c") -> str:
        name = f"{prefix}{len(self.values)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def build(self, body: str, *sources: str) -> Any:
        head = f"def make({', '.join(self.names)}):\n"
        slots = "".join(f"    s{index} = frame[3][{index}]\n"
                        for index in self.slots)
        return _factory(head + body.format(*sources, slots=slots))(
            *self.values)

    def value(self, node: Item, scope: Scope) -> str:
        """Source evaluating *node* over row ``r`` and ``frame``."""
        if isinstance(node, int):
            return f"r[{node}]"
        emit = _EMIT.get(type(node))
        if emit is None:
            raise SqlError(f"cannot evaluate {type(node).__name__}")
        return emit(self, node, scope)

    def test(self, node: ast.Expression, scope: Scope) -> str:
        """Source that is truthy exactly when *node* is TRUE."""
        if isinstance(node, ast.Binary) and node.op in ("AND", "OR"):
            joiner = " and " if node.op == "AND" else " or "
            return "(" + joiner.join(self.test(operand, scope)
                                     for operand in _chain(node)) + ")"
        if isinstance(node, ast.Unary) and node.op == "NOT" \
                and _is_predicate(node.operand):
            return f"({self.value(node.operand, scope)} is False)"
        if isinstance(node, ast.Binary) and node.op == "=":
            return self.comparison(node, scope, test=True)
        source = self.value(node, scope)
        return source if _is_predicate(node) else f"({source} is True)"

    def tuple(self, items: Sequence[Item], scope: Scope) -> str:
        return "(" + "".join(self.value(item, scope) + ", "
                             for item in items) + ")"

    def conjunction(self, nodes: Sequence[ast.Expression], scope: Scope
                    ) -> str:
        return " and ".join(self.test(node, scope) for node in nodes)

    def subquery(self, select: ast.Select, scope: Scope) -> str:
        """A call running the nested block with row ``r`` pushed."""
        rows_of = self.bind(self._plan_subquery(select, scope), "f")
        return f"{rows_of}((frame[0], r, frame, frame[3]))"

    # -- leaf nodes -----------------------------------------------------------

    def emit_Literal(self, node: ast.Literal, scope: Scope) -> str:
        return self.bind(node.value)

    def emit_ColumnRef(self, node: ast.ColumnRef, scope: Scope) -> str:
        depth, position = scope.resolve(node)
        if depth == 0:
            return f"r[{position}]"
        return "frame" + "[2]" * (depth - 1) + f"[1][{position}]"

    def emit_Param(self, node: ast.Param, scope: Scope) -> str:
        return f"_param(frame, {int(node.index)})"

    def emit_Slot(self, node: ast.Slot, scope: Scope) -> str:
        index = int(node.index)
        if not self._rows:
            return f"frame[3][{index}]"
        self.slots[index] = None
        return f"s{index}"

    def emit_Star(self, node: ast.Star, scope: Scope) -> str:
        raise SqlError("* is only valid in a select list or COUNT(*)")

    # -- operators ------------------------------------------------------------

    def emit_Unary(self, node: ast.Unary, scope: Scope) -> str:
        operand = self.value(node.operand, scope)
        if node.op == "NOT":
            t = self.temp()
            return f"(None if ({t} := {operand}) is None else {t} is not True)"
        sign = {"-": "'-'", "+": "'+'"}[node.op]
        return f"_signed({sign}, {operand})"

    def emit_Binary(self, node: ast.Binary, scope: Scope) -> str:
        op = node.op
        if op in _PYTHON_TESTS:
            return self.comparison(node, scope)
        if op in ("AND", "OR"):
            return self.logic(node, scope)
        if op not in _ARITHMETIC:
            raise SqlError(f"unknown arithmetic operator {op!r}")
        # a + b - c: one step per operator, each result in a temp.
        steps, spine = [], node
        while isinstance(spine, ast.Binary) and spine.op in _ARITHMETIC:
            steps.append(spine)
            spine = spine.left
        source, parts = self.value(spine, scope), []
        for step in reversed(steps):
            parts.append(f"_arith({step.op!r}, {source}, "
                         f"{self.value(step.right, scope)})")
            if step is not node:
                source = self.temp()
                parts[-1] = f"{source} := {parts[-1]}"
        return parts[0] if len(parts) == 1 else f"({', '.join(parts)})[-1]"

    def logic(self, node: ast.Binary, scope: Scope) -> str:
        """Three-valued AND / OR of a whole chain: decided by the first
        operand that is FALSE (AND) or TRUE (OR), else NULL if one was."""
        operands = _chain(node)
        if node.op == "AND" and not all(map(_is_predicate, operands)):
            # Over values that are not truths, AND is the pairwise fold.
            left, right = (self.value(node.left, scope),
                           self.value(node.right, scope))
            a, b = self.temp(), self.temp()
            return (f"(False if ({a} := {left}) is False else False if "
                    f"({b} := {right}) is False else None if {a} is None or "
                    f"{b} is None else {a} is True and {b} is True)")
        decisive = node.op == "OR"
        temps = [self.temp() for __ in operands]
        return (f"({decisive} if (" + " or ".join(
            f"({t} := {self.value(operand, scope)}) is {decisive}"
            for t, operand in zip(temps, operands)) + ") else None if ("
            + " or ".join(f"{t} is None" for t in temps)
            + f") else {not decisive})")

    def comparison(self, node: ast.Binary, scope: Scope,
                   test: bool = False) -> str:
        """``a <op> b``; between columns and constants, whose reads cost
        nothing and cannot fail, the same-kind test and the operator
        run inline and the full rules only on the rare branch.  As a
        *test*, ``x = constant`` checks the kind only when Python's ==
        holds, if no value of another kind can equal the constant: one
        that is not text spelling a date."""
        op, left, right = node.op, node.left, node.right
        a, b = self.value(left, scope), self.value(right, scope)
        fallback = f"_compare({op!r}, {a}, {b})"
        if not (isinstance(left, _SIMPLE) and isinstance(right, _SIMPLE)):
            return fallback
        constant, other = (right, a) if isinstance(right, _CONSTANTS) \
            else (left, b)
        value_type, dated = _constant(constant)
        if value_type in SAME_KIND:
            check = f"type({other}) in {self.bind(SAME_KIND[value_type], 'k')}"
            if test and op == "=" and not dated:
                return f"({a} == {b} and ({check} or {fallback}))"
        else:
            check = f"type({b}) in _SAME_KIND.get(type({a}), ())"
        return f"({a} {_PYTHON_TESTS[op]} {b} if {check} else {fallback})"

    def emit_IsNull(self, node: ast.IsNull, scope: Scope) -> str:
        test = "is not" if node.negated else "is"
        return f"({self.value(node.operand, scope)} {test} None)"

    def emit_Between(self, node: ast.Between, scope: Scope) -> str:
        operand, low, high = (self.value(part, scope) for part in
                              (node.operand, node.low, node.high))
        negated = bool(node.negated)
        fallback = f"_between({operand}, {low}, {high}, {negated})"
        kinds = SAME_KIND.get(_constant(node.low)[0], ())
        if isinstance(node.operand, _SIMPLE) \
                and _constant(node.high)[0] in kinds:
            inside = f"({low} <= {operand} <= {high})"
            return (f"({'not ' if negated else ''}{inside} if type({operand})"
                    f" in {self.bind(kinds, 'k')} else {fallback})")
        return fallback

    def emit_Like(self, node: ast.Like, scope: Scope) -> str:
        operand = self.value(node.operand, scope)
        negated = bool(node.negated)
        t = self.temp()
        return (f"(None if ({t} := _like_match({operand}, "
                f"{self.value(node.pattern, scope)})) is None else {t} != {negated})")

    def emit_InList(self, node: ast.InList, scope: Scope) -> str:
        operand = self.value(node.operand, scope)
        negated = bool(node.negated)
        if all(isinstance(item, _CONSTANTS) for item in node.items):
            return f"_member({operand}, {self.tuple(node.items, scope)}, " \
                   f"{negated})"
        # A generator, so items after a match are not evaluated.
        items = [self.value(item, scope) for item in node.items]
        chosen = items[-1]
        for index in range(len(items) - 2, -1, -1):
            chosen = f"{items[index]} if i == {index} else {chosen}"
        return (f"_member({operand}, ({chosen} for i in "
                f"range({len(items)})), {negated})")

    def emit_InSubquery(self, node: ast.InSubquery, scope: Scope) -> str:
        operand = self.value(node.operand, scope)
        return (f"_member({operand}, [found[0] for found in "
                f"{self.subquery(node.subquery, scope)}], {bool(node.negated)})")

    def emit_Exists(self, node: ast.Exists, scope: Scope) -> str:
        return f"({'not' if node.negated else 'not not'} " \
               f"{self.subquery(node.subquery, scope)})"

    def emit_ScalarSubquery(self, node: ast.ScalarSubquery, scope: Scope) -> str:
        return f"_scalar({self.subquery(node.subquery, scope)})"

    def emit_Case(self, node: ast.Case, scope: Scope) -> str:
        # CASE x WHEN v THEN ... is CASE WHEN x = v THEN ...
        source = "None" if node.default is None \
            else self.value(node.default, scope)
        arms = [(self.test(when.condition if node.operand is None else
                           ast.Binary("=", node.operand, when.condition), scope),
                 self.value(when.result, scope)) for when in node.whens]
        return "(" + "".join(f"{result} if {condition} else "
                             for condition, result in arms) + source + ")"

    def emit_Cast(self, node: ast.Cast, scope: Scope) -> str:
        target = TYPE_SYNONYMS.get(node.type_name)
        if target is None:
            raise SqlError(f"CAST to unknown type {node.type_name!r}")
        return f"_coerce({self.value(node.operand, scope)}, {self.bind(target)})"

    def emit_FunctionCall(self, node: ast.FunctionCall, scope: Scope) -> str:
        if is_aggregate(node.name):
            if scope.aggregates is None or id(node) not in scope.aggregates:
                raise SqlError(
                    f"aggregate {node.name} used outside GROUP BY context")
            return f"r[{scope.aggregates[id(node)]}]"
        fn = SCALAR_FUNCTIONS.get(node.name)
        if fn is None:
            raise SqlError(f"unknown function {node.name}")
        args = ", ".join(self.value(arg, scope) for arg in node.args)
        return f"{self.bind(fn, 'f')}({args})"


#: AST node class -> its ``emit_<ClassName>`` method.
_EMIT = {getattr(ast, name[5:]): method for name, method in vars(_Emitter).items()
         if name.startswith("emit_")}


_CONSTANTS = (ast.Literal, ast.Slot)
#: Operands whose reads cost nothing and cannot fail.
_SIMPLE = (ast.ColumnRef, *_CONSTANTS)


def _constant(node: ast.Expression) -> tuple[Any, bool]:
    """``(type, dated)`` of a constant's value: its type, and whether it
    is a date or text spelling one; ``(None, False)`` for another node."""
    kind = node.kind if isinstance(node, ast.Slot) else kind_of(node.value) \
        if isinstance(node, ast.Literal) else None
    return (str, True) if kind == "date" else (kind, kind is datetime.date)


def _chain(node: ast.Binary) -> list[ast.Expression]:
    """The operands of the chain of ``node.op`` down *node*'s left side:
    the parser makes ``a OR b OR c`` ``(a OR b) OR c``."""
    operands = []
    op = node.op
    while isinstance(node, ast.Binary) and node.op == op:
        operands.append(node.right)
        node = node.left
    operands.append(node)
    return operands[::-1]


def _is_predicate(node: ast.Expression) -> bool:
    """True when *node* evaluates to TRUE, FALSE or NULL only."""
    return isinstance(node, _PREDICATES) or getattr(node, "op", None) in _LOGIC


class Codegen:
    """Compiles a plan's expressions and per-row loops to functions.

    *plan_subquery* is a callable ``(select, scope) -> rows_of`` supplied
    by the planner; ``rows_of(frame)`` runs the nested block.
    """

    def __init__(self, plan_subquery: Callable[[ast.Select, Scope],
                                               Callable[[Frame], list[tuple]]]):
        self._plan_subquery = plan_subquery

    def expression(self, node: ast.Expression, scope: Scope,
                   as_date: bool = False) -> Compiled:
        """``fn(row, frame)`` -> *node*'s value; *as_date*: an ISO string
        as the date it spells (a DATE index's probe key)."""
        emit = _Emitter(self._plan_subquery)
        source = emit.value(node, scope)
        return emit.build(_EXPRESSION,
                          f"_as_date({source})" if as_date else source)

    def row(self, nodes: Sequence[ast.Expression], scope: Scope) -> Compiled:
        """``fn(row, frame)`` -> the tuple of *nodes*' values."""
        emit = _Emitter(self._plan_subquery)
        return emit.build(_EXPRESSION, emit.tuple(nodes, scope))

    def predicate(self, nodes: Sequence[ast.Expression], scope: Scope
                  ) -> Compiled:
        """``fn(row, frame)``, truthy when every one of *nodes* is TRUE."""
        emit = _Emitter(self._plan_subquery)
        return emit.build(_EXPRESSION, emit.conjunction(nodes, scope))

    def filter(self, nodes: Sequence[ast.Expression], scope: Scope
               ) -> tuple[RowsFn, Compiled]:
        """``(keep, test)``: ``keep(rows, frame)`` copies to tuples the
        rows that pass :meth:`predicate`, which ``test`` is."""
        emit = _Emitter(self._plan_subquery, rows=True)
        return emit.build(_FILTER, emit.conjunction(nodes, scope))

    def rows(self, items: Sequence[Item], scope: Scope) -> RowsFn:
        """``fn(rows, frame)`` -> a tuple of *items* per row."""
        emit = _Emitter(self._plan_subquery, rows=True)
        return emit.build(_MAP, emit.tuple(items, scope))

    def values(self, node: ast.Expression, scope: Scope) -> RowsFn:
        """``fn(rows, frame)`` -> *node*'s value per row."""
        emit = _Emitter(self._plan_subquery, rows=True)
        return emit.build(_MAP, emit.value(node, scope))

    def join_keys(self, nodes: Sequence[ast.Expression], scope: Scope,
                  as_date: bool = False) -> RowsFn:
        """``fn(rows, frame)`` -> a join key per row; None when a part is
        NULL, or a composite key's part NaN: neither joins anything.
        *as_date*: one key, an ISO string as the date it spells (a
        probe key of a DATE index)."""
        emit = _Emitter(self._plan_subquery, rows=True)
        if len(nodes) > 1:
            return emit.build(_MAP, f"_join_key({emit.tuple(nodes, scope)})")
        source = emit.value(nodes[0], scope)
        return emit.build(_MAP, f"_as_date({source})" if as_date else source)

    def groups(self, nodes: Sequence[ast.Expression], scope: Scope) -> RowsFn:
        """``fn(rows, frame)`` -> ``{group key: rows}``, first seen first."""
        emit = _Emitter(self._plan_subquery, rows=True)
        return emit.build(_GROUPS, emit.value(nodes[0], scope)
                          if len(nodes) == 1 else emit.tuple(nodes, scope))
