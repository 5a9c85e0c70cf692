"""EXPLAIN rendering: a human-readable description of a plan — the
very object the engine caches and the executor runs.

``EXPLAIN <statement>`` returns one row per plan line, e.g.::

    Select
      HashJoin[INNER] on o.customer = c.id
        IndexLookup(orders) key=(status)
        Filter: o.amount > 100
        SeqScan(customers) as c
      Aggregate: group by c.region

A ``Filter:`` line applies to the node just above it at the same depth.
"""

from __future__ import annotations

from repro.sql import ast
from repro.sql.planner import (DerivedTable, FilteredSource, HashJoin,
                               IndexLookup, InsertPlan, ModifyPlan,
                               NestedLoopJoin, RowSource, SelectPlan,
                               TableScan, UnionPlan)


def _render_expression(expression: ast.Expression) -> str:
    if isinstance(expression, ast.Literal):
        return repr(expression.value)
    if isinstance(expression, ast.ColumnRef):
        return str(expression)
    if isinstance(expression, ast.Param):
        return "?"
    if isinstance(expression, ast.Unary):
        return f"{expression.op} {_render_expression(expression.operand)}"
    if isinstance(expression, ast.Binary):
        return (f"{_render_expression(expression.left)} {expression.op} "
                f"{_render_expression(expression.right)}")
    if isinstance(expression, ast.IsNull):
        negation = " NOT" if expression.negated else ""
        return f"{_render_expression(expression.operand)} IS{negation} NULL"
    if isinstance(expression, ast.Like):
        return (f"{_render_expression(expression.operand)} LIKE "
                f"{_render_expression(expression.pattern)}")
    if isinstance(expression, ast.Between):
        return (f"{_render_expression(expression.operand)} BETWEEN "
                f"{_render_expression(expression.low)} AND "
                f"{_render_expression(expression.high)}")
    if isinstance(expression, ast.InList):
        items = ", ".join(_render_expression(i) for i in expression.items)
        return f"{_render_expression(expression.operand)} IN ({items})"
    if isinstance(expression, ast.FunctionCall):
        args = ", ".join(_render_expression(a) for a in expression.args)
        return f"{expression.name}({args})"
    if isinstance(expression, ast.Star):
        return "*"
    if isinstance(expression, ast.Cast):
        return (f"CAST({_render_expression(expression.operand)} AS "
                f"{expression.type_name})")
    if isinstance(expression, (ast.ScalarSubquery, ast.InSubquery,
                               ast.Exists)):
        return "(subquery)"
    if isinstance(expression, ast.Case):
        return "CASE ... END"
    return type(expression).__name__


def _render_source(source: RowSource, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(source, FilteredSource):
        _render_source(source.child, indent, lines)
        lines.append(f"{pad}Filter: " + " AND ".join(
            _render_expression(conjunct) for conjunct in source.conjuncts))
    elif isinstance(source, TableScan):
        lines.append(f"{pad}SeqScan({source.name})"
                     + (f" as {source.binding}"
                        if source.binding != source.name else ""))
    elif isinstance(source, IndexLookup):
        lines.append(f"{pad}IndexLookup({source.name}) key=({source.column})")
    elif isinstance(source, DerivedTable):
        lines.append(f"{pad}Derived({source.binding})")
        lines.extend(f"{pad}  {line}" for line in _query_lines(source.plan))
    elif isinstance(source, HashJoin):
        keys = ", ".join(
            f"{_render_expression(l)} = {_render_expression(r)}"
            for l, r in zip(source.left_keys, source.right_keys))
        lines.append(f"{pad}HashJoin[{source.kind}] on {keys}")
        _render_source(source.left, indent + 1, lines)
        _render_source(source.right, indent + 1, lines)
    elif isinstance(source, NestedLoopJoin):
        condition = (f" on {_render_expression(source.condition)}"
                     if source.condition is not None else "")
        using = f" using ({', '.join(source.using)})" if source.using else ""
        lines.append(f"{pad}NestedLoop[{source.kind}]{condition}{using}")
        _render_source(source.left, indent + 1, lines)
        _render_source(source.right, indent + 1, lines)
    # SingleRow (SELECT without FROM) has no line of its own.


def explain_lines(statement: ast.Statement, plan) -> list[str]:
    """Plan description lines; *plan* is None for statements that are
    not planned (DDL, transaction control)."""
    if isinstance(plan, (SelectPlan, UnionPlan)):
        return _query_lines(plan)
    if isinstance(plan, InsertPlan):
        return [f"Insert({plan.name})"]
    if isinstance(plan, ModifyPlan):
        verb = "Delete" if plan.assignments is None else "Update"
        lines = [f"{verb}({plan.name})"]
        _render_source(plan.source, 1, lines)
        return lines
    return [type(statement).__name__]


def _query_lines(plan) -> list[str]:
    if isinstance(plan, UnionPlan):
        lines = [f"Union[{'ALL' if plan.union.all else 'DISTINCT'}]"]
        for side in (plan.left, plan.right):
            lines.extend(f"  {line}" for line in _query_lines(side))
        return lines
    select = plan.select
    lines = ["Select" + (" DISTINCT" if select.distinct else "")]
    _render_source(plan.source, 1, lines)
    if select.group_by:
        keys = ", ".join(_render_expression(e) for e in select.group_by)
        lines.append(f"  Aggregate: group by {keys}")
    elif plan.aggregates is not None:
        lines.append("  Aggregate: scalar")
    if select.having is not None:
        lines.append(f"  Having: {_render_expression(select.having)}")
    if select.order_by:
        keys = ", ".join(
            f"{_render_expression(o.expression)}"
            f"{'' if o.ascending else ' DESC'}" for o in select.order_by)
        lines.append(f"  Sort: {keys}")
    if select.limit is not None:
        lines.append(f"  Limit: {_render_expression(select.limit)}")
    return lines
