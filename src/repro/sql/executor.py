"""Plan execution for the relational engine.

The executor runs the plan objects of :mod:`repro.sql.planner`.  SELECT
processing follows the textbook pipeline::

    row source (scans, probes, joins, WHERE filters)
        -> GROUP BY/aggregate -> HAVING
        -> projection -> DISTINCT -> ORDER BY -> LIMIT/OFFSET

A correlated subquery is a nested plan, run with the enclosing row
pushed onto the *frame* ``(params, outer_row, outer_frame)``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import IntegrityError, SqlError
from repro.sql.expressions import SAME_KIND, Compiled, Frame, sql_equal
from repro.sql.planner import (DerivedTable, FilteredSource, HashJoin,
                               IndexLookup, InsertPlan, ModifyPlan,
                               NestedLoopJoin, OrderKey, QueryPlan, RowSource,
                               SelectPlan, SingleRow, TableScan, UnionPlan)
from repro.sql.result import ResultSet
from repro.sql.storage import Row


def execute_plan(plan, params: Optional[Sequence[Any]]) -> ResultSet:
    """Run any planned statement with its ``?`` bindings."""
    frame: Frame = (params or (), None, None)
    if isinstance(plan, (SelectPlan, UnionPlan)):
        return ResultSet(columns=plan.columns, rows=run_query(plan, frame))
    if isinstance(plan, InsertPlan):
        return ResultSet.empty(_insert(plan, frame))
    assert isinstance(plan, ModifyPlan)
    return ResultSet.empty(_modify(plan, frame))


def run_query(plan: QueryPlan, frame: Frame) -> list[tuple]:
    """Execute a SELECT or UNION plan, returning its rows."""
    if isinstance(plan, UnionPlan):
        rows = run_query(plan.left, frame) + run_query(plan.right, frame)
        if not plan.union.all:
            rows = list(dict.fromkeys(rows))
        if plan.order:
            rows = _ordered(rows, rows, plan.order, frame)
        if plan.limit is not None:
            rows = rows[:_constant_int(plan.limit, "LIMIT", frame)]
        return rows

    rows = _materialize(plan.source, frame)
    if plan.aggregates is not None:
        rows = _aggregate(plan, rows, frame)
    project = plan.project
    outputs = rows if project is None else [project(row, frame) for row in rows]
    if plan.select.distinct:
        # output row -> the input row that first produced it (ORDER BY
        # keys may read the input); dicts keep first-insertion order.
        first: dict[tuple, Sequence] = {}
        for output, row in zip(outputs, rows):
            first.setdefault(output, row)
        outputs, rows = list(first), list(first.values())
    if plan.order:
        outputs = _ordered(outputs, rows, plan.order, frame)
    if plan.offset is not None:
        outputs = outputs[_constant_int(plan.offset, "OFFSET", frame):]
    if plan.limit is not None:
        outputs = outputs[:_constant_int(plan.limit, "LIMIT", frame)]
    return outputs


def _constant_int(expression: Compiled, label: str, frame: Frame) -> int:
    value = expression((), frame)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SqlError(f"{label} requires a non-negative integer")
    return value


# -- aggregation ------------------------------------------------------------

def _aggregate(plan: SelectPlan, rows: list[tuple], frame: Frame) -> list[tuple]:
    """One row per group that passes HAVING: the group's first input row
    extended by its aggregate results."""
    factories = [factory for factory, __ in plan.aggregates]
    arguments = [argument for __, argument in plan.aggregates]
    group_key = plan.group_key
    groups: dict[Any, tuple[tuple, list]] = {}
    for row in rows:
        key = group_key(row, frame) if group_key is not None else None
        group = groups.get(key)
        if group is None:
            group = groups[key] = (row, [factory() for factory in factories])
        for accumulator, argument in zip(group[1], arguments):
            accumulator.add(1 if argument is None else argument(row, frame))
    if not groups and group_key is None:
        # Aggregates over an empty input still yield one row.
        width = len(plan.source.header)
        groups[None] = ((None,) * width, [factory() for factory in factories])
    extended = [row + tuple([a.result() for a in accumulators])
                for row, accumulators in groups.values()]
    having = plan.having
    if having is not None:
        extended = [row for row in extended if having(row, frame) is True]
    return extended


# -- ordering ----------------------------------------------------------------

def _ordered(outputs: list[tuple], inputs: Sequence[Sequence],
             order: list[OrderKey], frame: Frame) -> list[tuple]:
    """Sort *outputs*; a key is an output ordinal or a closure over the
    matching row of *inputs*.  NULLs sort first ascending."""
    keyed = [(output, [output[ordinal] if closure is None
                       else closure(row, frame) for ordinal, closure, __ in order])
             for output, row in zip(outputs, inputs)]
    # Stable-sort from the least-significant key to the most.
    for position in range(len(order) - 1, -1, -1):
        keyed.sort(key=lambda pair: (pair[1][position] is not None,
                                     pair[1][position]),
                   reverse=not order[position][2])
    return [output for output, __ in keyed]


# ------------------------------------------------------------- row sources --

def _materialize(source: RowSource, frame: Frame) -> list[tuple]:
    probe = source.child if isinstance(source, FilteredSource) else source
    if isinstance(probe, IndexLookup):
        return [tuple(row) for __, row in _access(source, frame)]
    if isinstance(source, FilteredSource):
        tests = source.tests
        if isinstance(source.child, TableScan):
            # Fused scan + filter: test the stored rows, copy survivors.
            first = tests[0]
            rows = [tuple(row) for row in source.child.table.rows()
                    if first(row, frame) is True]
            tests = tests[1:]
        else:
            rows = _materialize(source.child, frame)
        for test in tests:
            rows = [row for row in rows if test(row, frame) is True]
        return rows
    if isinstance(source, TableScan):
        return [tuple(row) for row in source.table.rows()]
    if isinstance(source, HashJoin):
        return _hash_join(source, frame)
    if isinstance(source, NestedLoopJoin):
        return _nested_loop(source, frame)
    if isinstance(source, DerivedTable):
        return run_query(source.plan, frame)
    assert isinstance(source, SingleRow)
    return [()]


def _access(source: RowSource, frame: Frame) -> list[tuple[int, Row]]:
    """``(row_id, stored row)`` pairs of a single-table access path (an
    index probe or a scan, filtered or not) — how a probe finds rows,
    and the only form UPDATE and DELETE can use: they need the ids."""
    tests: Sequence[Compiled] = ()
    if isinstance(source, FilteredSource):
        source, tests = source.child, source.tests
    probe = isinstance(source, IndexLookup)
    if probe and type(key := source.key((), frame)) in source.key_types:
        table = source.table
        pairs = [(row_id, table.row(row_id))
                 for row_id in sorted(source.index.lookup((key,)))]
    else:
        assert probe or isinstance(source, TableScan)
        if probe:
            # The index holds no value of this type, yet `=` may still
            # match (text spelling a date, say): ask every row.
            tests = [source.fallback, *tests]
        pairs = list(source.table.scan())
    for test in tests:
        pairs = [pair for pair in pairs if test(pair[1], frame) is True]
    return pairs


def _hash_join(source: HashJoin, frame: Frame) -> list[tuple]:
    left_rows = _materialize(source.left, frame)
    right_rows = _materialize(source.right, frame)
    left_keys = [source.left_key(row, frame) for row in left_rows]
    keyed = [(key, row) for row in right_rows
             if (key := source.right_key(row, frame)) is not None]

    if _one_kind(left_keys + [key for key, __ in keyed],
                 len(source.left_keys)):
        buckets: dict[Any, list[tuple]] = {}
        for key, row in keyed:
            buckets.setdefault(key, []).append(row)
        matching = buckets.get
    else:
        # Across kinds Python's == is not SQL's = (TRUE is not 1, a
        # date equals the text that spells it): ask `=` itself.
        equal = sql_equal if len(source.left_keys) == 1 else \
            lambda left, right: all(map(sql_equal, left, right))

        def matching(key):
            return [row for other, row in keyed if equal(key, other)]

    out: list[tuple] = []
    pad_misses = source.kind == "LEFT"
    null_pad = (None,) * len(source.right.header)
    for key, row in zip(left_keys, left_rows):
        matches = matching(key) if key is not None else None
        if matches:
            for right_row in matches:
                out.append(row + right_row)
        elif pad_misses:
            out.append(row + null_pad)
    return out


def _one_kind(keys: list, width: int) -> bool:
    """True when a dict may stand in for ``=`` on these join keys:
    at every key position the non-NULL values are of one kind (the rule
    an index probe applies to its key)."""
    present = [key for key in keys if key is not None]
    for values in (zip(*present) if width > 1 else [present]):
        kinds = set(map(type, values))
        if kinds and not kinds <= SAME_KIND.get(next(iter(kinds)), ()):
            return False
    return True


def _nested_loop(source: NestedLoopJoin, frame: Frame) -> list[tuple]:
    left_rows = _materialize(source.left, frame)
    right_rows = _materialize(source.right, frame)
    test = source.test
    out: list[tuple] = []

    # RIGHT is LEFT with the loops swapped; *combined* rows always read
    # left columns first.
    preserved = source.kind in ("LEFT", "RIGHT")
    swapped = source.kind == "RIGHT"
    outer_rows, inner_rows = (right_rows, left_rows) if swapped \
        else (left_rows, right_rows)
    null_pad = (None,) * len((source.left if swapped else source.right).header)
    for outer_row in outer_rows:
        found = False
        for inner_row in inner_rows:
            combined = inner_row + outer_row if swapped else outer_row + inner_row
            if test is None or test(combined, frame) is True:
                out.append(combined)
                found = True
        if preserved and not found:
            out.append(null_pad + outer_row if swapped else outer_row + null_pad)

    if source.keep is not None:
        keep = source.keep
        out = [tuple([row[i] for i in keep]) for row in out]
    return out


# --------------------------------------------------------------------- DML --

def _insert(plan: InsertPlan, frame: Frame) -> int:
    positions = plan.positions
    count = 0
    for values in plan.rows_of(frame):
        if len(values) != len(positions):
            raise IntegrityError(
                f"INSERT supplies {len(values)} values for "
                f"{len(positions)} columns")
        row = list(plan.defaults)
        for position, value in zip(positions, values):
            row[position] = value
        plan.table.insert(row)
        count += 1
    return count


def _modify(plan: ModifyPlan, frame: Frame) -> int:
    """UPDATE or DELETE: every affected row is found, and every new
    value computed, before the first one is written."""
    found = _access(plan.source, frame)
    if plan.assignments is None:
        for row_id, __ in found:
            plan.table.delete(row_id)
        return len(found)
    touched: list[tuple[int, Row]] = []
    for row_id, row in found:
        new_row = list(row)
        for position, value in plan.assignments:
            new_row[position] = value(row, frame)
        touched.append((row_id, new_row))
    for row_id, new_row in touched:
        plan.table.update(row_id, new_row)
    return len(touched)
