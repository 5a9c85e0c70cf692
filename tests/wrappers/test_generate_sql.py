"""``RelationalWrapper.generate_sql`` against ``invoke``.

``generate_sql`` shows the user the SQL an invocation runs: the SQL
binding with each ``?`` parameter token replaced by its argument as a
literal of the source's dialect.  The property: for drawn text,
integer, real, date and NULL arguments (texts holding ``'`` and ``?``
included), the rendered text run on the engine returns exactly what
``invoke`` returns.  The bindings put a ``?`` inside a string literal,
a block comment and a line comment, which are text, not placeholders.
A NaN or infinite real has no SQL literal: rendering a call that
passes one is a ``TranslationError`` naming the function.
Tier-1 runs the property derandomised; CI's sql-differential job runs
it under ``--hypothesis-profile=ci`` with the matrix seed.
"""

import datetime
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TranslationError
from repro.gateway import LocalDriver
from repro.sql.engine import Database
from repro.wrappers import (ExportedFunction, ExportedType, RelationalWrapper,
                            SqlBinding)

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None, max_examples=60)

BINDINGS = {
    "All": ("SELECT id, s, i, r, d FROM t WHERE s = ? AND i = ? "
            "AND r = ? AND d = ? ORDER BY id", ("s", "i", "r", "d")),
    "Quoted": ("SELECT id FROM t WHERE s <> '?' AND (s = ? OR i = ?) "
               "ORDER BY id", ("s", "i")),
    "Commented": ("SELECT id /* ? */ FROM t -- where ?\n"
                  "WHERE r = ? OR d = ? ORDER BY id", ("r", "d")),
    "Spaced": ("SELECT id FROM t\nWHERE s = ?\n  AND 'it''s?' <> ?", ("s", "t")),
}

texts = st.one_of(st.sampled_from(["why?", "O'Neil", "?", "'?'", "", "a ? b",
                                   "''", "x"]),
                  st.text(max_size=8))
integers = st.one_of(st.integers(-3, 3),
                     st.integers(-(1 << 63), (1 << 63) - 1))
reals = st.one_of(st.sampled_from([0.5, -1.5, 1e-05, 1e16, -0.0, 2.0,
                                   float("inf"), float("-inf"), float("nan")]),
                  st.floats())
dates = st.dates(min_value=datetime.date(1998, 12, 30),
                 max_value=datetime.date(1999, 1, 2))
CELLS = {"s": texts, "i": integers, "r": reals, "d": dates, "t": texts}


def _wrapper(rows):
    db = Database("T", dialect="oracle")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(40), i INT, "
               "r REAL, d DATE)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                   [[index, *row] for index, row in enumerate(rows)])
    driver = LocalDriver("oracle")
    driver.register_database(db)
    exported = ExportedType("T", functions=[
        ExportedFunction(name, params, "rows", SqlBinding(sql, params))
        for name, (sql, params) in BINDINGS.items()])
    return RelationalWrapper("T", driver.connect("jdbc:oracle:T"),
                             exported_types=[exported])


def _argument(kind):
    return st.one_of(st.none(), CELLS[kind])


rows = st.lists(st.tuples(*(_argument(kind) for kind in "sird")),
                max_size=6)
calls = st.sampled_from(sorted(BINDINGS)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(
        *(_argument(kind) for kind in BINDINGS[name][1]))))


@SETTINGS
@given(rows=rows, call=calls)
def test_rendered_sql_returns_what_invoke_returns(rows, call):
    wrapper = _wrapper(rows)
    name, args = call
    if any(isinstance(arg, float) and not math.isfinite(arg) for arg in args):
        with pytest.raises(TranslationError, match=f"of '{name}' has no SQL"):
            wrapper.generate_sql("T", name, args)
        return
    invoked = wrapper.invoke("T", name, list(args))
    rendered = wrapper.execute_native(wrapper.generate_sql("T", name, args))
    assert rendered.columns == invoked.columns
    assert rendered.rows == invoked.rows


@pytest.fixture()
def wrapper():
    return _wrapper([("why?", 5, 1.0, datetime.date(1999, 1, 1))])


def test_a_later_argument_is_not_spliced_into_an_earlier_literal(wrapper):
    assert wrapper.generate_sql("T", "Quoted", ["why?", 5]) == (
        "SELECT id FROM t WHERE s <> '?' AND (s = 'why?' OR i = 5) "
        "ORDER BY id")
    assert wrapper.execute_native(
        wrapper.generate_sql("T", "Quoted", ["why?", 5])).rows == [(0,)]


def test_placeholders_in_comments_are_text(wrapper):
    assert wrapper.generate_sql("T", "Commented", [1.0, None]) == (
        "SELECT id /* ? */ FROM t -- where ?\n"
        "WHERE r = 1.0 OR d = NULL ORDER BY id")


@pytest.mark.parametrize("args", [["why?"], ["why?", 5, 6], []])
def test_an_argument_count_other_than_the_placeholders_is_refused(
        wrapper, args):
    with pytest.raises(TranslationError, match="2 placeholders"):
        wrapper.generate_sql("T", "Quoted", args)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_real_has_no_literal(wrapper, value):
    with pytest.raises(TranslationError,
                       match=f"argument {value!r} of 'Commented'"):
        wrapper.generate_sql("T", "Commented", [value, None])
