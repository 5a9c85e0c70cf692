"""OQL texts that used to let a Python error escape the engine.

Ordering by a reference compares objects, which have no order; deep
nesting of parentheses or ``NOT`` recursed until Python gave up.  Each
is an :class:`OqlError` now: ``ORDER BY`` names the path, and the
parser refuses nesting deeper than the SQL parser's ``MAX_DEPTH``.
"""

import pytest

from repro.errors import OqlError
from repro.oodb import Attribute, ObjectDatabase
from repro.sql.parser import MAX_DEPTH


@pytest.fixture()
def db():
    db = ObjectDatabase("hostile")
    db.define_class("Station", [Attribute("name", "string")])
    db.define_class("Callout", [
        Attribute("callout_no", "integer"),
        Attribute("station", "object", target="Station")])
    north = db.create("Station", name="North")
    south = db.create("Station", name="South")
    for number, station in enumerate((south, north, south), start=1):
        db.create("Callout", callout_no=number, station=station)
    return db


def test_ordering_by_a_reference_names_the_path(db):
    with pytest.raises(OqlError, match="'station'"):
        db.query("SELECT callout_no FROM Callout ORDER BY station")


def test_ordering_through_a_reference_still_orders(db):
    rows = db.query("SELECT callout_no FROM Callout ORDER BY station.name")
    assert [row["callout_no"] for row in rows] == [2, 1, 3]


@pytest.mark.parametrize("oql", [
    "SELECT callout_no FROM Callout WHERE " + "(" * 2000 + "callout_no = 1"
    + ")" * 2000,
    "SELECT callout_no FROM Callout WHERE " + "NOT " * 3000 + "callout_no = 1",
    "SELECT callout_no FROM Callout WHERE " + "NOT (" * 1000 + "callout_no = 1"
    + ")" * 1000,
], ids=["parentheses", "nots", "both"])
def test_deep_nesting_is_an_oql_error(db, oql):
    with pytest.raises(OqlError, match=f"deeper than {MAX_DEPTH}"):
        db.query(oql)


def test_nesting_up_to_the_limit_is_answered(db):
    nots = "NOT " * (MAX_DEPTH - 1)
    parenthesised = "(" * MAX_DEPTH + "callout_no = 1" + ")" * MAX_DEPTH
    assert db.query(f"SELECT callout_no FROM Callout WHERE {nots}"
                    "callout_no = 1") == [{"callout_no": 2}, {"callout_no": 3}]
    assert db.query(f"SELECT callout_no FROM Callout WHERE {parenthesised}") \
        == [{"callout_no": 1}]
