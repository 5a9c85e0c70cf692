"""OQL texts are parsed once: the parsed query is immutable and shared,
and a string literal that is not a date, compared with a date
attribute, is an ``OqlError`` (a user exception through the ORB), not
an internal error."""

import dataclasses
import datetime

import pytest

from repro.apps.healthcare import topology as topo
from repro.errors import OqlError
from repro.oodb import Attribute, ObjectDatabase
from repro.oodb import query as oql
from repro.sql.codegen import CACHE_SIZE


@pytest.fixture()
def db():
    db = ObjectDatabase("memo")
    db.define_class("Dept", [Attribute("name", "string")])
    db.define_class("Emp", [Attribute("name", "string"),
                            Attribute("hired", "date"),
                            Attribute("dept", "object", target="Dept")])
    it = db.create("Dept", name="IT")
    db.create("Emp", name="Alice", hired=datetime.date(1995, 3, 1), dept=it)
    db.create("Emp", name="Bob", hired=datetime.date(1997, 6, 1), dept=None)
    return db


def test_a_text_is_parsed_once_and_its_tree_is_shared(db):
    text = "SELECT e.name, e.dept.name FROM Emp e WHERE e.dept.name = 'IT'"
    misses = oql.parse.cache_info().misses
    first = db.query(text)
    assert db.query(text) == first == [{"e.name": "Alice",
                                        "e.dept.name": "IT"}]
    assert oql.parse.cache_info().misses == misses + 1
    parsed = oql.parse(text)
    assert parsed is oql.parse(text)
    assert [path.segments for path in parsed.projection] == [
        ("name",), ("dept", "name")]
    assert parsed.predicate.path.segments == ("dept", "name")


def test_the_parsed_query_and_its_nodes_are_immutable():
    parsed = oql.parse("SELECT name FROM Emp WHERE NOT (name = 'a' "
                       "OR name = 'b') AND hired > '1990-01-01' "
                       "ORDER BY hired DESC")
    nodes = [parsed, parsed.order_path, *parsed.projection,
             parsed.predicate, *parsed.predicate.parts]
    for node in nodes:
        field = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, None)
    assert type(parsed.predicate.parts) is tuple


def test_an_error_is_not_memoised():
    size = oql.parse.cache_info().currsize
    for __ in range(2):
        with pytest.raises(OqlError):
            oql.parse("SELECT name FROM Emp WHERE")
    assert oql.parse.cache_info().currsize == size


def test_the_memo_is_bounded(db):
    for i in range(CACHE_SIZE + 20):
        db.query(f"SELECT name FROM Emp WHERE name = 'n{i}'")
    assert oql.parse.cache_info().maxsize == CACHE_SIZE
    assert oql.parse.cache_info().currsize <= CACHE_SIZE


@pytest.mark.parametrize("literal", ["garbage", "2024-13-45", ""])
def test_a_malformed_date_literal_is_an_oql_error(db, literal):
    with pytest.raises(OqlError, match="invalid date literal"):
        db.query(f"SELECT name FROM Emp WHERE hired = '{literal}'")
    # Against a string attribute the same literal is just a string.
    assert db.query(f"SELECT name FROM Emp WHERE name = '{literal}'") == []


def test_a_date_literal_compares_with_a_date(db):
    assert db.query("SELECT name FROM Emp WHERE hired > '1996-01-01'") == [
        {"name": "Bob"}]


@pytest.mark.parametrize("literal", ["garbage", "2024-13-45"])
def test_a_malformed_date_literal_crosses_the_orb_as_an_oql_error(
        healthcare, literal):
    browser = healthcare.browser(topo.QUT)
    with pytest.raises(OqlError) as caught:
        browser.fetch(topo.AMBULANCE, "SELECT callout_no FROM Callout "
                                      f"WHERE on_date = '{literal}'")
    assert repr(literal) in str(caught.value)
