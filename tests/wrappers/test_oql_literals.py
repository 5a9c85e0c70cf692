"""Arguments of an OQL-bound function, as OQL literals.

The object wrapper substitutes each argument into its OQL binding as a
literal.  A float is written by ``repr``, which uses an exponent for
very small and very large magnitudes (``1e-05``, ``1e+16``,
``1.2345678901234567e+19``); the OQL lexer reads that form, so every
finite float must come back from the lexer as exactly itself.  NaN and
the infinities have no OQL literal: the wrapper refuses them, naming
the function.  Tier-1 runs the property derandomised; CI's
sql-differential job runs it under ``--hypothesis-profile=ci`` with the
matrix seed.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TranslationError
from repro.oodb import Attribute, ObjectDatabase
from repro.oodb.query import _tokenize
from repro.wrappers import (ExportedFunction, ExportedType, ObjectDbWrapper,
                            OqlBinding)
from repro.wrappers.objectstore import _oql_literal

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None, max_examples=300)


@SETTINGS
@given(value=st.floats(allow_nan=False, allow_infinity=False))
@example(value=1e-05)
@example(value=1e16)
@example(value=-0.0)
@example(value=12345678901234567890.5)
@example(value=5e-324)
def test_every_finite_float_round_trips_through_the_oql_lexer(value):
    (kind, read), eof = _tokenize(_oql_literal(value, "f"))
    assert kind == "number" and eof == ("eof", None)
    assert struct.pack("<d", read) == struct.pack("<d", value)


@pytest.fixture()
def wrapper():
    db = ObjectDatabase("AMP", product="ObjectStore")
    db.define_class("Fund", [Attribute("name", "string"),
                             Attribute("value", "real")])
    for name, value in [("Tiny", 1e-06), ("Unit", 1.0), ("Huge", 1e17)]:
        db.create("Fund", name=name, value=value)
    exported = ExportedType("Funds", functions=[
        ExportedFunction("Above", ("floor",), "rows",
                         OqlBinding("SELECT name FROM Fund "
                                    "WHERE value > {floor} ORDER BY name",
                                    ("floor",)))])
    return ObjectDbWrapper("AMP", db, exported_types=[exported])


@pytest.mark.parametrize("floor, names", [
    (1e-05, ["Huge", "Unit"]), (1e16, ["Huge"]),
    (-1e-07, ["Huge", "Tiny", "Unit"]), (12345678901234567890.5, [])])
def test_an_exponent_argument_runs(wrapper, floor, names):
    rows = wrapper.invoke("Funds", "Above", [floor])
    assert [row["name"] for row in rows] == names


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_argument_is_refused_by_name(wrapper, value):
    with pytest.raises(TranslationError, match="'Above'"):
        wrapper.invoke("Funds", "Above", [value])
