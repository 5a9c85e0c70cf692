"""The shape memo behind ``parse``: a text whose literals are new, in a
known shape, gets the tree a fresh parse builds, and the shape cuts
exactly the literals the lexer reads.

Tier-1 draws each property's own example count; CI's
``--hypothesis-profile=ci`` draws ten times as many from the matrix
seed.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WebTassiliSyntaxError
from repro.webtassili import Parser, ast, parse
from repro.webtassili import parser as wt_parser
from repro.webtassili.lexer import TokenType, shape, tokenize
from repro.webtassili.parser import PARSE_CACHE_SIZE
from tests.webtassili.test_roundtrip_properties import SCALE, quote

# Letters, digits \d reads and digits it does not, the characters a
# number, a string or a word may hold, and some no token holds.
TEXTS = st.text(alphabet="aZé_-.'٣²½ 019;,()=@\0\n", max_size=40)


def fresh(text):
    """A parse of *text* by itself: its tree, or its error."""
    try:
        return Parser(text).parse()
    except WebTassiliSyntaxError as error:
        return (error.args[0], error.column)


def memoised(text):
    try:
        return parse(text)
    except WebTassiliSyntaxError as error:
        return (error.args[0], error.column)


@given(text=TEXTS)
@settings(max_examples=300 * SCALE, deadline=None)
@example("x-1 '1' 2")
@example("1²'a'")
@example("a 'b'''c 1.2.3")
def test_the_shape_cuts_what_the_lexer_reads(text):
    try:
        tokens = tokenize(text)
    except WebTassiliSyntaxError:
        return
    key, values = shape(text)
    literals = [token.value for token in tokens
                if token.type in (TokenType.STRING, TokenType.NUMBER)]
    assert key is not None
    assert [(type(v), v) for v in values] == [(type(v), v) for v in literals]


STATEMENTS = st.sampled_from([
    "Query {s} Native {s}",
    "Invoke {s} Of Type {s} On {s} With ({n}, {s}, TRUE, {n})",
    "Invoke f Of Type T On Coalition {s} With ({n})",
    "Find Coalitions With Information {s} Structure ({s}, a.b)",
    "Display Document of Instance {s} Of Class {s};",
    "Advertise Source {s} Information {s} Documentation {s} "
    "Interface {s}, T2",
    "Create Service Link From Database {s} To Coalition {s} "
    "With Description {s}",
    "Connect To Database {n}",        # a number where a name goes
    "Query {s} Native {n}",           # a number where a string goes
    "With ({n})",                     # not a statement
])
LITERALS = st.one_of(st.integers(-10**6, 10**6).map(str),
                     st.floats(0, 1e6).map(lambda x: f"{x:.3f}"),
                     st.sampled_from(["1.2.3", "-0", "007", "1."]))
STRINGS = st.text(alphabet="ab '%\0٣", max_size=12).map(quote)


@given(template=STATEMENTS, data=st.data())
@settings(max_examples=200 * SCALE, deadline=None)
def test_a_known_shape_answers_what_a_fresh_parse_answers(template, data):
    def text():
        out = template
        while "{s}" in out or "{n}" in out:
            first = min(i for i in (out.find("{s}"), out.find("{n}"))
                        if i >= 0)
            part = data.draw(STRINGS if out[first + 1] == "s" else LITERALS)
            out = out[:first] + part + out[first + 3:]
        return out
    for __ in range(3):  # the second and third text find the shape known
        sample = text()
        assert memoised(sample) == fresh(sample)


def test_one_template_serves_every_native_text():
    templates = wt_parser._templates
    parse("Query 'A' Native 'SELECT 1'")
    size = len(templates)
    for i in range(20):
        statement = parse(f"Query 'DB {i}' Native 'SELECT {i} FROM t'")
        assert statement == ast.NativeQuery(database_name=f"DB {i}",
                                            text=f"SELECT {i} FROM t")
    assert len(templates) == size


def test_a_slot_in_a_sequence_is_filled():
    statement = parse("Invoke f Of Type T On DB With (1, 'two', 3.5, NULL)")
    assert statement.arguments == (1, "two", 3.5, None)
    assert [type(v) for v in statement.arguments[:3]] == [int, str, float]
    assert parse("Advertise Source 'S' Information 'x' Interface 'T1', T2"
                 ).interface == ("T1", "T2")


def test_an_error_quotes_the_literal_not_a_slot():
    parse("Connect To Database 'X'")
    with pytest.raises(WebTassiliSyntaxError) as caught:
        parse("Connect To Database 17")
    assert caught.value.args[0] == "expected a name, found 17"
    assert caught.value.column == len("Connect To Database ")


def test_the_shape_memo_is_bounded():
    for i in range(PARSE_CACHE_SIZE + 50):
        parse(f"Invoke f{i} Of Type T On DB With ({i})")  # a shape each
    assert len(wt_parser._templates) <= PARSE_CACHE_SIZE
