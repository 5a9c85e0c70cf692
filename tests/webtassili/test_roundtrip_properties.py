"""Property-based WebTassili tests: generated statements parse back to
their inputs.

Tier-1 draws each property's own example count; CI's
``--hypothesis-profile=ci`` draws ten times as many from the matrix
seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webtassili import ast, parse

SCALE = 10 if settings.default is settings.get_profile("ci") else 1

# Bare multi-word names: words that are not keywords and cannot be
# mistaken for literals.
word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
               min_size=2, max_size=8).filter(
    lambda w: w.upper() not in
    {"OF", "TO", "ON", "FROM", "WITH", "AND", "FOR", "CLASS", "TYPE",
     "LINK", "LINKS", "NATIVE", "TRUE", "FALSE", "NULL", "SOURCE",
     "SOURCES", "ACCESS", "SERVICE", "INSTANCE", "INSTANCES", "DOCUMENT",
     "DOCUMENTATION", "INTERFACE", "STRUCTURE", "SUBCLASSES", "COALITION",
     "COALITIONS", "DATABASE", "DATABASES", "INFORMATION", "DESCRIPTION",
     "LOCATION", "WRAPPER", "FIND", "DISPLAY", "CONNECT", "QUERY",
     "INVOKE", "CREATE", "DISSOLVE", "ADVERTISE", "JOIN", "LEAVE", "DROP"})
name = st.lists(word, min_size=1, max_size=3).map(" ".join)
literal = st.one_of(
    st.integers(-1000, 1000),
    st.text(alphabet="abcdefghij XYZ'", max_size=12),
    st.booleans(), st.none())


def quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def render_literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, int):
        return str(value)
    return quote(value)


@given(topic=name)
@settings(max_examples=60 * SCALE, deadline=None)
def test_find_coalitions_roundtrip(topic):
    statement = parse(f"Find Coalitions With Information {quote(topic)}")
    assert isinstance(statement, ast.FindCoalitions)
    assert statement.information == topic


@given(instance=name, class_name=name)
@settings(max_examples=60 * SCALE, deadline=None)
def test_display_document_roundtrip(instance, class_name):
    statement = parse(f"Display Document of Instance {quote(instance)} "
                      f"Of Class {quote(class_name)}")
    assert statement.instance_name == instance
    assert statement.class_name == class_name


@given(instance=name)
@settings(max_examples=40 * SCALE, deadline=None)
def test_bare_multiword_names_roundtrip(instance):
    """Unquoted multi-word names survive when they contain no keywords."""
    statement = parse(f"Display Access Information of Instance {instance}")
    assert statement.instance_name == instance


@given(function=word, type_name=word, database=name,
       args=st.lists(literal, max_size=4))
@settings(max_examples=80 * SCALE, deadline=None)
def test_invoke_roundtrip(function, type_name, database, args):
    rendered = ", ".join(render_literal(a) for a in args)
    text = (f"Invoke {quote(function)} Of Type {quote(type_name)} "
            f"On {quote(database)}")
    if args:
        text += f" With ({rendered})"
    statement = parse(text)
    assert statement.function_name == function
    assert statement.type_name == type_name
    assert statement.database_name == database
    assert statement.arguments == tuple(args)


@given(database=name, query=st.text(alphabet="abcdef *=<>'%_,().0123456789 ",
                                    min_size=1, max_size=60))
@settings(max_examples=60 * SCALE, deadline=None)
def test_native_query_preserves_text(database, query):
    statement = parse(f"Query {quote(database)} Native {quote(query)}")
    assert statement.text == query


@given(a=name, b=name, description=st.text(alphabet="abc def",
                                           min_size=1, max_size=20))
@settings(max_examples=60 * SCALE, deadline=None)
def test_service_link_roundtrip(a, b, description):
    statement = parse(
        f"Create Service Link From Coalition {quote(a)} "
        f"To Database {quote(b)} With Description {quote(description)}")
    assert statement.from_name == a
    assert statement.to_name == b
    assert statement.description == description
