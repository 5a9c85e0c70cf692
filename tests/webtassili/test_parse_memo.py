"""The contract of the parse memo: ``parse(text)`` is a pure function of
its text, memoised over the last ``PARSE_CACHE_SIZE`` texts, and the
tree it returns is immutable and shared.

Tier-1 draws the property's own example count; CI's
``--hypothesis-profile=ci`` draws ten times as many from the matrix
seed.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.healthcare import topology as topo
from repro.errors import WebTassiliSyntaxError
from repro.webtassili import Parser, ast, parse
from repro.webtassili.parser import PARSE_CACHE_SIZE
from tests.webtassili.test_roundtrip_properties import (
    SCALE, literal, name, quote, render_literal, word)

# Every statement class with a sequence field, at least once.
SEQUENCE_TEXTS = (
    "Find Coalitions With Information X Structure (A.b, c)",
    "Find Sources With Information X",
    "Invoke f Of Type T On DB With (1, 'two', TRUE, NULL)",
    "Advertise Source S Information 'x' Interface T1, T2",
)


def _invoke_text(function, type_name, database, args):
    text = (f"Invoke {quote(function)} Of Type {quote(type_name)} "
            f"On {quote(database)}")
    if args:
        text += f" With ({', '.join(render_literal(a) for a in args)})"
    return text


# The statement texts the round-trip properties generate.
statement_text = st.one_of(
    name.map(lambda topic: f"Find Coalitions With Information "
                           f"{quote(topic)}"),
    st.tuples(name, name).map(
        lambda pair: f"Display Document of Instance {quote(pair[0])} "
                     f"Of Class {quote(pair[1])}"),
    name.map(lambda instance: f"Display Access Information of Instance "
                              f"{instance}"),
    st.builds(_invoke_text, word, word, name, st.lists(literal, max_size=4)),
    st.tuples(name, st.text(alphabet="abcdef *=<>'%_,().0123456789 ",
                            min_size=1, max_size=60)).map(
        lambda pair: f"Query {quote(pair[0])} Native {quote(pair[1])}"),
    st.tuples(name, name, st.text(alphabet="abc def", min_size=1,
                                  max_size=20)).map(
        lambda t: f"Create Service Link From Coalition {quote(t[0])} "
                  f"To Database {quote(t[1])} "
                  f"With Description {quote(t[2])}"),
)


def test_the_same_text_returns_the_same_tree():
    text = "Display Instances of Class 'Research'"
    assert parse(text) is parse(text)


@pytest.mark.parametrize("text", SEQUENCE_TEXTS)
def test_a_tree_is_frozen_and_its_sequences_are_tuples(text):
    statement = parse(text)
    fields = dataclasses.fields(statement)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(statement, fields[0].name, "changed")
    sequences = [getattr(statement, f.name) for f in fields
                 if f.name in ("structure", "arguments", "interface")]
    assert sequences
    assert all(type(value) is tuple for value in sequences)


def test_a_syntax_error_is_not_memoised():
    text = "Connect To Coalition ; Atlantis"
    columns = []
    for __ in range(2):
        size = parse.cache_info().currsize
        with pytest.raises(WebTassiliSyntaxError) as caught:
            parse(text)
        columns.append(caught.value.column)
        assert parse.cache_info().currsize == size
    assert columns[0] == columns[1] == text.index(";")


def test_the_memo_is_bounded():
    assert PARSE_CACHE_SIZE == 512
    for i in range(600):
        parse(f"Display Instances of Class 'Bounded {i}'")
    assert parse.cache_info().maxsize == PARSE_CACHE_SIZE
    assert parse.cache_info().currsize <= PARSE_CACHE_SIZE


def test_threads_share_the_memo_without_losing_a_tree():
    """Clients on several threads parse overlapping texts at once (the
    TCP workload runs two); each gets the tree a fresh parse builds."""
    texts = [f"Display Instances of Class 'Threaded {i % 700}'"
             for i in range(2100)]
    wrong: list[str] = []

    def client(offset: int) -> None:
        for text in texts[offset:] + texts[:offset]:
            if parse(text) != Parser(text).parse():
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=client, args=(offset,))
                   for offset in (0, 350, 700, 1050)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []
    assert parse.cache_info().currsize <= PARSE_CACHE_SIZE


def test_sessions_sharing_a_tree_keep_their_own_state(healthcare):
    text = f"Connect To Coalition '{topo.RESEARCH}'"
    first = healthcare.browser(topo.QUT)
    second = healthcare.browser(topo.RBH)
    hits = parse.cache_info().hits
    first.submit(text)
    second.submit(text)
    assert parse.cache_info().hits > hits
    first.submit(f"Connect To Coalition '{topo.MEDICAL}'")
    assert first.session.current_coalition == topo.MEDICAL
    assert second.session.current_coalition == topo.RESEARCH
    assert first.session.home_database == topo.QUT
    assert second.session.home_database == topo.RBH
    assert second.session.history == [text]
    assert parse(text) == ast.ConnectTo(target_kind="coalition",
                                        name=topo.RESEARCH)


@given(text=statement_text)
@settings(max_examples=100 * SCALE, deadline=None)
def test_the_memo_answers_what_a_fresh_parse_answers(text):
    assert parse(text) == Parser(text).parse()
    assert parse(text) is parse(text)
