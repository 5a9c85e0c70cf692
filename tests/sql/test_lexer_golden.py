"""The SQL lexer against ``golden/lexer_corpus.json``.

The corpus was written by an earlier lexer (see
``golden/generate_lexer.py``): every text must still lex to the same
``(type, value, line, column)`` tokens, or fail with the same
``SqlSyntaxError`` message at the same line and column.
"""

import json
import pathlib

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize

CORPUS = json.loads((pathlib.Path(__file__).parent / "golden"
                     / "lexer_corpus.json").read_text())["texts"]


def test_the_corpus_is_the_size_it_was_written_at():
    assert len(CORPUS) >= 300
    assert len({entry["text"] for entry in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: repr(entry["text"]))
def test_lexes_as_recorded(entry):
    text = entry["text"]
    if "error" in entry:
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize(text)
        error = excinfo.value
        assert [error.args[0], error.line, error.column] == entry["error"]
        return
    got = [[token.type.name, token.value, token.line, token.column]
           for token in tokenize(text)]
    assert got == entry["tokens"]
    # 1 == 1.0 in Python: the token type says which one it was, and
    # the value must be of the kind the type names.
    for token in tokenize(text):
        if token.type.name == "INTEGER":
            assert type(token.value) is int
        elif token.type.name == "REAL":
            assert type(token.value) is float
