"""The WebTassili lexer against ``golden/lexer_corpus.json``.

The corpus was written by an earlier lexer (see
``golden/generate_lexer.py``): every text must still lex to the same
``(type, value, position)`` tokens, or fail with the same
``WebTassiliSyntaxError`` message at the same column.
"""

import json
import pathlib

import pytest

from repro.errors import WebTassiliSyntaxError
from repro.webtassili.lexer import tokenize

CORPUS = json.loads((pathlib.Path(__file__).parent / "golden"
                     / "lexer_corpus.json").read_text())["texts"]


def test_the_corpus_is_the_size_it_was_written_at():
    assert len(CORPUS) >= 300
    assert len({entry["text"] for entry in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: repr(entry["text"]))
def test_lexes_as_recorded(entry):
    text = entry["text"]
    if "error" in entry:
        with pytest.raises(WebTassiliSyntaxError) as excinfo:
            tokenize(text)
        error = excinfo.value
        assert [error.args[0], error.column] == entry["error"]
        return
    tokens = tokenize(text)
    assert [[token.type.name, token.value, token.position]
            for token in tokens] == entry["tokens"]
    # 1 == 1.0 in Python: a number's value keeps the kind it was written
    # in, and every WORD is a str.
    for token, (__, value, __) in zip(tokens, entry["tokens"]):
        assert type(token.value) is type(value)
