"""Regex-driven SQL tokenizer, and the shape of a statement text.

Supports identifiers (bare, ``"quoted"`` or ``[bracketed]``), integer
and real literals with exponents (a digit is what ``int()`` accepts),
``'strings'`` with ``''`` escaping, ``--`` and ``/* */`` comments,
``?`` parameters and the operators and punctuation of
:mod:`repro.sql.tokens`.  One set of patterns drives two passes:
:func:`tokenize` matches a token at a time; :func:`shape` cuts each
number and string literal out of runs of other text (the pass
:func:`repro.shape.cut` shares with WebTassili), which gives the key
the engine caches a plan under and the literals' values.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Optional

from repro.errors import SqlSyntaxError
from repro.shape import cut
from repro.sql.tokens import KEYWORDS, Token, TokenType

# A block comment matches to the end of the text when it is not closed,
# so that no later alternative reads its "/" as an operator.
_SPACE = r"\s+|--[^\n]*|/\*(?:[\s\S]*?\*/|[\s\S]*)"
_WORD = r"[^\W\d]\w*"
_NUMBER = r"(?:\d+(?:\.(?!\.)\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_STRING = r"'[^']*(?:''[^']*)*'"
_QUOTED = r'"[^"]*"|\[[^\]]*\]'
_OPERATOR = r"<>|!=|<=|>=|\|\||[=<>+\-*/%]"

#: One token, or a run of whitespace and comments, per match; the group
#: that matched says which (``_SKIP`` ... ``_PARAM``).
_TOKEN = re.compile(f"({_SPACE})|({_WORD})|({_NUMBER})|({_STRING})"
                    f"|({_QUOTED})|({_OPERATOR})|([(),.;])|(\\?)")
_SKIP, _NAME, _NUM, _TEXT, _QUOTE, _OP, _PUNCT, _PARAM = range(1, 9)
#: A run of anything but a literal, then a number, a string, a quote
#: no token closes, or the end of the text.  ASCII letters, whitespace
#: and most punctuation are tried first, as one class, for speed; a
#: digit glued to a word character is part of a name.  A run may hold
#: characters no token is made of: the parser rejects such a text, and
#: they are part of its key as written.
_SHAPE = re.compile(f"((?:[A-Za-z_\\s,()=<>*+;?%|!]+|(?<=\\w)\\d\\w*|{_WORD}"
                    f"|{_QUOTED}|{_SPACE}|[-/]|\\.(?!\\d)|[^\\w'\"\\[\\-/.]+)*+)"
                    f"(?:({_NUMBER})|({_STRING})|(['\"\\[])|\\Z)")

#: What stands for a literal of each kind in a shape.  NUL appears in a
#: valid text only inside a literal, a comment or a quoted name; a text
#: whose shape holds a NUL a marker did not put there has no shape.
MARKERS = {int: "\0i", float: "\0r", str: "\0s", "date": "\0d"}

_FIXED = {_OP: TokenType.OPERATOR, _PUNCT: TokenType.PUNCT,
          _PARAM: TokenType.PARAM}


def _error(message: str, text: str, index: int) -> SqlSyntaxError:
    return SqlSyntaxError(message, text.count("\n", 0, index) + 1,
                          index - text.rfind("\n", 0, index))


def _unlexable(text: str, index: int) -> SqlSyntaxError:
    """The error for a text no token matches at *index*."""
    char = text[index]
    if char == "'":
        return _error("unterminated string literal", text, len(text))
    if char in "\"[":
        return _error("unterminated quoted identifier", text, len(text))
    return _error(f"unexpected character {char!r}", text, index)


def number(lexeme: str) -> Any:
    """The value of a number literal as the patterns match it."""
    if "." in lexeme or "e" in lexeme or "E" in lexeme:
        return float(lexeme)
    return int(lexeme)


def tokenize(text: str) -> list[Token]:
    """Return all tokens, terminated by a single EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, end = 1, 0, 0
    for match in _TOKEN.finditer(text):
        start = match.start()
        if start != end:
            raise _unlexable(text, end)
        end = match.end()
        group = match.lastindex
        lexeme = match[group]
        column = start - line_start + 1
        if group == _NAME:
            upper = lexeme.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, line, column))
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                append(Token(TokenType.IDENTIFIER, lexeme, line, column))
            else:  # a numeral no number is made of: "½", "²"
                raise _error(f"unexpected character {lexeme[0]!r}",
                             text, start)
            continue
        if group == _NUM:
            try:
                value = number(lexeme)
            except ValueError:  # more digits than ``int`` converts
                raise _error(f"malformed number of {len(lexeme)} digits",
                             text, start) from None
            append(Token(TokenType.INTEGER if type(value) is int
                         else TokenType.REAL, value, line, column))
            continue
        if group == _SKIP:
            if lexeme[:2] == "/*" and (len(lexeme) < 4 or lexeme[-2:] != "*/"):
                raise _error("unterminated block comment", text, len(text))
        elif group == _TEXT:
            append(Token(TokenType.STRING, lexeme[1:-1].replace("''", "'"),
                         line, column))
        elif group == _QUOTE:
            if len(lexeme) == 2:
                raise _error("empty quoted identifier", text, end)
            append(Token(TokenType.IDENTIFIER, lexeme[1:-1], line, column))
        else:
            append(Token(_FIXED[group], lexeme, line, column))
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = start + lexeme.rindex("\n") + 1
    if end != len(text):
        raise _unlexable(text, end)
    tokens.append(Token(TokenType.EOF, None, line, end - line_start + 1))
    return tokens


def kind_of(value: Any) -> Any:
    """A literal value's kind: its type, or ``"date"`` for text that
    spells an ISO date (it compares with a DATE column as that date)."""
    if type(value) is str and value[:1].isdigit():
        try:
            datetime.date.fromisoformat(value)
            return "date"
        except ValueError:
            pass
    return type(value)


def shape(text: str) -> tuple[Optional[str], list]:
    """``(key, values)``: *text* with each number and string literal
    replaced by the marker of its kind, and the literals' values in
    text order.  The key is None when the text cannot be cut that way
    (a quote is not closed, a NUL stands outside a literal); such a
    text is parsed as it stands."""
    return cut(_SHAPE, text, number, _mark)


def _mark(value: Any) -> str:
    return MARKERS[kind_of(value)]
