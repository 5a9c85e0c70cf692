"""Tokenizer for the WebTassili language.

WebTassili statements read like prose (``Display Document of Instance
Royal Brisbane Hospital Of Class Research;``): keywords are
case-insensitive, names may span several bare words, and string
literals use single quotes.  The lexer therefore emits WORD tokens and
lets the parser decide which words are keywords in context.

One compiled regex drives two passes: :func:`tokenize` matches a token
at a time; :func:`shape` cuts each number and string literal out of
runs of other text, the key :func:`repro.webtassili.parse` keeps a
parsed tree under.
"""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple, Optional

from repro.errors import WebTassiliSyntaxError
from repro.shape import cut


class TokenType(enum.Enum):
    WORD = "WORD"
    STRING = "STRING"
    NUMBER = "NUMBER"
    PUNCT = "PUNCT"
    EOF = "EOF"


#: Words that terminate a multi-word name when scanned in name position.
KEYWORDS = frozenset({
    "FIND", "DISPLAY", "CONNECT", "QUERY", "INVOKE", "CREATE", "DISSOLVE",
    "ADVERTISE", "JOIN", "LEAVE", "DROP", "WITH", "INFORMATION", "TO",
    "COALITION", "COALITIONS", "DATABASE", "DATABASES", "SUBCLASSES",
    "INSTANCES", "DOCUMENT", "DOCUMENTATION", "ACCESS", "INTERFACE",
    "SERVICE", "LINK", "LINKS", "OF", "CLASS", "INSTANCE", "ON", "NATIVE",
    "FROM", "SOURCE", "SOURCES", "TYPE", "FOR", "LOCATION", "WRAPPER",
    "DESCRIPTION", "STRUCTURE",
    "AND",
})

_SPACE = r"\s+"
_STRING = r"'[^']*(?:''[^']*)*+'"
_NUMBER = r"-?\d[\d.]*"
#: A digit or a ``-`` after a word's first character is part of it.
_WORD = r"[^\W\d][\w-]*"

#: One token, or a run of whitespace, per match; the group that matched
#: says which (``_SKIP`` ... ``_PUNCT``).  A word match that starts with
#: a character that is not a letter, and a digit ``str.isdigit`` accepts
#: that ``\d`` does not (``²``), are the rare cases the scan checks.
_TOKEN = re.compile(f"({_SPACE})|({_STRING})|({_NUMBER})|({_WORD})|([();,.=])")
_SKIP, _TEXT, _NUM, _NAME, _PUNCT = range(1, 6)
#: A run of whole words and other text that holds no literal, then a
#: number, a string, a quote no string closes, or the end.
_SHAPE = re.compile(f"((?:{_WORD}|[^\\w'\\-]+|-(?!\\d))*+)"
                    f"(?:({_NUMBER})|({_STRING})|(')|\\Z)")

#: What stands for a literal in a shape: the parser never looks inside
#: a literal, so a number and a string are the only kinds it tells apart.
_MARKERS = {str: "\0s", int: "\0n", float: "\0n"}


class Token(NamedTuple):
    type: TokenType
    value: Any
    position: int

    @property
    def upper(self) -> str:
        """Upper-cased value for keyword comparison (WORD tokens only)."""
        return str(self.value).upper()


def number(lexeme: str) -> Any:
    """The value of a number as written: ValueError if it has none."""
    return float(lexeme) if "." in lexeme else int(lexeme)


def _unlexable(text: str, position: int) -> WebTassiliSyntaxError:
    """The error for the token that cannot start at *position*."""
    char = text[position]
    if char == "'":
        return WebTassiliSyntaxError("unterminated string literal",
                                     column=position)
    if char.isdigit() or char == "-" and text[position + 1:position + 2
                                              ].isdigit():
        # ``1.2.3``, or a digit ``int`` refuses (``²``).
        end = position + 1
        while end < len(text) and (text[end].isdigit() or text[end] == "."):
            end += 1
        return WebTassiliSyntaxError(
            f"malformed number {text[position:end]!r}", column=position)
    return WebTassiliSyntaxError(f"unexpected character {char!r}",
                                 column=position)


def tokenize(text: str) -> list[Token]:
    """Tokenize one WebTassili statement."""
    tokens: list[Token] = []
    append = tokens.append
    end = 0
    for match in _TOKEN.finditer(text):
        start = match.start()
        if start != end:
            raise _unlexable(text, end)
        end = match.end()
        group = match.lastindex
        if group == _SKIP:
            continue
        lexeme = match[group]
        if group == _NAME:
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                raise _unlexable(text, start)
            append(Token(TokenType.WORD, lexeme, start))
        elif group == _TEXT:
            append(Token(TokenType.STRING, lexeme[1:-1].replace("''", "'"),
                         start))
        elif group == _NUM:
            if text[end:end + 1].isdigit():
                raise _unlexable(text, start)
            try:
                append(Token(TokenType.NUMBER, number(lexeme), start))
            except ValueError:
                raise _unlexable(text, start) from None
        else:
            append(Token(TokenType.PUNCT, lexeme, start))
    if end != len(text):
        raise _unlexable(text, end)
    append(Token(TokenType.EOF, None, len(text)))
    return tokens


def shape(text: str) -> tuple[Optional[str], list]:
    """``(key, values)``: *text* with each number and string literal
    replaced by its marker (a string or a number), and the literals' values
    in text order; a None key when the text has no shape (see
    :func:`repro.shape.cut`)."""
    return cut(_SHAPE, text, number, _mark)


def _mark(value: Any) -> str:
    return _MARKERS[type(value)]
