"""Tokenizer for the WebTassili language.

WebTassili statements read like prose (``Display Document of Instance
Royal Brisbane Hospital Of Class Research;``): keywords are
case-insensitive, names may span several bare words, and string
literals use single quotes.  The lexer therefore emits WORD tokens and
lets the parser decide which words are keywords in context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import WebTassiliSyntaxError


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

_PUNCTUATION = "();,.="


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Any
    position: int

    @property
    def upper(self) -> str:
        """Upper-cased value for keyword comparison (WORD tokens only)."""
        return str(self.value).upper()


def tokenize(text: str) -> list[Token]:
    """Tokenize one WebTassili statement."""
    tokens: list[Token] = []
    position = 0
    length = len(text)
    while position < length:
        char = text[position]
        if char.isspace():
            position += 1
            continue
        if char == "'":
            end = position + 1
            parts: list[str] = []
            while True:
                if end >= length:
                    raise WebTassiliSyntaxError(
                        "unterminated string literal", column=position)
                if text[end] == "'":
                    if end + 1 < length and text[end + 1] == "'":
                        parts.append("'")
                        end += 2
                        continue
                    break
                parts.append(text[end])
                end += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), position))
            position = end + 1
            continue
        if char.isdigit() or (char == "-" and position + 1 < length
                              and text[position + 1].isdigit()):
            end = position + 1
            while end < length and (text[end].isdigit() or text[end] == "."):
                end += 1
            raw = text[position:end]
            try:
                value: Any = float(raw) if "." in raw else int(raw)
            except ValueError:
                # ``1.2.3``, or a digit ``int`` refuses (``²``).
                raise WebTassiliSyntaxError(
                    f"malformed number {raw!r}", column=position) from None
            tokens.append(Token(TokenType.NUMBER, value, position))
            position = end
            continue
        if char.isalpha() or char == "_":
            end = position + 1
            while end < length and (text[end].isalnum() or text[end] in "_-"):
                end += 1
            tokens.append(Token(TokenType.WORD, text[position:end], position))
            position = end
            continue
        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCT, char, position))
            position += 1
            continue
        raise WebTassiliSyntaxError(
            f"unexpected character {char!r}", column=position)
    tokens.append(Token(TokenType.EOF, None, length))
    return tokens
