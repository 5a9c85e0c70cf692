"""The *shape* of a statement text: the text with its literals cut out.

A statement cache keyed by shape serves every text that differs from a
known one only in the values of its number and string literals: the
SQL engine plans a shape once (:func:`repro.sql.lexer.shape`), and
WebTassili parses one once (:func:`repro.webtassili.lexer.shape`).
Each language cuts with one regex built from its own lexer's patterns;
:func:`cut` is the pass both share.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional


def cut(pattern: re.Pattern, text: str, number: Callable[[str], Any],
        mark: Callable[[Any], str]) -> tuple[Optional[str], list]:
    """``(key, values)``: *text* with each literal replaced by
    ``mark(value)``, and the literals' values in text order.

    Each match of *pattern* is a run of text that holds no literal,
    then a number (its value ``number(lexeme)``), a ``'string'`` with
    ``''`` escapes, a quote no string closes, or the end.  The key is
    None when the text cannot be cut that way (a quote is not closed, a
    number is malformed, a NUL stands outside a literal: every mark
    holds one NUL); such a text is parsed as it stands."""
    pieces: list[str] = []
    values: list = []
    for run, lexeme, string, unclosed in pattern.findall(text):
        pieces.append(run)
        if lexeme:
            try:
                value = number(lexeme)
            except ValueError:
                return None, values
        elif string:
            value = string[1:-1].replace("''", "'")
        elif unclosed:
            return None, values
        else:
            continue  # the end
        pieces.append(mark(value))
        values.append(value)
    key = "".join(pieces) if values else text
    return (key if key.count("\0") == len(values) else None), values
