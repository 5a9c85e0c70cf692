"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenType(enum.Enum):
    """Lexical categories produced by :func:`repro.sql.lexer.tokenize`."""

    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    INTEGER = "INTEGER"
    REAL = "REAL"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    PARAM = "PARAM"
    EOF = "EOF"


#: Reserved words.  Identifiers that match (case-insensitively) are
#: emitted as KEYWORD tokens with an upper-cased value.
KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
    "DESC", "LIMIT", "OFFSET", "DISTINCT", "ALL", "AS", "AND", "OR",
    "NOT", "NULL", "IS", "IN", "LIKE", "BETWEEN", "EXISTS", "UNION",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE",
    "TABLE", "DROP", "INDEX", "ON", "PRIMARY", "KEY", "UNIQUE",
    "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "CROSS", "USING",
    "TRUE", "FALSE", "CASE", "WHEN", "THEN", "ELSE", "END",
    "COUNT", "SUM", "AVG", "MIN", "MAX",
    "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION", "WORK",
    "VIEW", "CAST", "EXPLAIN", "ALTER", "ADD", "COLUMN", "DEFAULT",
    "IF",
})

#: Multi-character operators, longest first so the lexer can greedily match.
OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%")

PUNCTUATION = frozenset({"(", ")", ",", ".", ";"})


class Token(NamedTuple):
    """A single lexical token with source position for error messages."""

    type: TokenType
    value: Any
    line: int
    column: int

    def matches(self, token_type: TokenType, value: Any = None) -> bool:
        """True when this token has *token_type* and (optionally) *value*."""
        if self.type is not token_type:
            return False
        return value is None or self.value == value
