"""Recursive-descent parser for WebTassili.

Multi-word names (``Royal Brisbane Hospital``) are collected greedily
until the next contextual keyword, matching the prose-like statement
style shown throughout the paper.

:func:`parse` is a pure function of the statement text, memoised over
the last :data:`PARSE_CACHE_SIZE` texts: a browsing session sends the
same few statements again and again, and the frozen tree (see
:mod:`repro.webtassili.ast`) is shared by every session that sends
one.  A parse reads nothing but its text (:data:`KEYWORDS` is a
constant), so the memo is never invalidated.  A text that fails to
parse is not memoised and raises the same error on every call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional

from repro.errors import WebTassiliSyntaxError
from repro.webtassili import ast
from repro.webtassili.lexer import KEYWORDS, Token, TokenType, tokenize

#: Statement texts whose trees :func:`parse` keeps (the SQL engine's
#: statement cache holds as many statement shapes).
PARSE_CACHE_SIZE = 512


class Parser:
    """Parses one WebTassili statement."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._pos = 0

    # -- token plumbing ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_word(self, *words: str) -> Optional[str]:
        token = self._peek()
        if token.type is TokenType.WORD and token.upper in words:
            self._advance()
            return token.upper
        return None

    def _expect_word(self, *words: str) -> str:
        accepted = self._accept_word(*words)
        if accepted is None:
            raise self._error(f"expected {' or '.join(words)}")
        return accepted

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == punct:
            self._advance()
            return True
        return False

    def _error(self, message: str) -> WebTassiliSyntaxError:
        token = self._peek()
        found = token.value if token.type is not TokenType.EOF else "<end>"
        return WebTassiliSyntaxError(f"{message}, found {found!r}",
                                     column=token.position)

    def _name(self, stop_words: frozenset[str] = KEYWORDS) -> str:
        """A quoted string, or one-or-more bare words up to a keyword."""
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        words: list[str] = []
        while True:
            token = self._peek()
            if token.type is not TokenType.WORD:
                break
            if token.upper in stop_words and words:
                break
            words.append(str(token.value))
            self._advance()
        if not words:
            raise self._error("expected a name")
        return " ".join(words)

    def _string(self) -> str:
        token = self._peek()
        if token.type is not TokenType.STRING:
            raise self._error("expected a quoted string")
        self._advance()
        return token.value

    def _text_or_name(self) -> str:
        """Information topics may be quoted or bare multi-word."""
        if self._peek().type is TokenType.STRING:
            return self._string()
        return self._name()

    def _value(self) -> Any:
        token = self._peek()
        if token.type is TokenType.STRING or token.type is TokenType.NUMBER:
            self._advance()
            return token.value
        if token.type is TokenType.WORD and token.upper in ("TRUE", "FALSE"):
            self._advance()
            return token.upper == "TRUE"
        if token.type is TokenType.WORD and token.upper == "NULL":
            self._advance()
            return None
        raise self._error("expected a literal value")

    def _finish(self) -> None:
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    # -- entry -------------------------------------------------------------------

    def parse(self) -> ast.WtStatement:
        token = self._peek()
        if token.type is not TokenType.WORD:
            raise self._error("expected a statement")
        keyword = token.upper
        handlers = {
            "FIND": self._find,
            "DISPLAY": self._display,
            "CONNECT": self._connect,
            "QUERY": self._query,
            "INVOKE": self._invoke,
            "CREATE": self._create,
            "DISSOLVE": self._dissolve,
            "ADVERTISE": self._advertise,
            "JOIN": self._join,
            "LEAVE": self._leave,
            "DROP": self._drop,
        }
        handler = handlers.get(keyword)
        if handler is None:
            raise self._error("unknown statement")
        statement = handler()
        self._finish()
        return statement

    # -- exploration -----------------------------------------------------------------

    def _find(self) -> ast.WtStatement:
        self._expect_word("FIND")
        kind = self._expect_word("COALITIONS", "SOURCES", "DATABASES")
        self._expect_word("WITH")
        self._expect_word("INFORMATION")
        information = self._text_or_name()
        structure = self._structure_tail()
        if kind == "COALITIONS":
            return ast.FindCoalitions(information=information,
                                      structure=structure)
        return ast.FindSources(information=information,
                               structure=structure)

    def _structure_tail(self) -> tuple[str, ...]:
        """Optional ``Structure (name, ...)`` qualifier."""
        if not self._accept_word("STRUCTURE"):
            return ()
        if not self._accept_punct("("):
            raise self._error("expected '(' after STRUCTURE")
        names = [self._structure_name()]
        while self._accept_punct(","):
            names.append(self._structure_name())
        if not self._accept_punct(")"):
            raise self._error("expected ')'")
        return tuple(names)

    def _structure_name(self) -> str:
        """One attribute path or function name (dots allowed)."""
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        parts = []
        while True:
            token = self._peek()
            if token.type is not TokenType.WORD:
                break
            parts.append(str(token.value))
            self._advance()
            if self._peek().type is TokenType.PUNCT \
                    and self._peek().value == ".":
                self._advance()
                parts.append(".")
                continue
            break
        if not parts:
            raise self._error("expected a structure element name")
        return "".join(parts)

    def _display(self) -> ast.WtStatement:
        self._expect_word("DISPLAY")
        what = self._peek()
        if what.type is not TokenType.WORD:
            raise self._error("expected DISPLAY target")
        target = what.upper
        if target == "COALITIONS":
            self._advance()
            self._expect_word("WITH")
            self._expect_word("INFORMATION")
            return ast.FindCoalitions(information=self._text_or_name())
        if target == "SUBCLASSES":
            self._advance()
            self._expect_word("OF")
            self._expect_word("CLASS")
            return ast.DisplaySubclasses(class_name=self._name())
        if target == "INSTANCES":
            self._advance()
            self._expect_word("OF")
            self._expect_word("CLASS")
            return ast.DisplayInstances(class_name=self._name())
        if target in ("DOCUMENT", "DOCUMENTATION"):
            self._advance()
            self._expect_word("OF")
            self._expect_word("INSTANCE")
            instance = self._name()
            class_name = None
            if self._accept_word("OF"):
                self._expect_word("CLASS")
                class_name = self._name()
            return ast.DisplayDocument(instance_name=instance,
                                       class_name=class_name)
        if target == "ACCESS":
            self._advance()
            self._expect_word("INFORMATION")
            self._expect_word("OF")
            self._expect_word("INSTANCE")
            return ast.DisplayAccessInfo(instance_name=self._name())
        if target == "INTERFACE":
            self._advance()
            self._expect_word("OF")
            self._expect_word("INSTANCE")
            return ast.DisplayInterface(instance_name=self._name())
        if target == "STRUCTURE":
            self._advance()
            self._expect_word("OF")
            self._expect_word("INSTANCE")
            return ast.DisplayStructure(instance_name=self._name())
        if target == "SERVICE":
            self._advance()
            self._expect_word("LINKS")
            self._expect_word("OF")
            kind = self._expect_word("COALITION", "DATABASE").lower()
            return ast.DisplayServiceLinks(target_kind=kind, name=self._name())
        raise self._error("unknown DISPLAY target")

    def _connect(self) -> ast.WtStatement:
        self._expect_word("CONNECT")
        self._expect_word("TO")
        kind = self._expect_word("COALITION", "DATABASE").lower()
        return ast.ConnectTo(target_kind=kind, name=self._name())

    # -- data level ----------------------------------------------------------------------

    def _query(self) -> ast.WtStatement:
        self._expect_word("QUERY")
        database = self._name()
        self._expect_word("NATIVE")
        return ast.NativeQuery(database_name=database, text=self._string())

    def _invoke(self) -> ast.WtStatement:
        self._expect_word("INVOKE")
        function_name = self._name()
        self._expect_word("OF")
        self._expect_word("TYPE")
        type_name = self._name()
        self._expect_word("ON")
        on_coalition = self._accept_word("COALITION") is not None
        self._accept_word("DATABASE")
        database = self._name()
        arguments: list[Any] = []
        if self._accept_word("WITH"):
            if not self._accept_punct("("):
                raise self._error("expected '(' after WITH")
            if not self._accept_punct(")"):
                arguments.append(self._value())
                while self._accept_punct(","):
                    arguments.append(self._value())
                if not self._accept_punct(")"):
                    raise self._error("expected ')'")
        return ast.InvokeFunction(function_name=function_name,
                                  type_name=type_name,
                                  database_name=database,
                                  arguments=tuple(arguments),
                                  on_coalition=on_coalition)

    # -- maintenance -----------------------------------------------------------------------

    def _create(self) -> ast.WtStatement:
        self._expect_word("CREATE")
        if self._accept_word("COALITION"):
            name = self._name()
            self._expect_word("WITH")
            self._expect_word("INFORMATION")
            return ast.CreateCoalition(name=name,
                                       information=self._text_or_name())
        if self._accept_word("SERVICE"):
            self._expect_word("LINK")
            self._expect_word("FROM")
            from_kind = self._expect_word("COALITION", "DATABASE").lower()
            from_name = self._name()
            self._expect_word("TO")
            to_kind = self._expect_word("COALITION", "DATABASE").lower()
            to_name = self._name()
            description = None
            if self._accept_word("WITH"):
                self._expect_word("DESCRIPTION")
                description = self._string()
            return ast.CreateServiceLink(from_kind=from_kind,
                                         from_name=from_name,
                                         to_kind=to_kind, to_name=to_name,
                                         description=description)
        raise self._error("expected COALITION or SERVICE LINK after CREATE")

    def _dissolve(self) -> ast.WtStatement:
        self._expect_word("DISSOLVE")
        self._expect_word("COALITION")
        return ast.DissolveCoalition(name=self._name())

    def _advertise(self) -> ast.WtStatement:
        self._expect_word("ADVERTISE")
        self._expect_word("SOURCE")
        name = self._name()
        self._expect_word("INFORMATION")
        information = self._text_or_name()
        clauses: dict[str, Any] = {}
        interface: list[str] = []
        while True:
            if self._accept_word("DOCUMENTATION"):
                clauses["documentation"] = self._string()
            elif self._accept_word("LOCATION"):
                clauses["location"] = self._string()
            elif self._accept_word("WRAPPER"):
                clauses["wrapper"] = self._string()
            elif self._accept_word("INTERFACE"):
                interface.append(self._name())
                while self._accept_punct(","):
                    interface.append(self._name())
            else:
                break
        return ast.AdvertiseSource(name=name, information=information,
                                   interface=tuple(interface), **clauses)

    def _join(self) -> ast.WtStatement:
        self._expect_word("JOIN")
        self._expect_word("DATABASE")
        database = self._name()
        self._expect_word("TO")
        self._expect_word("COALITION")
        return ast.JoinCoalition(database_name=database,
                                 coalition_name=self._name())

    def _leave(self) -> ast.WtStatement:
        self._expect_word("LEAVE")
        self._expect_word("DATABASE")
        database = self._name()
        self._expect_word("FROM")
        self._expect_word("COALITION")
        return ast.LeaveCoalition(database_name=database,
                                  coalition_name=self._name())

    def _drop(self) -> ast.WtStatement:
        self._expect_word("DROP")
        self._expect_word("SERVICE")
        self._expect_word("LINK")
        self._expect_word("FROM")
        from_kind = self._expect_word("COALITION", "DATABASE").lower()
        from_name = self._name()
        self._expect_word("TO")
        to_kind = self._expect_word("COALITION", "DATABASE").lower()
        to_name = self._name()
        return ast.DropServiceLink(from_kind=from_kind, from_name=from_name,
                                   to_kind=to_kind, to_name=to_name)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> ast.WtStatement:
    """Parse one WebTassili statement (memoised; the tree is shared)."""
    return Parser(text).parse()
