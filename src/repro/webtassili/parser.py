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

Behind the text memo is a memo of trees by *shape*
(:func:`repro.webtassili.lexer.shape`): a native query or an invoke
with new literals is a new text, but rarely a new shape.  The parser
never looks inside a literal, so the tree of a shape is parsed once,
with each literal a slot, and filled with each text's values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields
from functools import lru_cache
from typing import Any, Callable, Optional

from repro.errors import WebTassiliSyntaxError
from repro.webtassili import ast
from repro.webtassili.lexer import (KEYWORDS, Token, TokenType, shape,
                                    tokenize)

#: Statement texts whose trees :func:`parse` keeps, and shapes whose
#: templates it keeps (the SQL engine's statement cache holds as many
#: statement shapes).
PARSE_CACHE_SIZE = 512


#: DISPLAY targets read as words, then the one name of the statement.
_DISPLAY_NAMED = {
    "SUBCLASSES": (("OF", "CLASS"), ast.DisplaySubclasses),
    "INSTANCES": (("OF", "CLASS"), ast.DisplayInstances),
    "ACCESS": (("INFORMATION", "OF", "INSTANCE"), ast.DisplayAccessInfo),
    "INTERFACE": (("OF", "INSTANCE"), ast.DisplayInterface),
    "STRUCTURE": (("OF", "INSTANCE"), ast.DisplayStructure),
}


_WORD_VALUES = {"TRUE": True, "FALSE": False, "NULL": None}


class _Slot(int):
    """Where the *n*-th literal of a shaped text goes in its tree."""


class Parser:
    """Parses one WebTassili statement.  A *shaped* parser reads each
    number and string literal as a :class:`_Slot` and keeps the values
    it read in :attr:`literals`."""

    def __init__(self, text: str, shaped: bool = False):
        self._tokens = tokenize(text)
        self._pos = 0
        self.literals: list = []
        if shaped:
            literals = self.literals
            for index, token in enumerate(self._tokens):
                if token.type is TokenType.STRING \
                        or token.type is TokenType.NUMBER:
                    self._tokens[index] = token._replace(
                        value=_Slot(len(literals)))
                    literals.append(token.value)

    # -- token plumbing ---------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]  # EOF is never passed

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

    def _expect_words(self, *words: str) -> None:
        """Each of *words*, in order."""
        for word in words:
            self._expect_word(word)

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

    def _name(self) -> str:
        """A quoted string, or one-or-more bare words up to a keyword
        (information topics, too, may be either)."""
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        words: list[str] = []
        while True:
            token = self._peek()
            if token.type is not TokenType.WORD:
                break
            if token.upper in KEYWORDS and words:
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

    def _value(self) -> Any:
        token = self._peek()
        if token.type is TokenType.STRING or token.type is TokenType.NUMBER:
            self._advance()
            return token.value
        if token.type is TokenType.WORD and token.upper in _WORD_VALUES:
            self._advance()
            return _WORD_VALUES[token.upper]
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
        self._expect_words("WITH", "INFORMATION")
        information = self._name()
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
            self._expect_words("WITH", "INFORMATION")
            return ast.FindCoalitions(information=self._name())
        if target in _DISPLAY_NAMED:
            self._advance()
            words, statement = _DISPLAY_NAMED[target]
            self._expect_words(*words)
            return statement(self._name())
        if target in ("DOCUMENT", "DOCUMENTATION"):
            self._advance()
            self._expect_words("OF", "INSTANCE")
            instance = self._name()
            class_name = None
            if self._accept_word("OF"):
                self._expect_word("CLASS")
                class_name = self._name()
            return ast.DisplayDocument(instance_name=instance,
                                       class_name=class_name)
        if target == "SERVICE":
            self._advance()
            self._expect_words("LINKS", "OF")
            kind = self._expect_word("COALITION", "DATABASE").lower()
            return ast.DisplayServiceLinks(target_kind=kind, name=self._name())
        raise self._error("unknown DISPLAY target")

    def _connect(self) -> ast.WtStatement:
        self._expect_words("CONNECT", "TO")
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
        self._expect_words("OF", "TYPE")
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
            self._expect_words("WITH", "INFORMATION")
            return ast.CreateCoalition(name=name,
                                       information=self._name())
        if self._accept_word("SERVICE"):
            self._expect_words("LINK", "FROM")
            ends = self._link_ends()
            description = None
            if self._accept_word("WITH"):
                self._expect_word("DESCRIPTION")
                description = self._string()
            return ast.CreateServiceLink(*ends, description=description)
        raise self._error("expected COALITION or SERVICE LINK after CREATE")

    def _dissolve(self) -> ast.WtStatement:
        self._expect_words("DISSOLVE", "COALITION")
        return ast.DissolveCoalition(name=self._name())

    def _advertise(self) -> ast.WtStatement:
        self._expect_words("ADVERTISE", "SOURCE")
        name = self._name()
        self._expect_word("INFORMATION")
        information = self._name()
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
        return self._membership("JOIN", "TO", ast.JoinCoalition)

    def _leave(self) -> ast.WtStatement:
        return self._membership("LEAVE", "FROM", ast.LeaveCoalition)

    def _membership(self, verb: str, preposition: str, statement):
        """``<verb> Database <name> <preposition> Coalition <name>``."""
        self._expect_words(verb, "DATABASE")
        database = self._name()
        self._expect_words(preposition, "COALITION")
        return statement(database, self._name())

    def _drop(self) -> ast.WtStatement:
        self._expect_words("DROP", "SERVICE", "LINK", "FROM")
        return ast.DropServiceLink(*self._link_ends())

    def _link_ends(self) -> tuple[str, str, str, str]:
        """``<kind> <name> To <kind> <name>``: a service link's ends."""
        from_kind = self._expect_word("COALITION", "DATABASE").lower()
        from_name = self._name()
        self._expect_word("TO")
        return (from_kind, from_name,
                self._expect_word("COALITION", "DATABASE").lower(),
                self._name())


#: Shape -> the function that fills its tree with a text's literals,
#: least recently used first out.
_templates: OrderedDict[str, Callable[[list], ast.WtStatement]] = OrderedDict()
_templates_lock = threading.Lock()


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> ast.WtStatement:
    """Parse one WebTassili statement (memoised; the tree is shared)."""
    key, values = shape(text)
    if key is None or not values:
        return Parser(text).parse()
    with _templates_lock:
        template = _templates.get(key)
        if template is not None:
            _templates.move_to_end(key)
    if template is None:
        try:
            parser = Parser(text, shaped=True)
            template = _template(parser.parse())
        except WebTassiliSyntaxError:
            # Raise the error a parse of the text itself raises: its
            # message quotes the literal, not a slot.
            return Parser(text).parse()
        if list(zip(map(type, parser.literals), parser.literals)) \
                != list(zip(map(type, values), values)):
            # The shape cut the text where the lexer did not.
            return Parser(text).parse()
        with _templates_lock:
            _templates[key] = template
            while len(_templates) > PARSE_CACHE_SIZE:
                _templates.popitem(last=False)
    return template(values)


def _template(statement: ast.WtStatement
              ) -> Callable[[list], ast.WtStatement]:
    """``fill(values)``: *statement* with each slot replaced by its
    value, the slots of a sequence field included."""
    build = type(statement)
    parts = [getattr(statement, field.name) for field in fields(statement)]

    def fill(values: list) -> ast.WtStatement:
        return build(*[values[part] if type(part) is _Slot else tuple(
            [values[item] if type(item) is _Slot else item for item in part])
            if type(part) is tuple else part for part in parts])
    return fill
