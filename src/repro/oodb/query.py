"""A small OQL-flavoured query language for the object engine.

Grammar::

    query     := SELECT projection FROM ClassName [alias] [WHERE predicate]
                 [ORDER BY path [ASC|DESC]]
    projection:= '*' | path (',' path)*
    predicate := disjunct (OR disjunct)*
    disjunct  := conjunct (AND conjunct)*
    conjunct  := [NOT] comparison | '(' predicate ')'
    comparison:= path op literal | path LIKE string | path IS [NOT] NULL
    path      := name ('.' name)*     -- dots traverse object references

Path traversal follows object-valued attributes through the database,
so ``supervisor.name`` dereferences the ``supervisor`` reference and
reads its ``name``.  Queries return lists of dicts keyed by the
projection paths.

A text is parsed once (:func:`parse` keeps the last
:data:`~repro.sql.codegen.CACHE_SIZE` texts): the parsed query and its
predicate nodes are immutable, each path split into its segments.

This deliberately mirrors the level of query support the paper's
object stores (ObjectStore, Ontos) exposed through their C++ APIs.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Union

from repro.errors import OqlError
from repro.oodb.objects import Oid, OObject
from repro.sql.codegen import CACHE_SIZE
from repro.sql.lexer import number
from repro.sql.parser import MAX_DEPTH

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<path>[A-Za-z_][\w]*(?:\.[A-Za-z_][\w]*)*)
      | (?P<op><=|>=|<>|!=|=|<|>)
      | (?P<punct>[(),*])
    )""", re.VERBOSE)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IS",
             "NULL", "ORDER", "BY", "ASC", "DESC", "TRUE", "FALSE"}

_TESTS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _tokenize(text: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            if text[position:].strip() == "":
                break
            raise OqlError(f"cannot tokenize OQL near {text[position:position+20]!r}")
        position = match.end()
        if match.lastgroup == "string":
            raw = match.group("string")
            tokens.append(("string", raw[1:-1].replace("''", "'")))
        elif match.lastgroup == "number":
            raw = match.group("number")
            try:
                tokens.append(("number", number(raw)))
            except ValueError:  # more digits than ``int`` converts
                raise OqlError(f"malformed number of {len(raw)} digits") \
                    from None
        elif match.lastgroup == "path":
            word = match.group("path")
            if word.upper() in _KEYWORDS and "." not in word:
                tokens.append(("keyword", word.upper()))
            else:
                tokens.append(("path", word))
        elif match.lastgroup == "op":
            op = match.group("op")
            tokens.append(("op", "<>" if op == "!=" else op))
        else:
            tokens.append(("punct", match.group("punct")))
    tokens.append(("eof", None))
    return tokens


@dataclass(frozen=True)
class Path:
    """An attribute path as written, and its segments after the alias
    (none when it names the alias alone)."""

    text: str
    segments: tuple[str, ...]


def _path(text: str, alias: Optional[str]) -> Path:
    segments = tuple(text.split("."))
    if alias is not None and segments[0] == alias:
        segments = segments[1:]
    return Path(text, segments)


@dataclass(frozen=True)
class _Comparison:
    """``path op value``, ``path LIKE pattern`` or ``path IS [NOT] NULL``.
    *date* is a string value as the date it spells, for an attribute
    holding a date; None when it spells none."""

    path: Path
    op: str
    value: Any
    date: Optional[datetime.date] = None
    pattern: Optional[re.Pattern] = None

    def evaluate(self, obj: OObject, database) -> bool:
        actual = resolve_path(database, obj, self.path)
        op = self.op
        if op == "IS NULL":
            return actual is None
        if op == "IS NOT NULL":
            return actual is not None
        if actual is None:
            return False
        if op == "LIKE":
            return self.pattern.match(str(actual)) is not None
        expected = self.value
        if isinstance(actual, datetime.date) and isinstance(expected, str):
            if self.date is None:
                raise OqlError(f"invalid date literal {expected!r}")
            expected = self.date
        try:
            return _TESTS[op](actual, expected)
        except TypeError:
            return False


def _comparison(path: Path, op: str, value: Any) -> _Comparison:
    date = pattern = None
    if op == "LIKE":
        pattern = re.compile("".join(
            ".*" if char == "%" else "." if char == "_" else re.escape(char)
            for char in str(value)) + "$", re.IGNORECASE | re.DOTALL)
    elif isinstance(value, str):
        try:
            date = datetime.date.fromisoformat(value)
        except ValueError:
            pass
    return _Comparison(path, op, value, date, pattern)


@dataclass(frozen=True)
class _Not:
    inner: "Predicate"

    def evaluate(self, obj, database) -> bool:
        return not self.inner.evaluate(obj, database)


@dataclass(frozen=True)
class _And:
    parts: tuple["Predicate", ...]

    def evaluate(self, obj, database) -> bool:
        return all(part.evaluate(obj, database) for part in self.parts)


@dataclass(frozen=True)
class _Or:
    parts: tuple["Predicate", ...]

    def evaluate(self, obj, database) -> bool:
        return any(part.evaluate(obj, database) for part in self.parts)


Predicate = Union[_Comparison, _Not, _And, _Or]


class _Parser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._pos = 0
        self._alias: Optional[str] = None
        self._depth = 0

    def _peek(self) -> tuple[str, Any]:
        return self._tokens[self._pos]

    def _advance(self) -> tuple[str, Any]:
        token = self._tokens[self._pos]
        if token[0] != "eof":
            self._pos += 1
        return token

    def _accept_keyword(self, *names: str) -> Optional[str]:
        kind, value = self._peek()
        if kind == "keyword" and value in names:
            self._advance()
            return value
        return None

    def _expect_keyword(self, name: str) -> None:
        if self._accept_keyword(name) is None:
            raise OqlError(f"expected {name}, found {self._peek()[1]!r}")

    def parse(self) -> "ParsedQuery":
        self._expect_keyword("SELECT")
        projection, count = self._projection()
        self._expect_keyword("FROM")
        kind, class_name = self._advance()
        if kind != "path" or "." in class_name:
            raise OqlError("expected a class name after FROM")
        kind, value = self._peek()
        if kind == "path" and "." not in value:
            self._alias = value
            self._advance()
        predicate = None
        if self._accept_keyword("WHERE"):
            predicate = self._predicate()
        order_path = None
        order_desc = False
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            kind, text = self._advance()
            if kind != "path":
                raise OqlError("expected a path after ORDER BY")
            order_path = _path(text, self._alias)
            if self._accept_keyword("DESC"):
                order_desc = True
            else:
                self._accept_keyword("ASC")
        kind, value = self._peek()
        if kind != "eof":
            raise OqlError(f"unexpected trailing token {value!r}")
        if projection is not None:  # the alias is known only now
            projection = tuple(_path(text, self._alias) for text in projection)
        return ParsedQuery(projection, count, class_name, predicate,
                           order_path, order_desc)

    def _projection(self) -> tuple[Optional[list[str]], bool]:
        """The projection's paths as written (None for ``*``), and
        whether it is ``COUNT(*)``."""
        kind, value = self._peek()
        if kind == "punct" and value == "*":
            self._advance()
            return None, False
        if kind == "path" and value.upper() == "COUNT" \
                and self._tokens[self._pos + 1] == ("punct", "(") \
                and self._tokens[self._pos + 2] == ("punct", "*") \
                and self._tokens[self._pos + 3] == ("punct", ")"):
            self._pos += 4
            return None, True
        paths = [self._path_text()]
        while self._peek() == ("punct", ","):
            self._advance()
            paths.append(self._path_text())
        return paths, False

    def _path_text(self) -> str:
        kind, value = self._advance()
        if kind != "path":
            raise OqlError(f"expected attribute path, found {value!r}")
        return value

    def _predicate(self):
        parts = [self._conjunction()]
        while self._accept_keyword("OR"):
            parts.append(self._conjunction())
        return parts[0] if len(parts) == 1 else _Or(tuple(parts))

    def _conjunction(self):
        parts = [self._condition()]
        while self._accept_keyword("AND"):
            parts.append(self._condition())
        return parts[0] if len(parts) == 1 else _And(tuple(parts))

    def _nested(self, parse):
        """``parse()``, one level deeper (a ``NOT`` or a parenthesis)."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise OqlError(f"OQL nests deeper than {MAX_DEPTH} levels")
        node = parse()
        self._depth -= 1
        return node

    def _condition(self):
        if self._accept_keyword("NOT"):
            return _Not(self._nested(self._condition))
        if self._peek() == ("punct", "("):
            self._advance()
            inner = self._nested(self._predicate)
            if self._advance() != ("punct", ")"):
                raise OqlError("expected ')'")
            return inner
        path = _path(self._path_text(), self._alias)
        if self._accept_keyword("IS"):
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                return _comparison(path, "IS NOT NULL", None)
            self._expect_keyword("NULL")
            return _comparison(path, "IS NULL", None)
        if self._accept_keyword("LIKE"):
            kind, value = self._advance()
            if kind != "string":
                raise OqlError("LIKE requires a string literal")
            return _comparison(path, "LIKE", value)
        kind, op = self._advance()
        if kind != "op":
            raise OqlError(f"expected comparison operator, found {op!r}")
        return _comparison(path, op, self._literal())

    def _literal(self) -> Any:
        kind, value = self._advance()
        if kind in ("string", "number"):
            return value
        if kind == "keyword" and value in ("TRUE", "FALSE"):
            return value == "TRUE"
        if kind == "keyword" and value == "NULL":
            return None
        raise OqlError(f"expected a literal, found {value!r}")


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed OQL query ready for evaluation; *projection* is None
    for ``*`` and for ``COUNT(*)`` (*count*)."""

    projection: Optional[tuple[Path, ...]]
    count: bool
    class_name: str
    predicate: Optional[Predicate]
    order_path: Optional[Path]
    order_desc: bool


@lru_cache(maxsize=CACHE_SIZE)
def parse(oql: str) -> ParsedQuery:
    """The parsed form of *oql* (memoised; shared by every caller)."""
    return _Parser(oql).parse()


def resolve_path(database, obj: OObject, path: Path) -> Any:
    """Follow *path*'s segments from *obj*, dereferencing object
    attributes through *database*."""
    if not path.segments:
        raise OqlError(f"path {path.text!r} names the alias but no attribute")
    current: Any = obj
    for segment in path.segments:
        if current is None:
            return None
        if isinstance(current, Oid):
            current = database.get(current)
        if not isinstance(current, OObject):
            raise OqlError(f"path {path.text!r}: {segment!r} applied to "
                           f"non-object {current!r}")
        current = current.get(segment)
    if isinstance(current, Oid):
        current = database.get(current)
    return current


def run_query(database, oql: str) -> list[dict[str, Any]]:
    """Parse (once per text) and evaluate *oql* against *database*."""
    parsed = parse(oql)
    candidates = database.extent(parsed.class_name, include_subclasses=True)
    predicate = parsed.predicate
    selected = list(candidates) if predicate is None else [
        candidate for candidate in candidates
        if predicate.evaluate(candidate, database)]
    if parsed.order_path is not None:
        order_path = parsed.order_path
        try:
            selected.sort(key=lambda o: _sort_key(
                resolve_path(database, o, order_path)),
                reverse=parsed.order_desc)
        except TypeError:
            raise OqlError(f"cannot order by {order_path.text!r}: its "
                           "values do not compare") from None
    if parsed.count:
        return [{"count": len(selected)}]
    rows: list[dict[str, Any]] = []
    for obj in selected:
        if parsed.projection is None:
            row = dict(obj.values())
            row["_oid"] = obj.oid.value
            row["_class"] = obj.class_name
        else:
            row = {}
            for path in parsed.projection:
                value = resolve_path(database, obj, path)
                if isinstance(value, OObject):
                    value = value.oid.value
                row[path.text] = value
        rows.append(row)
    return rows


def _sort_key(value: Any):
    # NULLs sort first ascending, matching the relational engine.
    return (value is not None, value)
