"""Answer checking: every statement's result against an independent
expectation, feeding ``failed`` / ``fail_frac``.

A :class:`workloads.Statement` carries a ``check`` instruction:

``("twin",)``                same canonical answer as a fresh in-memory
                             twin federation that only ever sees each
                             distinct (home, session state, text) once
``("unresolved",)``          a discovery that must find nothing
``("direct", db, sql, keep)``rows equal ``Database.execute(sql)`` on the
                             native engine (``keep``: the direct answer
                             may be remembered, its tables never change)
``("paired", db, sql)``      as ``direct``, with the rows the runner
                             fetched next to the timed call
``("scalar", db, sql)``      value equals the direct query's scalar
``("equals", value)``        value equals a seeded constant
``("rows", rows)``           rows equal the given tuple of tuples
``("lists", name, present)`` displayed instances do / do not list *name*
``("leads", name, present)`` discovery does / does not lead to *name*
``("ack",)``                 the statement completed
"""

from __future__ import annotations


def canonical(result):
    """A plain, comparable form of one ``WtResult``: names and values,
    no cost counters (a cache may legitimately change those)."""
    kind, data = result.kind, result.data
    if kind == "coalitions":
        return (data.resolved,
                tuple((lead.name, lead.through_link) for lead in data.leads))
    if kind in ("sources", "instances"):
        return tuple(description.name for description in data)
    if kind == "connect":
        if isinstance(data, dict):
            return tuple(sorted(data.items()))
        return (data.name, data.location)
    if kind == "document":
        return (data["description"].name,
                tuple((d["format"], d["url"], d["content"])
                      for d in data["documents"]))
    if kind == "access":
        return (data.name, data.location, data.wrapper, tuple(data.interface))
    if kind == "links":
        return tuple(link.label for link in data)
    if kind == "rows":
        return _rows(data)
    if kind in ("subclasses", "structure"):
        return tuple(data)
    return repr(data)  # interface descriptions, scalar and dict-row values


def _rows(value):
    if hasattr(value, "columns"):
        return (tuple(value.columns), tuple(value.rows))
    return repr(value)


class Oracle:
    """Checks the answers of the deployment under test, and counts."""

    def __init__(self, twin):
        self._relational = None
        self._twin = twin
        self._golden: dict[tuple, object] = {}
        self._direct: dict[tuple, object] = {}
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def use(self, deployment) -> None:
        """Check *deployment* from now on.  Remembered answers carry
        over: every deployment of a run holds the same data."""
        self._relational = deployment.relational

    # ------------------------------------------------------------ expectations --

    def _twin_answer(self, statement):
        key = (statement.home, statement.state, statement.text)
        if key not in self._golden:
            browser = self._twin.browser(statement.home)
            for text in statement.state:
                browser.submit(text)
            self._golden[key] = canonical(browser.submit(statement.text))
        return self._golden[key]

    def direct(self, database: str, sql: str, keep: bool = False):
        """Run *sql* on the native engine, outside the federation."""
        key = (database, sql)
        if keep and key in self._direct:
            return self._direct[key]
        answer = _rows(self._relational[database].execute(sql))
        if keep:
            self._direct[key] = answer
        return answer

    # ----------------------------------------------------------------- verdict --

    def _wrong(self, statement, result, paired):
        """Why *result* is not the right answer, or ``None``."""
        check = statement.check
        how = check[0]
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        if how == "ack":
            return None
        if how == "twin":
            expected, got = self._twin_answer(statement), canonical(result)
        elif how == "unresolved":
            expected, got = (False, ()), canonical(result)
        elif how == "direct":
            expected, got = self.direct(*check[1:]), _rows(result.data)
        elif how == "paired":
            expected, got = paired, _rows(result.data)
        elif how == "scalar":
            expected, got = self.direct(*check[1:])[1][0][0], result.data
        elif how == "equals":
            expected, got = check[1], result.data
        elif how == "rows":
            expected, got = check[1], tuple(result.data.rows)
        elif how in ("lists", "leads"):
            names = [d.name for d in result.data] if how == "lists" \
                else [lead.name for lead in result.data.leads]
            expected, got = check[2], check[1] in names
        else:
            return f"unknown check {how!r}"
        if expected == got:
            return None
        return f"expected {_clip(expected)}, got {_clip(got)}"

    def verify(self, statements, results, paired_rows) -> None:
        """Count every statement; record the ones answered wrongly."""
        paired = iter(paired_rows)
        for statement, result in zip(statements, results):
            rows = next(paired) if statement.check[0] == "paired" else None
            self.attempted += 1
            reason = self._wrong(statement, result, rows)
            if reason is not None:
                self.fail(f"{statement.text!r} from {statement.home!r}: "
                          f"{reason}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(message)


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."
