"""The WebFINDIT browser (the Java-applet UI of the paper, scripted).

"The browser is the user's interface to WebFINDIT.  It uses the
meta-data stored in the co-databases to educate users about the
available information space, locate the information source servers,
send query to remote databases and display their results."

:class:`Browser` is a programmatic stand-in for the applet: statements
go in as WebTassili text, rendered results come back and accumulate in
a transcript.  :meth:`information_tree` reproduces the left-hand pane
of Figure 4 — coalitions with their member databases.
"""

from __future__ import annotations

from typing import Optional

from repro.core.query_processor import QueryProcessor, Session, WtResult


class Browser:
    """One interactive exploration session."""

    def __init__(self, processor: QueryProcessor, session: Session):
        self._processor = processor
        self.session = session
        #: (statement, result) pairs, oldest first.
        self.transcript: list[tuple[str, WtResult]] = []

    def submit(self, statement: str) -> WtResult:
        """Execute one WebTassili statement and record it."""
        result = self._processor.execute(statement, self.session)
        self.transcript.append((statement, result))
        return result

    # -- guided operations (the applet's buttons) ----------------------------------

    def find(self, information: str) -> WtResult:
        """``Find Coalitions With Information ...``"""
        return self.submit(f"Find Coalitions With Information '{information}'")

    def connect_coalition(self, name: str) -> WtResult:
        return self.submit(f"Connect To Coalition '{name}'")

    def connect_database(self, name: str) -> WtResult:
        return self.submit(f"Connect To Database '{name}'")

    def subclasses(self, class_name: str) -> WtResult:
        return self.submit(f"Display SubClasses of Class '{class_name}'")

    def instances(self, class_name: str) -> WtResult:
        return self.submit(f"Display Instances of Class '{class_name}'")

    def documentation(self, instance: str,
                      class_name: Optional[str] = None) -> WtResult:
        statement = f"Display Document of Instance '{instance}'"
        if class_name:
            statement += f" Of Class '{class_name}'"
        return self.submit(statement)

    def access_information(self, instance: str) -> WtResult:
        return self.submit(
            f"Display Access Information of Instance '{instance}'")

    def interface(self, instance: str) -> WtResult:
        return self.submit(f"Display Interface of Instance '{instance}'")

    def fetch(self, database: str, native_query: str) -> WtResult:
        """The Fetch button of Figure 6: run a native query."""
        escaped = native_query.replace("'", "''")
        return self.submit(f"Query '{database}' Native '{escaped}'")

    def invoke(self, database: str, type_name: str, function: str,
               *args) -> WtResult:
        rendered_args = ", ".join(_literal(a) for a in args)
        statement = (f"Invoke '{function}' Of Type '{type_name}' "
                     f"On '{database}'")
        if args:
            statement += f" With ({rendered_args})"
        return self.submit(statement)

    # -- display -------------------------------------------------------------------

    def information_tree(self) -> str:
        """Figure-4-style tree of the coalitions known at the current
        entry point, with member databases as leaves."""
        coalitions = self._processor._read(self.session.metadata_source,
                                           "known_coalitions")
        lines = [f"Information space (from co-database of "
                 f"{self.session.metadata_source}):"]
        for coalition in coalitions:
            lines.append(f"  + {coalition.name}  "
                         f"[{coalition.information_type}]")
            for member in coalition.members:
                lines.append(f"      - {member}")
        return "\n".join(lines)

    def render_transcript(self) -> str:
        """The whole session as alternating prompt/response text."""
        return "\n\n".join(f"webtassili> {statement}\n{result.text}"
                           for statement, result in self.transcript)


def _literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return repr(value)
