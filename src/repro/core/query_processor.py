"""The WebTassili query processor (query layer of Figure 3).

"The query processor receives queries from the browser, coordinates
their execution and returns their results ... it interacts with the
communication layer which dispatches WebTassili queries to the
co-databases (meta-data layer) and databases (data layer)."

:class:`QueryProcessor` interprets parsed WebTassili statements against

* a :class:`~repro.core.discovery.DiscoveryEngine` (topic resolution),
* co-database clients (meta-data queries),
* Information Source Interfaces (data queries),
* a :class:`~repro.core.registry.Registry` (maintenance statements).

Results come back as :class:`WtResult`: structured data plus the
rendered text a browser displays (the content of Figures 4–6) — which
the data-level statements render only when it is first read: laying a
500-row answer out as a table costs more than fetching it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.discovery import (CoDatabaseClient, DiscoveryEngine,
                                  DiscoveryResult)
from repro.core.model import SourceDescription, topic_scorer
from repro.core.registry import Registry
from repro.core.resilience import ResiliencePolicy, call_policy
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import (ReproError, UnknownCoalition, UnknownDatabase,
                          WebFinditError)
from repro.sql.result import ResultSet
from repro.webtassili import ast
from repro.webtassili.parser import parse
from repro.wrappers.base import InformationSourceInterface


class WtResult:
    """Outcome of one WebTassili statement.

    *text* is the rendered string, or a zero-argument callable that
    renders it: called on the first read of :attr:`text`, never again.
    """

    def __init__(self, kind: str, data: Any,
                 text: str | Callable[[], str]):
        self.kind = kind
        self.data = data
        self._text = text

    @property
    def text(self) -> str:
        if not isinstance(self._text, str):
            self._text = self._text()
        return self._text

    def __str__(self) -> str:
        return self.text


@dataclass
class Session:
    """Per-user interaction state.

    *home_database* is the participating database the user belongs to
    (§2: "We assume that a user of our system is already a user of a
    participating database").  Connecting to a coalition or database
    moves the metadata entry point.
    """

    home_database: str
    current_coalition: Optional[str] = None
    entry_database: Optional[str] = None
    history: list[str] = field(default_factory=list)

    @property
    def metadata_source(self) -> str:
        """Which database's co-database answers meta-queries right now."""
        return self.entry_database or self.home_database


class QueryProcessor:
    """Interprets WebTassili statements for one session."""

    def __init__(self,
                 resolver: Callable[[str], CoDatabaseClient],
                 wrapper_for: Callable[[str], InformationSourceInterface],
                 registry: Optional[Registry] = None,
                 match_threshold: float = 0.5,
                 policy: Optional[ResiliencePolicy] = None):
        self._wrapper_for = wrapper_for
        self._registry = registry
        self._ontology = registry.ontology if registry is not None else None
        self.policy = policy
        self.discovery = DiscoveryEngine(resolver,
                                         match_threshold=match_threshold,
                                         policy=policy)
        #: Statements processed (Figure-3 layer accounting).
        self.statements_processed = 0

    # -------------------------------------------------------------- dispatch --

    def execute(self, statement: str | ast.WtStatement,
                session: Session) -> WtResult:
        """Parse (if needed) and execute one statement.

        Its call context is set here, once: the deadline and the retry
        budget reach every hop the handler makes — co-database reads
        (each a guarded call) and wrapper calls (never retried).  A
        policy with neither installs nothing: the context would equal
        the enclosing one.
        """
        if isinstance(statement, str):
            session.history.append(statement)
            statement = parse(statement)
        self.statements_processed += 1
        handler_name = f"_do_{type(statement).__name__.lower()}"
        handler = getattr(self, handler_name, None)
        if handler is None:
            raise WebFinditError(
                f"no handler for {type(statement).__name__}")
        policy = self.policy
        if policy is None:
            return handler(statement, session)
        deadline = policy.deadline_for(None)
        budget = policy.retry.budget
        if deadline is None and budget is None:
            return handler(statement, session)
        with call_policy(deadline=deadline, retry_budget=budget):
            return handler(statement, session)

    def _read(self, database_name: str, operation: str, *args: Any) -> Any:
        """One explore read of *database_name*'s co-database, guarded
        like a frontier consultation (:meth:`DiscoveryEngine.read`)."""
        answer, error = self.discovery.read(database_name, operation, *args)
        if error is not None:
            raise error
        return answer

    def _require_registry(self) -> Registry:
        if self._registry is None:
            raise WebFinditError(
                "maintenance statements require an administrative registry")
        return self._registry

    # ------------------------------------------------------------ exploration --

    def _do_findcoalitions(self, statement: ast.FindCoalitions,
                           session: Session) -> WtResult:
        result: DiscoveryResult = self.discovery.discover(
            statement.information, session.metadata_source)
        if statement.structure:
            result.leads[:] = [
                lead for lead in result.leads
                if self._structure_coverage(lead, statement.structure,
                                            result) > 0.0
            ]
        qualifier = (f" structure ({', '.join(statement.structure)})"
                     if statement.structure else "")
        lines = [f"Coalitions with information "
                 f"'{statement.information}'{qualifier}:"]
        if not result.resolved:
            # A degraded sweep that found nothing is *not* evidence of
            # absence — tell the user which part of the space went dark.
            if result.degraded:
                lines.append("    (no answer from the degraded information "
                             "space — partial exploration only)")
            else:
                lines.append(
                    "    (none found in the reachable information space)")
        for lead in result.leads:
            origin = f" via service link {lead.through_link}" \
                if lead.through_link else ""
            path = " -> ".join(lead.via)
            lines.append(
                f"    {lead.name}  [type: {lead.information_type}, "
                f"score {lead.score:.2f}]{origin}  (found through {path})")
        if result.degraded:
            lines.append(
                f"    !! partial exploration: {result.degraded.summary()}")
        lines.append(
            f"    -- consulted {result.codatabases_contacted} co-database(s), "
            f"{result.metadata_calls} metadata calls")
        return WtResult(kind="coalitions", data=result,
                        text="\n".join(lines))

    @staticmethod
    def _structure_matches(requested: str,
                           description: SourceDescription) -> bool:
        """True when *requested* names an exported attribute/function of
        *description* (full path or last segment, case-insensitive)."""
        wanted = requested.lower()
        for element in description.structure:
            lowered = element.lower()
            if lowered == wanted or lowered.endswith("." + wanted):
                return True
        return False

    def _structure_coverage(self, lead, requested: list[str],
                            result: DiscoveryResult) -> float:
        """Fraction of requested structure elements some member of the
        lead's coalition exports."""
        members = self.discovery.members_of(lead, result)
        if not members or not requested:
            return 0.0
        best = 0.0
        for member in members:
            hits = sum(1 for name in requested
                       if self._structure_matches(name, member))
            best = max(best, hits / len(requested))
        return best

    def _do_findsources(self, statement: ast.FindSources,
                        session: Session) -> WtResult:
        """Locate individual databases: resolve coalitions for the
        topic, then filter their member descriptions by it — through
        the deployment's ontology, as the co-databases that found the
        coalitions scored them."""
        result = self.discovery.discover(statement.information,
                                         session.metadata_source)
        score_of = topic_scorer(statement.information, self._ontology)
        sources: list[SourceDescription] = []
        seen: set[str] = set()
        for lead in result.leads:
            for description in self.discovery.members_of(lead, result):
                if description.name in seen:
                    continue
                score = score_of(description.information_type)
                if score < 0.5:
                    continue
                if statement.structure and not all(
                        self._structure_matches(name, description)
                        for name in statement.structure):
                    continue
                seen.add(description.name)
                sources.append((score, description))
        sources.sort(key=lambda pair: (-pair[0], pair[1].name))
        sources = [description for __, description in sources]
        qualifier = (f" structure ({', '.join(statement.structure)})"
                     if statement.structure else "")
        lines = [f"Sources with information "
                 f"'{statement.information}'{qualifier}:"]
        for description in sources:
            lines.append(f"    {description.name}  "
                         f"[{description.information_type}] "
                         f"at {description.location}")
        if not sources:
            lines.append("    (no answer from the degraded information "
                         "space — partial exploration only)"
                         if result.degraded else "    (none found)")
        if result.degraded:
            lines.append(
                f"    !! partial exploration: {result.degraded.summary()}")
        return WtResult(kind="sources", data=sources, text="\n".join(lines))

    def _do_connectto(self, statement: ast.ConnectTo,
                      session: Session) -> WtResult:
        if statement.target_kind == "database":
            description = self._describe_source(statement.name, session)
            session.entry_database = description.name
            return WtResult(
                kind="connect", data=description,
                text=f"Connected to database {description.name} "
                     f"at {description.location}")
        entry = self._entry_for_coalition(statement.name, session)
        session.current_coalition = statement.name
        session.entry_database = entry
        return WtResult(
            kind="connect", data={"coalition": statement.name,
                                  "entry": entry},
            text=f"Connected to coalition {statement.name} "
                 f"(entry point: co-database of {entry})")

    def _entry_for_coalition(self, coalition_name: str,
                             session: Session) -> str:
        """A member database whose co-database can answer queries about
        *coalition_name* — the home database when it is itself a member."""
        if coalition_name in self._read(session.home_database,
                                        "memberships"):
            return session.home_database
        # Sweep (bounded) rather than stop at the first topic match:
        # we need the coalition with this *name*, which may score lower
        # than a topically-similar sibling.
        result = self.discovery.discover(coalition_name,
                                         session.metadata_source,
                                         stop_at_first=False, max_hops=4)
        for lead in result.leads:
            if lead.name == coalition_name and lead.entry_database:
                return lead.entry_database
        raise UnknownCoalition(
            f"cannot find an entry point for coalition {coalition_name!r}")

    def _do_displaysubclasses(self, statement: ast.DisplaySubclasses,
                              session: Session) -> WtResult:
        subclasses = self._read(session.metadata_source, "subclasses_of",
                                statement.class_name)
        lines = [f"SubClasses of Class {statement.class_name}:"]
        if subclasses:
            lines.extend(f"    {name}" for name in subclasses)
        else:
            lines.append("    (no specializations)")
        return WtResult(kind="subclasses", data=subclasses,
                        text="\n".join(lines))

    def _do_displayinstances(self, statement: ast.DisplayInstances,
                             session: Session) -> WtResult:
        instances = self._read(session.metadata_source, "instances_of",
                               statement.class_name)
        lines = [f"Instances of Class {statement.class_name}:"]
        for description in instances:
            lines.append(f"    {description.name}  "
                         f"[{description.information_type}]")
        if not instances:
            lines.append("    (no member databases)")
        return WtResult(kind="instances", data=instances,
                        text="\n".join(lines))

    def _describe_source(self, source_name: str,
                         session: Session) -> SourceDescription:
        """Describe a source, falling back to discovery when the current
        co-database does not know it."""
        try:
            return self._read(session.metadata_source, "describe_instance",
                              source_name)
        except UnknownDatabase:
            pass
        try:
            return self._read(source_name, "describe_instance", source_name)
        except WebFinditError as exc:
            raise UnknownDatabase(
                f"no information source {source_name!r} reachable from "
                f"{session.metadata_source!r}") from exc

    def _do_displaydocument(self, statement: ast.DisplayDocument,
                            session: Session) -> WtResult:
        description = self._describe_source(statement.instance_name, session)
        documents = self._read(description.name, "documents_of",
                               description.name)
        lines = [f"Documentation of {description.name}:"]
        lines.append(f"    URL: {description.documentation_url or '(none)'}")
        for document in documents:
            lines.append(f"    [{document['format']}] "
                         f"{document['url'] or '(inline)'}")
            if document["content"]:
                for content_line in document["content"].splitlines():
                    lines.append(f"        {content_line}")
        return WtResult(kind="document",
                        data={"description": description,
                              "documents": documents},
                        text="\n".join(lines))

    def _do_displayaccessinfo(self, statement: ast.DisplayAccessInfo,
                              session: Session) -> WtResult:
        description = self._describe_source(statement.instance_name, session)
        lines = [f"Access Information of {description.name}:",
                 f"    Location  {description.location}",
                 f"    Wrapper   {description.wrapper}",
                 f"    Interface {', '.join(description.interface) or '(none)'}"]
        return WtResult(kind="access", data=description,
                        text="\n".join(lines))

    def _do_displayinterface(self, statement: ast.DisplayInterface,
                             session: Session) -> WtResult:
        wrapper = self._wrapper_for(statement.instance_name)
        rendered = "\n".join(exported.render()
                             for exported in wrapper.exported_types())
        text = (f"Interface exported by {statement.instance_name} "
                f"({wrapper.native_language}, {wrapper.banner}):\n{rendered}")
        return WtResult(kind="interface", data=wrapper.describe(), text=text)

    def _do_displaystructure(self, statement: ast.DisplayStructure,
                             session: Session) -> WtResult:
        """The information type's 'general structure and behavior'
        (§2.2), as recorded in the co-database — no wrapper contact."""
        description = self._describe_source(statement.instance_name, session)
        lines = [f"Structure exported by {description.name} "
                 f"(types: {', '.join(description.interface) or 'none'}):"]
        for element in description.structure:
            kind = "attribute" if "." in element else "function"
            lines.append(f"    {kind} {element}")
        if not description.structure:
            lines.append("    (no structural description advertised)")
        return WtResult(kind="structure", data=description.structure,
                        text="\n".join(lines))

    def _do_displayservicelinks(self, statement: ast.DisplayServiceLinks,
                                session: Session) -> WtResult:
        kind = EndpointKind.parse(statement.target_kind)
        links = [link for link in self._read(session.metadata_source,
                                             "service_links")
                 if link.involves(kind, statement.name)]
        lines = [f"Service links of {statement.target_kind} "
                 f"{statement.name}:"]
        for link in links:
            lines.append(f"    {link.label}  ({link.kind}; "
                         f"information: {link.information_type or 'n/a'})")
        if not links:
            lines.append("    (none known here)")
        return WtResult(kind="links", data=links, text="\n".join(lines))

    # ------------------------------------------------------------- data level --

    def _do_invokefunction(self, statement: ast.InvokeFunction,
                           session: Session) -> WtResult:
        if statement.on_coalition:
            return self._invoke_on_coalition(statement, session)
        wrapper = self._wrapper_for(statement.database_name)
        value = wrapper.invoke(statement.type_name, statement.function_name,
                               statement.arguments)
        return WtResult(kind="value", data=value, text=lambda: (
            f"{statement.type_name}.{statement.function_name}"
            f"({', '.join(repr(a) for a in statement.arguments)}) "
            f"on {statement.database_name} = {_render_value(value)}"))

    def _invoke_on_coalition(self, statement: ast.InvokeFunction,
                             session: Session) -> WtResult:
        """Fan the invocation out over every member of the coalition
        that exports the type — the 'integrate data from these
        information sources' half of the paper's motivation."""
        coalition_name = statement.database_name
        entry = self._entry_for_coalition(coalition_name, session)
        members = self._read(entry, "instances_of", coalition_name)
        per_source: dict[str, Any] = {}
        errors_seen: dict[str, str] = {}
        for member in members:
            if statement.type_name not in member.interface:
                continue
            try:
                wrapper = self._wrapper_for(member.name)
                per_source[member.name] = wrapper.invoke(
                    statement.type_name, statement.function_name,
                    statement.arguments)
            except ReproError as exc:
                errors_seen[member.name] = str(exc)

        def render() -> str:
            lines = [f"{statement.type_name}.{statement.function_name} "
                     f"across coalition {coalition_name}:"]
            for name, value in per_source.items():
                lines.append(f"    {name}: {_render_value(value)}")
            for name, message in errors_seen.items():
                lines.append(f"    {name}: FAILED ({message})")
            if not per_source and not errors_seen:
                lines.append(f"    (no member exports type "
                             f"{statement.type_name})")
            return "\n".join(lines)

        return WtResult(kind="federated",
                        data={"results": per_source, "errors": errors_seen},
                        text=render)

    def _do_nativequery(self, statement: ast.NativeQuery,
                        session: Session) -> WtResult:
        wrapper = self._wrapper_for(statement.database_name)
        value = wrapper.execute_native(statement.text)
        return WtResult(kind="rows", data=value, text=lambda: (
            f"Native query on {statement.database_name} "
            f"({wrapper.native_language}):\n{_render_value(value)}"))

    # ------------------------------------------------------------ maintenance --

    def _do_createcoalition(self, statement: ast.CreateCoalition,
                            session: Session) -> WtResult:
        registry = self._require_registry()
        coalition = registry.create_coalition(statement.name,
                                              statement.information)
        return WtResult(kind="ack", data=coalition,
                        text=f"Coalition {coalition.name} created "
                             f"(information: {coalition.information_type})")

    def _do_dissolvecoalition(self, statement: ast.DissolveCoalition,
                              session: Session) -> WtResult:
        self._require_registry().dissolve_coalition(statement.name)
        return WtResult(kind="ack", data=statement.name,
                        text=f"Coalition {statement.name} dissolved")

    def _do_advertisesource(self, statement: ast.AdvertiseSource,
                            session: Session) -> WtResult:
        registry = self._require_registry()
        description = SourceDescription(
            name=statement.name,
            information_type=statement.information,
            documentation_url=statement.documentation or "",
            location=statement.location or "",
            wrapper=statement.wrapper or "",
            interface=list(statement.interface))
        registry.advertise(description)
        return WtResult(kind="ack", data=description,
                        text=description.render())

    def _do_joincoalition(self, statement: ast.JoinCoalition,
                          session: Session) -> WtResult:
        self._require_registry().join(statement.database_name,
                                      statement.coalition_name)
        return WtResult(
            kind="ack", data=statement,
            text=f"Database {statement.database_name} joined coalition "
                 f"{statement.coalition_name}")

    def _do_leavecoalition(self, statement: ast.LeaveCoalition,
                           session: Session) -> WtResult:
        self._require_registry().leave(statement.database_name,
                                       statement.coalition_name)
        return WtResult(
            kind="ack", data=statement,
            text=f"Database {statement.database_name} left coalition "
                 f"{statement.coalition_name}")

    def _do_createservicelink(self, statement: ast.CreateServiceLink,
                              session: Session) -> WtResult:
        link = ServiceLink(
            from_kind=EndpointKind.parse(statement.from_kind),
            from_name=statement.from_name,
            to_kind=EndpointKind.parse(statement.to_kind),
            to_name=statement.to_name,
            description=statement.description or "",
            information_type=statement.description or "")
        self._require_registry().add_service_link(link)
        return WtResult(kind="ack", data=link,
                        text=f"Service link {link.label} established "
                             f"({link.kind})")

    def _do_dropservicelink(self, statement: ast.DropServiceLink,
                            session: Session) -> WtResult:
        registry = self._require_registry()
        link = registry.service_link(
            EndpointKind.parse(statement.from_kind), statement.from_name,
            EndpointKind.parse(statement.to_kind), statement.to_name)
        if link is None:
            raise WebFinditError(
                f"no service link from {statement.from_name!r} "
                f"to {statement.to_name!r}")
        registry.remove_service_link(link)
        return WtResult(kind="ack", data=[link],
                        text=f"Service link {link.label} dropped")


def _render_value(value: Any) -> str:
    """Human-readable rendering of a data-level result."""
    if isinstance(value, ResultSet):
        if not value.columns:
            return f"({value.rowcount} row(s) affected)"
        texts = [list(map(str, column)) for column in value.values]
        widths = [max(len(str(name)), max(map(len, column), default=0))
                  for name, column in zip(value.columns, texts)]
        header = "  ".join(str(c).ljust(w)
                           for c, w in zip(value.columns, widths))
        separator = "  ".join("-" * w for w in widths)
        padded = [[text.ljust(width) for text in column]
                  for column, width in zip(texts, widths)]
        body = list(map("  ".join, zip(*padded)))
        return "\n".join([header, separator, *body])
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return "\n".join(str(row) for row in value)
    return repr(value)
