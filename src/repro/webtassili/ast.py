"""AST for WebTassili statements.

Statements split into the paper's two levels: *meta-data* exploration
(find/connect/display) and *data* access (invoke/native query), plus
the definition & maintenance constructs WebTassili provides for the
information space (create/dissolve coalitions, advertise sources,
join/leave, service links).

Every statement is a frozen dataclass whose sequence fields are
tuples: :func:`repro.webtassili.parse` memoises its trees, so one
tree is shared by every session that sends the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class WtStatement:
    """Base class for every WebTassili statement."""


# -- exploration (meta-data level) --------------------------------------------

@dataclass(frozen=True)
class FindCoalitions(WtStatement):
    """``Find Coalitions With Information <topic>
    [Structure (name, ...)]``.

    *structure* optionally constrains matches to coalitions whose
    members export the named attributes/functions — the paper's "search
    for an information type while providing its structure".
    """

    information: str
    structure: tuple[str, ...] = ()


@dataclass(frozen=True)
class FindSources(WtStatement):
    """``Find Sources With Information <topic> [Structure (name, ...)]``
    — locate individual information sources (databases) rather than
    coalitions, optionally constrained by exported structure."""

    information: str
    structure: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConnectTo(WtStatement):
    """``Connect To Coalition <name>`` / ``Connect To Database <name>``."""

    target_kind: str  # "coalition" | "database"
    name: str


@dataclass(frozen=True)
class DisplaySubclasses(WtStatement):
    """``Display SubClasses of Class <name>``."""

    class_name: str


@dataclass(frozen=True)
class DisplayInstances(WtStatement):
    """``Display Instances of Class <name>``."""

    class_name: str


@dataclass(frozen=True)
class DisplayDocument(WtStatement):
    """``Display Document of Instance <name> [Of Class <class>]``."""

    instance_name: str
    class_name: Optional[str] = None


@dataclass(frozen=True)
class DisplayAccessInfo(WtStatement):
    """``Display Access Information of Instance <name>``."""

    instance_name: str


@dataclass(frozen=True)
class DisplayInterface(WtStatement):
    """``Display Interface of Instance <name>``."""

    instance_name: str


@dataclass(frozen=True)
class DisplayStructure(WtStatement):
    """``Display Structure of Instance <name>`` — the exported
    attribute/function vocabulary stored in the co-database."""

    instance_name: str


@dataclass(frozen=True)
class DisplayServiceLinks(WtStatement):
    """``Display Service Links of Coalition|Database <name>``."""

    target_kind: str
    name: str


# -- data level ------------------------------------------------------------------

@dataclass(frozen=True)
class InvokeFunction(WtStatement):
    """``Invoke <function> Of Type <type> On [Coalition] <target>
    With (args...)``.

    With ``On Coalition``, the invocation fans out to every member of
    the coalition that exports the type, returning per-source results.
    """

    function_name: str
    type_name: str
    database_name: str
    arguments: tuple[Any, ...] = ()
    on_coalition: bool = False


@dataclass(frozen=True)
class NativeQuery(WtStatement):
    """``Query <database> Native '<text>'`` — raw SQL/OQL passthrough."""

    database_name: str
    text: str


# -- definition & maintenance ------------------------------------------------------

@dataclass(frozen=True)
class CreateCoalition(WtStatement):
    """``Create Coalition <name> With Information '<topic>'``."""

    name: str
    information: str


@dataclass(frozen=True)
class DissolveCoalition(WtStatement):
    """``Dissolve Coalition <name>``."""

    name: str


@dataclass(frozen=True)
class AdvertiseSource(WtStatement):
    """The paper's advertisement block as a statement::

        Advertise Source <name> Information '<t>' Documentation '<url>'
            Location '<host>' Wrapper '<wrapper>' Interface T1, T2
    """

    name: str
    information: str
    documentation: Optional[str] = None
    location: Optional[str] = None
    wrapper: Optional[str] = None
    interface: tuple[str, ...] = ()


@dataclass(frozen=True)
class JoinCoalition(WtStatement):
    """``Join Database <db> To Coalition <coalition>``."""

    database_name: str
    coalition_name: str


@dataclass(frozen=True)
class LeaveCoalition(WtStatement):
    """``Leave Database <db> From Coalition <coalition>``."""

    database_name: str
    coalition_name: str


@dataclass(frozen=True)
class CreateServiceLink(WtStatement):
    """``Create Service Link From Coalition|Database <a>
    To Coalition|Database <b> [With Description '<d>']``."""

    from_kind: str
    from_name: str
    to_kind: str
    to_name: str
    description: Optional[str] = None


@dataclass(frozen=True)
class DropServiceLink(WtStatement):
    """``Drop Service Link From Coalition|Database <a> To ... <b>``."""

    from_kind: str
    from_name: str
    to_kind: str
    to_name: str
