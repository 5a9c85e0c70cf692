"""Service links: low-overhead, loosely-coupled sharing agreements.

The paper defines three kinds (§2.1): coalition↔coalition,
database↔database, and coalition↔database.  A link carries a *minimal
description* of the information the provider is willing to share —
which is what discovery follows when local coalitions fail to answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import WebFinditError
from repro.orb.cdr import (CdrDecoder, CdrEncoder, register_value,
                           struct_value)


class EndpointKind(enum.Enum):
    """What each end of a service link is."""

    COALITION = "coalition"
    DATABASE = "database"

    @classmethod
    def parse(cls, value: str) -> "EndpointKind":
        try:
            return cls(value.lower())
        except ValueError as exc:
            raise WebFinditError(
                f"service-link endpoint kind must be coalition or "
                f"database, not {value!r}") from exc


# A bare kind is a value type of its own: ``tests/orb/cdr_golden.json``
# pins its bytes.
register_value("EndpointKind", EndpointKind,
               *struct_value(lambda kind: kind.value, EndpointKind.parse))


@dataclass(frozen=True)
class ServiceLink:
    """A directed sharing agreement: provider → consumer.

    The *from* side offers a minimal description of *information_type*
    to the *to* side.  ``ATO_to_Medical`` in Figure 1 is
    ``ServiceLink(database:ATO -> coalition:Medical)``.
    """

    from_kind: EndpointKind
    from_name: str
    to_kind: EndpointKind
    to_name: str
    information_type: str = ""
    description: str = ""
    #: A database whose co-database can answer for the *to* side — the
    #: to-database itself, or a designated member of the to-coalition.
    #: Filled in by the registry when the link is established.
    contact: str = ""

    @property
    def kind(self) -> str:
        """The paper's three service types."""
        if self.from_kind is EndpointKind.COALITION \
                and self.to_kind is EndpointKind.COALITION:
            return "coalition-coalition"
        if self.from_kind is EndpointKind.DATABASE \
                and self.to_kind is EndpointKind.DATABASE:
            return "database-database"
        return "coalition-database"

    @property
    def label(self) -> str:
        """Figure-1 style label, e.g. ``ATO_to_Medical``."""
        return link_label(self.from_name, self.to_name)

    def involves(self, kind: EndpointKind, name: str) -> bool:
        """True when either endpoint is (kind, name)."""
        return ((self.from_kind is kind and self.from_name == name)
                or (self.to_kind is kind and self.to_name == name))

    def to_wire(self) -> dict:
        return {
            "from_kind": self.from_kind.value,
            "from_name": self.from_name,
            "to_kind": self.to_kind.value,
            "to_name": self.to_name,
            "information_type": self.information_type,
            "description": self.description,
            "contact": self.contact,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "ServiceLink":
        return cls(
            from_kind=EndpointKind.parse(payload.get("from_kind", "database")),
            from_name=payload.get("from_name", ""),
            to_kind=EndpointKind.parse(payload.get("to_kind", "database")),
            to_name=payload.get("to_name", ""),
            information_type=payload.get("information_type", ""),
            description=payload.get("description", ""),
            contact=payload.get("contact", ""))


def link_label(from_name: str, to_name: str) -> str:
    """The label of a link between two named ends (:attr:`ServiceLink.
    label`), for callers holding the names rather than a link."""
    return f"{from_name.replace(' ', '')}_to_{to_name.replace(' ', '')}"


#: An endpoint kind's octet in ``ServiceLink/2``: its index here.
_KINDS = tuple(EndpointKind)
_KIND_OCTETS = {kind: octet for octet, kind in enumerate(_KINDS)}


def _write_link(encoder: CdrEncoder, link: ServiceLink) -> None:
    encoder.write_octet(_KIND_OCTETS[link.from_kind])
    encoder.write_octet(_KIND_OCTETS[link.to_kind])
    encoder.write_strings((link.from_name, link.to_name,
                           link.information_type, link.description,
                           link.contact))


def _read_link(decoder: CdrDecoder) -> ServiceLink:
    from_kind = _KINDS[decoder.read_octet()]
    to_kind = _KINDS[decoder.read_octet()]
    from_name, to_name, information_type, description, contact = \
        decoder.read_strings(5)
    return ServiceLink(from_kind, from_name, to_kind, to_name,
                       information_type, description, contact)


# Positional on the wire: both endpoint kinds as octets (their index in
# ``EndpointKind``), then the five names and texts as one packed run of
# strings (layout: docs/middleware.md).  The id is not the "ServiceLink"
# of the seven-key struct this replaced: a stale peer fails on an
# unknown value type, it never misparses.  The journal and snapshots
# keep the JSON form of ``to_wire`` / ``from_wire``.
register_value("ServiceLink/2", ServiceLink, _write_link, _read_link)
