"""Coalitions: strongly-coupled, topic-specialized clusters of databases.

A coalition "is specialized to a single common topic ... dynamically
clumps databases together based on common areas of interest into a
single atomic unit" (§2.1).  Coalitions may specialize other coalitions
(the class lattice browsed by ``Display SubClasses of Class X``), and
membership changes freely as database interests change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MembershipError
from repro.orb.cdr import register_value, struct_value


@dataclass
class Coalition:
    """One coalition in the information space."""

    name: str
    information_type: str
    parent: Optional[str] = None
    doc: str = ""
    members: list[str] = field(default_factory=list)

    def add_member(self, database_name: str) -> None:
        """Join *database_name* to this coalition."""
        if database_name in self.members:
            raise MembershipError(
                f"{database_name!r} is already a member of "
                f"coalition {self.name!r}")
        self.members.append(database_name)

    def remove_member(self, database_name: str) -> None:
        """Remove *database_name* from this coalition."""
        if database_name not in self.members:
            raise MembershipError(
                f"{database_name!r} is not a member of "
                f"coalition {self.name!r}")
        self.members.remove(database_name)

    def has_member(self, database_name: str) -> bool:
        return database_name in self.members

    def to_wire(self) -> dict:
        """CDR-friendly struct."""
        return {
            "name": self.name,
            "information_type": self.information_type,
            "parent": self.parent,
            "doc": self.doc,
            "members": list(self.members),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "Coalition":
        return cls(name=payload.get("name", ""),
                   information_type=payload.get("information_type", ""),
                   parent=payload.get("parent"),
                   doc=payload.get("doc", ""),
                   members=list(payload.get("members", [])))

    def copy(self) -> "Coalition":
        """An independent copy (own member list): what a cache hands
        each caller."""
        return self.from_wire(vars(self))


register_value("Coalition", Coalition,
               *struct_value(Coalition.to_wire, Coalition.from_wire))
