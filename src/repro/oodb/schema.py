"""Class definitions for the object-oriented engine.

The paper's co-databases are object-oriented databases whose schema is a
*lattice of classes* (coalitions are classes; member databases are
instances; specialisation is subclassing).  This module provides that
machinery: typed attributes, multiple inheritance, and lattice queries
(subclasses, descendants, ancestors).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional

from repro.errors import SchemaError

#: Attribute kinds understood by the engine.
ATTRIBUTE_KINDS = frozenset({
    "string", "integer", "real", "boolean", "date", "object", "any",
})


@dataclass(frozen=True)
class Attribute:
    """One typed attribute of a class.

    *kind* is one of :data:`ATTRIBUTE_KINDS`; ``object`` means a
    reference to another persistent object (optionally constrained to
    *target* class), and *many* makes the attribute a homogeneous list.
    """

    name: str
    kind: str = "string"
    required: bool = False
    many: bool = False
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ATTRIBUTE_KINDS:
            raise SchemaError(
                f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.target is not None and self.kind != "object":
            raise SchemaError(
                f"attribute {self.name!r}: target only valid for object kind")

    def validate(self, value: Any) -> Any:
        """Check one scalar value against this attribute's kind."""
        if value is None:
            if self.required:
                raise SchemaError(f"attribute {self.name!r} is required")
            return None
        if self.kind == "string" and not isinstance(value, str):
            raise SchemaError(f"{self.name!r} expects a string, got {value!r}")
        if self.kind == "integer" and (not isinstance(value, int)
                                       or isinstance(value, bool)):
            raise SchemaError(f"{self.name!r} expects an integer, got {value!r}")
        if self.kind == "real" and not isinstance(value, (int, float)):
            raise SchemaError(f"{self.name!r} expects a number, got {value!r}")
        if self.kind == "boolean" and not isinstance(value, bool):
            raise SchemaError(f"{self.name!r} expects a boolean, got {value!r}")
        if self.kind == "date" and not isinstance(value, datetime.date):
            raise SchemaError(f"{self.name!r} expects a date, got {value!r}")
        return value


#: Per kind, the type whose exact instances :meth:`Attribute.validate`
#: accepts unchanged: such a value needs no other test.
_EXACT_TYPES = {"string": str, "integer": int, "real": float,
                "boolean": bool, "date": datetime.date}


@dataclass
class OClass:
    """A class in the schema lattice."""

    name: str
    attributes: list[Attribute] = field(default_factory=list)
    bases: list[str] = field(default_factory=list)
    doc: str = ""
    abstract: bool = False

    def own_attribute(self, name: str) -> Optional[Attribute]:
        """Attribute declared directly on this class (not inherited)."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        return None


class Schema:
    """A set of classes with validated inheritance.

    Invariants maintained:

    * every base class exists before its subclasses,
    * the inheritance graph is acyclic,
    * an attribute redefinition in a subclass must keep the same kind.
    """

    def __init__(self, name: str = "schema"):
        self.name = name
        self._classes: dict[str, OClass] = {}
        #: Per ``(what, class name)``, what the lattice derives: dropped
        #: by every :meth:`define` and :meth:`add_attribute`.
        self._derived: dict[tuple[str, str], Any] = {}

    # -- definition ------------------------------------------------------------

    def define(self, oclass: OClass) -> OClass:
        """Register *oclass*, validating bases and attribute overrides."""
        if oclass.name in self._classes:
            raise SchemaError(f"class {oclass.name!r} already defined")
        for base in oclass.bases:
            if base not in self._classes:
                raise SchemaError(
                    f"class {oclass.name!r}: unknown base {base!r}")
        for attribute in oclass.attributes:
            for base in oclass.bases:
                inherited = self._find_attribute(base, attribute.name)
                if inherited is not None and inherited.kind != attribute.kind:
                    raise SchemaError(
                        f"class {oclass.name!r} redefines {attribute.name!r} "
                        f"with kind {attribute.kind!r} (base has "
                        f"{inherited.kind!r})")
        self._classes[oclass.name] = oclass
        self._derived.clear()
        return oclass

    def define_class(self, name: str, attributes: Optional[list[Attribute]] = None,
                     bases: Optional[list[str]] = None, doc: str = "",
                     abstract: bool = False) -> OClass:
        """Convenience wrapper around :meth:`define`."""
        return self.define(OClass(name=name, attributes=attributes or [],
                                  bases=bases or [], doc=doc,
                                  abstract=abstract))

    def add_attribute(self, class_name: str, attribute: Attribute) -> None:
        """Schema evolution: add an attribute to an existing class.

        The attribute must not clash with an own/inherited attribute of
        a different kind, nor with one already declared by a subclass.
        """
        oclass = self.get(class_name)
        existing = self._find_attribute(class_name, attribute.name)
        if existing is not None:
            raise SchemaError(
                f"class {class_name!r} already has attribute "
                f"{attribute.name!r}")
        for descendant in self.descendants(class_name):
            own = self.get(descendant).own_attribute(attribute.name)
            if own is not None and own.kind != attribute.kind:
                raise SchemaError(
                    f"subclass {descendant!r} declares {attribute.name!r} "
                    f"with kind {own.kind!r}, conflicting with new "
                    f"{attribute.kind!r}")
        oclass.attributes.append(attribute)
        self._derived.clear()

    # -- lookup -----------------------------------------------------------------

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> OClass:
        oclass = self._classes.get(name)
        if oclass is None:
            raise SchemaError(f"no class {name!r} in schema {self.name!r}")
        return oclass

    def class_names(self) -> list[str]:
        """All class names, in definition order."""
        return list(self._classes)

    def _find_attribute(self, class_name: str, attribute_name: str
                        ) -> Optional[Attribute]:
        oclass = self._classes[class_name]
        own = oclass.own_attribute(attribute_name)
        if own is not None:
            return own
        for base in oclass.bases:
            found = self._find_attribute(base, attribute_name)
            if found is not None:
                return found
        return None

    def all_attributes(self, class_name: str) -> dict[str, Attribute]:
        """Inherited + own attributes, subclass definitions winning."""
        return dict(self.attribute_map(class_name))

    def attribute_map(self, class_name: str) -> Mapping[str, Attribute]:
        """:meth:`all_attributes`, computed once per schema version and
        shared read-only."""
        key = ("attributes", class_name)
        merged = self._derived.get(key)
        if merged is None:
            oclass = self.get(class_name)
            merged = {}
            for base in oclass.bases:
                merged.update(self.attribute_map(base))
            for attribute in oclass.attributes:
                merged[attribute.name] = attribute
            merged = self._derived[key] = MappingProxyType(merged)
        return merged

    def creation_plan(self, class_name: str
                      ) -> tuple[tuple[Attribute, Optional[type],
                                       Optional[type]], ...]:
        """Per attribute, once per schema version: ``(attribute, exact
        type of a scalar value, exact type of a multi-valued one's
        items)``, the unused one ``None`` (see ``_EXACT_TYPES``)."""
        key = ("plan", class_name)
        plan = self._derived.get(key)
        if plan is None:
            steps = []
            for attribute in self.attribute_map(class_name).values():
                exact = _EXACT_TYPES.get(attribute.kind)
                steps.append((attribute, None, exact) if attribute.many
                             else (attribute, exact, None))
            plan = self._derived[key] = tuple(steps)
        return plan

    # -- lattice queries ----------------------------------------------------------

    def ancestors(self, class_name: str) -> list[str]:
        """All (transitive) base classes, nearest first, no duplicates."""
        seen: list[str] = []

        def walk(name: str) -> None:
            for base in self.get(name).bases:
                if base not in seen:
                    seen.append(base)
                    walk(base)

        walk(class_name)
        return seen

    def subclasses(self, class_name: str) -> list[str]:
        """Direct subclasses, in definition order."""
        self.get(class_name)
        return [name for name, oclass in self._classes.items()
                if class_name in oclass.bases]

    def descendants(self, class_name: str) -> list[str]:
        """All transitive subclasses, breadth-first."""
        return list(self.family(class_name)[1:])

    def family(self, class_name: str) -> tuple[str, ...]:
        """*class_name* then its :meth:`descendants`, once per schema
        version: the classes an inclusive query walks, in order."""
        key = ("family", class_name)
        result = self._derived.get(key)
        if result is None:
            names = [class_name]
            frontier = self.subclasses(class_name)
            while frontier:
                next_frontier: list[str] = []
                for name in frontier:
                    if name not in names:
                        names.append(name)
                        next_frontier.extend(self.subclasses(name))
                frontier = next_frontier
            result = self._derived[key] = tuple(names)
        return result

    def is_subclass(self, candidate: str, ancestor: str) -> bool:
        """True when *candidate* is *ancestor* or inherits from it."""
        if candidate == ancestor:
            return True
        return ancestor in self.ancestors(candidate)

    def roots(self) -> list[str]:
        """Classes with no bases (the top of the lattice)."""
        return [name for name, oclass in self._classes.items()
                if not oclass.bases]
