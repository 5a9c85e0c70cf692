"""Persistent objects and object identity for the OO engine."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.errors import SchemaError
from repro.oodb.schema import Attribute, Schema


class Oid:
    """An object identifier: stable, hashable, ordered by allocation."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Oid) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("oid", self.value))

    def __lt__(self, other: "Oid") -> bool:
        return self.value < other.value

    def __repr__(self) -> str:
        return f"Oid({self.value})"


class OObject:
    """One stored object: identity + class + attribute values.

    Attribute access is dict-like via :meth:`get` / :meth:`set`, plus
    read-only attribute sugar (``obj["name"]``).  Values referencing
    other objects hold :class:`Oid` instances; :meth:`deref` follows them
    through the owning database.
    """

    def __init__(self, oid: Oid, class_name: str, values: dict[str, Any],
                 database: "ObjectDatabaseProtocol"):
        self.oid = oid
        self.class_name = class_name
        self._values = values
        self._database = database

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def __getitem__(self, name: str) -> Any:
        if name not in self._values:
            raise KeyError(f"object {self.oid!r} has no attribute {name!r}")
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def set(self, name: str, value: Any) -> None:
        """Update one attribute, re-validating against the schema."""
        attribute = self._database.attribute_of(self.class_name, name)
        self._values[name] = _validate_value(attribute, value)

    def values(self) -> dict[str, Any]:
        """A copy of the attribute map."""
        return dict(self._values)

    def deref(self, name: str) -> Optional["OObject"]:
        """Follow an object-valued attribute to the referenced object."""
        value = self._values.get(name)
        if value is None:
            return None
        if not isinstance(value, Oid):
            raise SchemaError(f"attribute {name!r} is not an object reference")
        return self._database.get(value)

    def deref_many(self, name: str) -> list["OObject"]:
        """Follow a multi-valued object attribute."""
        value = self._values.get(name) or []
        return [self._database.get(oid) for oid in value]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OObject({self.class_name}, {self.oid!r})"


class ObjectDatabaseProtocol:
    """The minimal interface :class:`OObject` needs from its database."""

    def get(self, oid: Oid) -> "OObject":  # pragma: no cover - interface
        raise NotImplementedError

    def attribute_of(self, class_name: str,
                     attribute_name: str) -> Attribute:  # pragma: no cover
        raise NotImplementedError


def _validate_value(attribute: Attribute, value: Any) -> Any:
    """Validate a possibly multi-valued value against *attribute*."""
    if attribute.many:
        if value is None:
            value = []
        if not isinstance(value, list):
            raise SchemaError(
                f"attribute {attribute.name!r} is multi-valued; got {value!r}")
        return [_validate_scalar(attribute, item) for item in value]
    return _validate_scalar(attribute, value)


def _validate_scalar(attribute: Attribute, value: Any) -> Any:
    if attribute.kind == "object":
        if value is None:
            if attribute.required and not attribute.many:
                raise SchemaError(f"attribute {attribute.name!r} is required")
            return None
        if isinstance(value, OObject):
            return value.oid
        if isinstance(value, Oid):
            return value
        raise SchemaError(
            f"attribute {attribute.name!r} expects an object, got {value!r}")
    if attribute.kind == "any":
        return value
    return attribute.validate(value)


class Extent:
    """The set of objects of one class (not including subclasses).

    Extents preserve creation order, which the browsing layer relies on
    for stable display, and hold the objects themselves: reading an
    extent hashes no identity.
    """

    def __init__(self, class_name: str):
        self.class_name = class_name
        self._objects: dict[Oid, OObject] = {}

    def add(self, stored: OObject) -> None:
        self._objects[stored.oid] = stored

    def remove(self, oid: Oid) -> None:
        self._objects.pop(oid, None)

    def objects(self) -> Iterable[OObject]:
        """The members, in creation order."""
        return self._objects.values()

    def __iter__(self) -> Iterator[Oid]:
        return iter(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._objects


def validate_new_object(schema: Schema, class_name: str,
                        values: dict[str, Any]) -> dict[str, Any]:
    """Validate and normalize attribute values for object creation.

    Unknown attribute names raise; missing optional attributes are
    filled with ``None`` (or ``[]`` for multi-valued ones) so stored
    objects always carry the full attribute map of their class.
    """
    oclass = schema.get(class_name)
    if oclass.abstract:
        raise SchemaError(f"class {class_name!r} is abstract")
    attributes = schema.all_attributes(class_name)
    unknown = set(values) - set(attributes)
    if unknown:
        raise SchemaError(
            f"class {class_name!r} has no attributes {sorted(unknown)!r}")
    normalized: dict[str, Any] = {}
    for name, attribute in attributes.items():
        supplied = values.get(name)
        if supplied is None and name not in values and attribute.many:
            normalized[name] = []
            continue
        normalized[name] = _validate_value(attribute, supplied)
    return normalized
