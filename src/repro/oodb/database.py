"""The object database facade (ObjectStore / Ontos stand-in).

An :class:`ObjectDatabase` owns a :class:`~repro.oodb.schema.Schema`,
allocates object identity, maintains per-class extents, and answers
extent and predicate queries.  A tiny OQL-flavoured string query surface
lives in :mod:`repro.oodb.query` and is reachable through
:meth:`ObjectDatabase.query`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import ObjectNotFound, SchemaError
from repro.oodb.objects import Extent, Oid, OObject, validate_new_object
from repro.oodb.schema import Attribute, OClass, Schema


class ObjectDatabase:
    """One in-memory object-oriented database."""

    def __init__(self, name: str, schema: Optional[Schema] = None,
                 product: str = "ObjectStore", version: str = "5.1"):
        self.name = name
        self.schema = schema or Schema(name=f"{name}-schema")
        self.product = product
        self.version = version
        self._objects: dict[Oid, OObject] = {}
        self._extents: dict[str, Extent] = {}
        #: class -> attribute -> value -> that class's objects holding
        #: it, in creation order, or ``None`` (see :meth:`_index`).
        self._indexes: dict[str, dict[str, Optional[
            dict[Any, dict[Oid, OObject]]]]] = {}
        self._next_oid = 1

    # ------------------------------------------------------------- metadata --

    @property
    def banner(self) -> str:
        """Product banner, e.g. ``ObjectStore 5.1``."""
        return f"{self.product} {self.version}"

    def define_class(self, name: str,
                     attributes: Optional[list[Attribute]] = None,
                     bases: Optional[list[str]] = None, doc: str = "",
                     abstract: bool = False) -> OClass:
        """Define a class and create its (empty) extent."""
        oclass = self.schema.define_class(name, attributes, bases, doc,
                                          abstract)
        self._extents[name] = Extent(name)
        return oclass

    def add_attribute(self, class_name: str, attribute: Attribute,
                      default: Any = None) -> None:
        """Schema evolution: add *attribute* to *class_name*, backfilling
        every stored instance (of the class and its descendants) with
        *default* (or ``[]`` for multi-valued attributes)."""
        if attribute.required and default is None and not attribute.many:
            raise SchemaError(
                f"adding required attribute {attribute.name!r} needs a "
                f"non-NULL default to backfill existing objects")
        self.schema.add_attribute(class_name, attribute)
        if default is not None:
            attribute.validate(default)
        fill = [] if attribute.many and default is None else default
        for stored in self.extent(class_name, include_subclasses=True):
            if attribute.name not in stored:
                stored._values[attribute.name] = \
                    list(fill) if isinstance(fill, list) else fill
        for indexes in self._indexes.values():  # rebuilt on next select
            indexes.pop(attribute.name, None)

    def attribute_of(self, class_name: str, attribute_name: str) -> Attribute:
        """Resolve an attribute (inherited or own) of *class_name*."""
        attribute = self.schema.attribute_map(class_name).get(attribute_name)
        if attribute is None:
            raise SchemaError(
                f"class {class_name!r} has no attribute {attribute_name!r}")
        return attribute

    # ------------------------------------------------------------- lifecycle --

    def create(self, class_name: str, **values: Any) -> OObject:
        """Create and store a new object of *class_name*."""
        normalized = validate_new_object(self.schema, class_name, values)
        oid = Oid(self._next_oid)
        self._next_oid += 1
        stored = OObject(oid, class_name, normalized, self)
        self._objects[oid] = stored
        extent = self._extents.get(class_name)
        if extent is None:  # class defined directly on the schema object
            extent = Extent(class_name)
            self._extents[class_name] = extent
        extent.add(stored)
        for name, index in self._indexes.get(class_name, {}).items():
            if index is not None:
                index.setdefault(normalized[name], {})[oid] = stored
        return stored

    def get(self, oid: Oid) -> OObject:
        """Fetch by identity."""
        stored = self._objects.get(oid)
        if stored is None:
            raise ObjectNotFound(f"no object {oid!r} in {self.name!r}")
        return stored

    def delete(self, oid: Oid) -> None:
        """Remove an object; dangling references raise on dereference."""
        stored = self._objects.pop(oid, None)
        if stored is None:
            raise ObjectNotFound(f"no object {oid!r} in {self.name!r}")
        extent = self._extents.get(stored.class_name)
        if extent is not None:
            extent.remove(oid)
        for name, index in self._indexes.get(stored.class_name, {}).items():
            if index is not None:
                _unindex(index, stored, stored.get(name))

    def reindex(self, stored: OObject, name: str, value: Any) -> None:
        """Move *stored* to *value*'s entry of its class's index on
        *name*, keeping the entry in creation order (:meth:`OObject.set`
        calls this before it stores *value*)."""
        index = self._indexes.get(stored.class_name, {}).get(name)
        if index is None or self._objects.get(stored.oid) is not stored:
            return
        _unindex(index, stored, stored.get(name))
        entry = index.setdefault(value, {})
        last = next(reversed(entry), None)
        entry[stored.oid] = stored
        if last is not None and stored.oid < last:
            index[value] = dict(sorted(entry.items()))

    def __len__(self) -> int:
        return len(self._objects)

    # ---------------------------------------------------------------- queries --

    def _class_names(self, class_name: str,
                     include_subclasses: bool) -> tuple[str, ...]:
        if include_subclasses:
            return self.schema.family(class_name)
        self.schema.get(class_name)
        return (class_name,)

    def extent(self, class_name: str, include_subclasses: bool = True
               ) -> list[OObject]:
        """All instances of a class (by default including subclasses)."""
        result: list[OObject] = []
        for name in self._class_names(class_name, include_subclasses):
            extent = self._extents.get(name)
            if extent is not None:
                result.extend(extent.objects())
        return result

    def select(self, class_name: str,
               predicate: Optional[Callable[[OObject], bool]] = None,
               include_subclasses: bool = True,
               **equalities: Any) -> list[OObject]:
        """Instances of *class_name* matching a predicate and/or
        attribute equalities, e.g. ``db.select("Doctor", position="RMO")``.

        Without a predicate, the first equality picks each class's
        candidates from its index (classes in lattice order, objects in
        creation order, as a scan finds them); every equality is then
        checked on each candidate."""
        probe = next(iter(equalities), None) if predicate is None else None
        result: list[OObject] = []
        for name in self._class_names(class_name, include_subclasses):
            extent = self._extents.get(name)
            if extent is None:
                continue
            candidates = extent.objects()
            index = self._index(name, probe) if probe is not None else None
            if index is not None:
                try:
                    candidates = index.get(equalities[probe], _NONE).values()
                except TypeError:  # an unhashable value: scan
                    pass
            for candidate in candidates:
                if predicate is not None and not predicate(candidate):
                    continue
                if any(candidate.get(attr) != wanted
                       for attr, wanted in equalities.items()):
                    continue
                result.append(candidate)
        return result

    def _index(self, class_name: str, attribute_name: str
               ) -> Optional[dict[Any, dict[Oid, OObject]]]:
        """*class_name*'s index on a scalar attribute, built on first
        use; ``None`` for an attribute a select must scan (many-valued,
        kind ``any``, or not the class's)."""
        try:
            return self._indexes[class_name][attribute_name]
        except KeyError:
            pass
        attribute = self.schema.attribute_map(class_name).get(attribute_name)
        index = None
        if attribute is not None and not attribute.many \
                and attribute.kind != "any":
            index = {}
            for stored in self._extents[class_name].objects():
                index.setdefault(stored.get(attribute_name),
                                 {})[stored.oid] = stored
        self._indexes.setdefault(class_name, {})[attribute_name] = index
        return index

    def find_one(self, class_name: str, **equalities: Any) -> OObject:
        """The unique instance matching the equalities; raises otherwise."""
        matches = self.select(class_name, **equalities)
        if not matches:
            raise ObjectNotFound(
                f"no {class_name} matching {equalities!r} in {self.name!r}")
        if len(matches) > 1:
            raise ObjectNotFound(
                f"{len(matches)} {class_name} objects match {equalities!r}")
        return matches[0]

    def query(self, oql: str) -> list[dict[str, Any]]:
        """Run an OQL-flavoured string query; see :mod:`repro.oodb.query`."""
        from repro.oodb.query import run_query
        return run_query(self, oql)

    # ---------------------------------------------------------------- loading --

    def create_many(self, class_name: str,
                    rows: Iterable[dict[str, Any]]) -> list[OObject]:
        """Bulk object creation."""
        return [self.create(class_name, **row) for row in rows]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ObjectDatabase(name={self.name!r}, product={self.product!r}, "
                f"objects={len(self._objects)})")


#: An index's answer for a value no object holds.
_NONE: dict[Oid, OObject] = {}


def _unindex(index: dict[Any, dict[Oid, OObject]], stored: OObject,
             value: Any) -> None:
    """Take *stored* out of *value*'s entry; drop the entry if empty."""
    entry = index[value]
    del entry[stored.oid]
    if not entry:
        del index[value]
