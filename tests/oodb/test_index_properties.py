"""The object engine's equality index and lattice cache against scans.

`ObjectDatabase.select` answers an equality from an index per (class,
attribute) that `create`, `delete`, `OObject.set` and `add_attribute`
keep current, and `Schema` computes attribute maps, class families and
creation plans once per schema version.  Here hypothesis draws scripts
of class definitions (multiple inheritance, an attribute redefined as
many-valued), creates, deletes, sets and evolutions with a backfill —
valid and invalid values alike — and after every step:

* every equality select, with and without subclasses, answers exactly
  what a linear filter over ``extent()`` finds, in the same order;
* ``extent(c, include_subclasses=False)`` is the class's live objects in
  creation order;
* ``all_attributes`` / ``descendants`` equal a freshly built schema's,
  and mutating what they returned changes no later answer;
* a create validates as the straightforward per-attribute rules do,
  with the same `SchemaError` message when it refuses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.oodb import Attribute, ObjectDatabase, OObject
from repro.oodb.objects import _validate_value
from repro.oodb.schema import Schema


class Label(str):
    """A ``str`` subclass: valid for a string attribute, not its exact
    type, so it takes the full check."""


NAN = float("nan")

#: Attributes a class may declare; ``rank_many`` redeclares ``rank``
#: multi-valued (same kind, which a subclass may do).  The root class
#: declares those in :data:`ROOT`.
DECLARABLE = {
    "label": Attribute("label", "string"),
    "rank": Attribute("rank", "integer"),
    "rank_many": Attribute("rank", "integer", many=True),
    "score": Attribute("score", "real"),
    "flag": Attribute("flag", "boolean"),
    "tags": Attribute("tags", "string", many=True),
    "blob": Attribute("blob", "any"),
    "ref": Attribute("ref", "object"),
}
ROOT = [DECLARABLE[key] for key in ("label", "rank", "score", "tags", "blob")]
#: Attributes schema evolution adds later (with a backfill default).
EVOLVED = [(Attribute("city", "string"), "Brisbane"),
           (Attribute("city", "string"), None),
           (Attribute("level", "integer"), 1),
           (Attribute("notes", "string", many=True), None),
           (Attribute("label", "string"), "late")]

#: Per attribute name, values a create or set may try: valid, equal
#: across types (1, 1.0, True), NaN, unhashable, and of the wrong type.
VALUES = {
    "label": ["a", "b", "", None, Label("a"), 3],
    "rank": [0, 1, 2, None, True, "1", [1, 2], []],
    "score": [0.0, 1, 1.0, 2.5, NAN, None, True, "x"],
    "flag": [True, False, None, 1],
    "tags": [[], ["a"], ["a", "b"], [Label("b")], None, "a", ["a", 1]],
    "blob": [None, 1, [1, 2], "a", {"k": 1}],
    "ref": [None, "x"],
    "city": ["Brisbane", "Cairns", None],
    "level": [1, 2, None],
    "notes": [["n"], None],
}
NAMES = sorted(VALUES) + ["bogus"]
#: What selects ask for.
PROBES = ["a", Label("a"), "b", "", None, 0, 1, 1.0, True, 2, 2.5, NAN,
          [1, 2], ["a"], "Brisbane", "late"]

creates = st.tuples(st.just("create"), st.integers(0, 2 ** 16),
                    st.dictionaries(st.sampled_from(NAMES),
                                    st.integers(0, 7), max_size=5))
operations = st.lists(st.one_of(
    st.tuples(st.just("define"), st.integers(0, 2 ** 16),
              st.sets(st.sampled_from(sorted(DECLARABLE)), max_size=3)),
    creates, creates, creates,
    st.tuples(st.just("delete"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("set"), st.integers(0, 2 ** 16),
              st.sampled_from(sorted(VALUES)), st.integers(0, 7)),
    st.tuples(st.just("evolve"), st.integers(0, 2 ** 16),
              st.integers(0, len(EVOLVED) - 1)),
), min_size=1, max_size=25)


def reference_validate(schema: Schema, class_name: str,
                       values: dict) -> dict:
    """Object creation's rules written out per attribute, uncached."""
    oclass = schema.get(class_name)
    if oclass.abstract:
        raise SchemaError(f"class {class_name!r} is abstract")
    attributes = schema.all_attributes(class_name)
    unknown = set(values) - set(attributes)
    if unknown:
        raise SchemaError(
            f"class {class_name!r} has no attributes {sorted(unknown)!r}")
    normalized = {}
    for name, attribute in attributes.items():
        supplied = values.get(name)
        if supplied is None and name not in values and attribute.many:
            normalized[name] = []
            continue
        normalized[name] = _validate_value(attribute, supplied)
    return normalized


def outcome(call):
    try:
        return "ok", call()
    except SchemaError as exc:
        return "refused", str(exc)


def typed(values: dict) -> list:
    """Values with their exact types (1, 1.0 and True differ here)."""
    return sorted((name, type(value).__name__, repr(value))
                  for name, value in values.items())


def scan(db: ObjectDatabase, class_name: str, include: bool,
         equalities: dict) -> list[OObject]:
    return [obj for obj in db.extent(class_name, include)
            if not any(obj.get(name) != wanted
                       for name, wanted in equalities.items())]


def ids(objects) -> list[int]:
    return [obj.oid.value for obj in objects]


class Script:
    """One drawn script against an object database and a plain model."""

    def __init__(self):
        self.db = ObjectDatabase("index-properties")
        self.db.define_class("Root", list(ROOT))
        #: class -> (bases, own attributes), in definition order.
        self.model: dict[str, tuple[list[str], list[Attribute]]] = {
            "Root": ([], list(ROOT))}
        #: live oids per class, in creation order.
        self.live: dict[str, list[int]] = {"Root": []}
        self.objects: list[OObject] = []

    def classes(self) -> list[str]:
        return list(self.model)

    def pick(self, seed: int, items: list):
        return items[seed % len(items)] if items else None

    def apply(self, operation: tuple) -> None:
        kind, seed, *rest = operation
        getattr(self, f"_{kind}")(seed, *rest)

    def _define(self, seed: int, declared: set) -> None:
        classes = self.classes()
        bases = sorted({classes[seed % len(classes)],
                        classes[(seed // 7) % len(classes)]})
        name = f"C{len(classes)}"
        attributes = [DECLARABLE[key] for key in sorted(declared)]
        if len({attribute.name for attribute in attributes}) \
                < len(attributes):
            attributes = attributes[:1]
        self.db.define_class(name, list(attributes), bases=bases)
        self.model[name] = (bases, list(attributes))
        self.live[name] = []

    def _value(self, name: str, choice: int):
        if name == "ref" and choice % 3 == 2 and self.objects:
            target = self.objects[choice % len(self.objects)]
            return target if choice % 2 else target.oid
        return self.pick(choice, VALUES.get(name, ["?"]))

    def _create(self, seed: int, choices: dict) -> None:
        class_name = self.pick(seed, self.classes())
        values = {name: self._value(name, choice)
                  for name, choice in choices.items()}
        expected = outcome(lambda: reference_validate(
            self.db.schema, class_name, dict(values)))
        created = outcome(lambda: self.db.create(class_name, **values))
        assert created[0] == expected[0]
        if created[0] == "refused":
            assert created[1] == expected[1]
            return
        stored = created[1]
        assert typed(stored.values()) == typed(expected[1])
        self.live[class_name].append(stored.oid.value)
        self.objects.append(stored)

    def _delete(self, seed: int) -> None:
        target = self.pick(seed, self.objects)
        if target is None:
            return
        self.db.delete(target.oid)
        self.live[target.class_name].remove(target.oid.value)
        self.objects.remove(target)

    def _set(self, seed: int, name: str, choice: int) -> None:
        target = self.pick(seed, self.objects)
        if target is None:
            return
        before = target.values()
        try:
            target.set(name, self._value(name, choice))
        except SchemaError:
            assert target.values() == before

    def _evolve(self, seed: int, which: int) -> None:
        class_name = self.pick(seed, self.classes())
        attribute, default = EVOLVED[which]
        try:
            self.db.add_attribute(class_name, attribute, default=default)
        except SchemaError:
            return
        self.model[class_name][1].append(attribute)

    # ------------------------------------------------------------ checks --

    def check(self) -> None:
        db = self.db
        fresh = Schema()
        for name, (bases, attributes) in self.model.items():
            fresh.define_class(name, list(attributes), bases=list(bases))
        for name in self.classes():
            assert ids(db.extent(name, include_subclasses=False)) \
                == self.live[name]
            assert db.schema.all_attributes(name) \
                == fresh.all_attributes(name)
            assert db.schema.descendants(name) == fresh.descendants(name)
            # What a caller is handed is its own.
            handed = db.schema.all_attributes(name)
            handed["bogus"] = Attribute("bogus")
            handed.pop(next(iter(fresh.all_attributes(name)), ""), None)
            descendants = db.schema.descendants(name)
            descendants.append("Nowhere")
            assert db.schema.all_attributes(name) \
                == fresh.all_attributes(name)
            assert db.schema.descendants(name) == fresh.descendants(name)
            with pytest.raises(TypeError):
                db.schema.attribute_map(name)["bogus"] = Attribute("bogus")
            for include in (True, False):
                self._check_selects(name, include)

    def _check_selects(self, class_name: str, include: bool) -> None:
        db = self.db
        for name in NAMES:
            for wanted in PROBES:
                equalities = {name: wanted}
                assert ids(db.select(class_name, include_subclasses=include,
                                     **equalities)) \
                    == ids(scan(db, class_name, include, equalities))
        for label in ("a", None):
            for rank in (1, None, True):
                equalities = {"label": label, "rank": rank}
                assert ids(db.select(class_name, include_subclasses=include,
                                     **equalities)) \
                    == ids(scan(db, class_name, include, equalities))
        assert ids(db.select(class_name, lambda obj: True,
                             include_subclasses=include, label="a")) \
            == ids(scan(db, class_name, include, {"label": "a"}))


@given(operations)
@settings(max_examples=60, deadline=None)
def test_selects_and_lattice_answers_match_scans_after_every_step(script):
    state = Script()
    state.check()
    for operation in script:
        state.apply(operation)
        state.check()


def test_set_keeps_creation_order_within_a_value():
    db = ObjectDatabase("order")
    db.define_class("T", [Attribute("label", "string")])
    first, second, third = (db.create("T", label=label)
                            for label in ("a", "b", "a"))
    assert db.select("T", label="a") == [first, third]
    second.set("label", "a")
    assert db.select("T", label="a") == [first, second, third]
    first.set("label", "a")
    assert db.select("T", label="a") == [first, second, third]
    db.delete(second.oid)
    second.set("label", "b")
    assert db.select("T", label="b") == []
