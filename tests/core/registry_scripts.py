"""Random federation-maintenance scripts for the registry, and what
they leave behind.

A *script* is a plain JSON-able dict of indices: coalitions (some
specializing another), sources, joins, service links with coalition
and database endpoints, documents, re-advertisements, leaves, link
removals, dissolutions and source removals — applied in that order by
:func:`run_script`.  One drawing routine serves two sources of
randomness: :func:`maintenance_scripts` (a hypothesis strategy) and
:func:`random_script` (a seeded :class:`random.Random`, which
``golden/generate_registry.py`` uses to pin :func:`record` of 300
scripts in ``golden/registry_scripts.json``).
"""

import json
from dataclasses import replace

from hypothesis import strategies as st

from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import WebFinditError

TOPICS = ["cardiology", "oncology", "insurance", "research",
          "pathology", "radiology"]

KINDS = [EndpointKind.COALITION, EndpointKind.DATABASE]


def draw_script(integer):
    """One script, drawn through ``integer(low, high)`` (inclusive)."""
    def many(most, item):
        return [item() for __ in range(integer(0, most))]

    coalition_count = integer(1, 4)
    specializations = many(2, lambda: integer(0, coalition_count - 1))
    coalitions = coalition_count + len(specializations)
    sources = integer(1, 8)

    def source():
        return integer(0, sources - 1)

    def coalition():
        return integer(0, coalitions - 1)

    def endpoint():
        kind = integer(0, 1)
        return [kind, coalition() if kind == 0 else source()]

    links = many(4, lambda: endpoint() + endpoint())
    return {
        "coalitions": coalition_count,
        "specializations": specializations,
        "sources": sources,
        "memberships": many(12, lambda: [source(), coalition()]),
        "links": links,
        "documents": many(2, source),
        "readvertise": many(2, source),
        "leaves": many(3, lambda: [source(), coalition()]),
        "unlinks": many(2, lambda: integer(0, len(links) - 1))
        if links else [],
        "dissolves": many(2, coalition),
        "removals": many(2, source),
    }


@st.composite
def maintenance_scripts(draw):
    return draw_script(
        lambda low, high: draw(st.integers(min_value=low, max_value=high)))


def random_script(rng):
    return draw_script(rng.randint)


def _link(script_link, coalitions, sources):
    from_kind, from_index, to_kind, to_index = script_link
    names = (coalitions, sources)
    return ServiceLink(KINDS[from_kind], names[from_kind][from_index],
                       KINDS[to_kind], names[to_kind][to_index],
                       information_type=TOPICS[to_index % len(TOPICS)])


def run_script(target, script):
    """Apply *script* to a registry; returns ``(coalitions, sources,
    log)``.  Every step is logged as ``[operation, update_operations
    after it, error]``, the error a ``[type, message]`` pair or None: a
    refused step is part of the outcome."""
    coalitions = [f"C{index} {TOPICS[index % len(TOPICS)]}"
                  for index in range(script["coalitions"])]
    sources = [f"db{index}" for index in range(script["sources"])]
    log = []

    def step(operation, *arguments):
        error = None
        try:
            getattr(target, operation)(*arguments)
        except WebFinditError as exc:
            error = [type(exc).__name__, str(exc)]
        log.append([operation, target.update_operations, error])

    for name in coalitions:
        step("create_coalition", name, name.split(" ", 1)[1])
    for order, parent_index in enumerate(script["specializations"]):
        topic = TOPICS[parent_index % len(TOPICS)]
        name = f"S{order} {topic}"
        step("create_coalition", name, topic, coalitions[parent_index])
        coalitions.append(name)
    for index, name in enumerate(sources):
        step("add_source", SourceDescription(
            name=name, information_type=TOPICS[index % len(TOPICS)],
            location=f"{name}.example.net"))
    for source_index, coalition_index in script["memberships"]:
        step("join", sources[source_index], coalitions[coalition_index])
    links = [_link(link, coalitions, sources) for link in script["links"]]
    for link in links:
        step("add_service_link", link)
    for index in script["documents"]:
        step("attach_document", sources[index], "text", f"about {index}")
    for index in script["readvertise"]:
        step("advertise", replace(
            target.source(sources[index]),
            documentation_url=f"http://{sources[index]}.example/refreshed"))
    for source_index, coalition_index in script["leaves"]:
        step("leave", sources[source_index], coalitions[coalition_index])
    for index in script["unlinks"]:
        step("remove_service_link", links[index])
    for index in script["dissolves"]:
        step("dissolve_coalition", coalitions[index])
    for index in script["removals"]:
        step("remove_source", sources[index])
    removed = set(sources[index] for index in script["removals"])
    return coalitions, [name for name in sources if name not in removed], log


def codb_fingerprint(registry_like, name):
    """Everything observable about one co-database, in wire shape."""
    codb = registry_like.codatabase(name)
    coalitions = codb.known_coalitions()
    return {
        "owner": codb.owner_name,
        "epoch": codb.epoch,
        "applied": codb.applied,
        "description": [codb.local_description.name,
                        codb.local_description.documentation_url],
        "memberships": list(codb.memberships),
        "coalitions": [(c.name, c.information_type, c.parent,
                        list(c.members))
                       for c in coalitions],
        "instances": {c.name: [(d.name, d.documentation_url)
                               for d in codb.instances_of(c.name)]
                      for c in coalitions},
        "documents": codb.documents_of(name),
        "links": [link.to_wire() for link in codb.service_links()],
        "neighbors": codb.neighbor_databases(),
    }


#: Invalid operations whose refusal (type and message) is pinned.
ERROR_PROBES = [
    lambda t: t.source("no such database"),
    lambda t: t.coalition("no such coalition"),
    lambda t: t.create_coalition(t.coalition_names()[0]
                                 if t.coalition_names() else "C0 x",
                                 "dup") if t.coalition_names() else None,
    lambda t: t.join("no such database", "no such coalition"),
    lambda t: t.remove_source("no such database"),
]


def probe_errors(target):
    outcomes = []
    for probe in ERROR_PROBES:
        try:
            probe(target)
            outcomes.append(None)
        except Exception as exc:  # noqa: BLE001 — the outcome is pinned
            outcomes.append([type(exc).__name__, str(exc)])
    return outcomes


def record(script):
    """What one script leaves behind in a fresh :class:`Registry`, in
    JSON shape (tuples as lists).  Each ``{name: floor}`` delivered to a
    subscribed listener is kept in delivery order, its keys sorted."""
    registry = Registry()
    floors = []
    registry.add_invalidation_listener(
        lambda update: floors.append(dict(sorted(update.items()))))
    __, __, log = run_script(registry, script)
    names = registry.source_names()
    outcome = {
        "script": script,
        "log": log,
        "source_names": names,
        "coalition_names": registry.coalition_names(),
        "summary": registry.summary(),
        "epochs": registry.epochs(),
        "update_operations": registry.update_operations,
        "service_links": [link.to_wire()
                          for link in registry.service_links()],
        "codatabases": {name: codb_fingerprint(registry, name)
                        for name in names},
        "coalitions": {name: [c.name, c.information_type, c.parent,
                              list(c.members)]
                       for name in registry.coalition_names()
                       for c in [registry.coalition(name)]},
        "floors": floors,
        "errors": probe_errors(registry),
    }
    return json.loads(json.dumps(outcome))
