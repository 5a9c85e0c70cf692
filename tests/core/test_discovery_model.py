"""The discovery engine against the reference model of §2.

``discovery_model.leads`` is the paper's resolution algorithm as a pure
function over plain dicts.  Over hypothesis-generated federations —
3–12 databases in overlapping coalitions, service links of all three
kinds (several into one target, each with its own description), topics
that hit, partially hit and miss — the real :class:`DiscoveryEngine`
must *equal* the model whenever nothing is down: sequentially, with the
parallel fan-out, and behind a metadata cache cold and warm.  With one
co-database refused it must answer what the model answers without that
node — a subset of the full answer — and say which node it lost.

One level down, ``consult`` must answer exactly what the engine used to
work out for itself from three reads (``find_coalitions``,
``service_links``, ``neighbor_databases``); that derivation lives on
here as :func:`derived_from_three_reads`.

Tier-1 runs hypothesis's default example count derandomised; CI's
``discovery-model`` job loads the ``ci`` profile of ``tests/conftest.py``
(ten times the examples, ``--hypothesis-seed`` from {7, 23, 1999}).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.metacache import MetadataCache
from repro.core.model import SourceDescription, topic_score
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import CommFailure
from repro.orb.orb import Orb

from tests.core import discovery_model

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)

VOCABULARY = ["medical", "research", "insurance", "tax", "fraud"]

#: One or two vocabulary words: "medical insurance" half-matches
#: "medical research", fully matches "insurance and medical".
topics = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2,
                  unique=True).map(" ".join)
#: What a user asks for: may also name something nobody advertises.
queries = st.lists(st.sampled_from(VOCABULARY + ["astronomy"]), min_size=1,
                   max_size=3, unique=True).map(" ".join)
thresholds = st.sampled_from([0.3, 0.5, 1.0])


@st.composite
def federations(draw):
    databases = {f"db{index}": draw(topics)
                 for index in range(draw(st.integers(3, 12)))}
    coalitions = {}
    for index in range(draw(st.integers(1, 5))):
        # Some coalitions carry a topic word in their name: names are
        # matched too.
        name = f"C{index} {draw(st.sampled_from(['', *VOCABULARY]))}".strip()
        coalitions[name] = {
            "information_type": draw(topics),
            "members": draw(st.lists(st.sampled_from(sorted(databases)),
                                     unique=True, max_size=5))}
    ends = [("database", name) for name in databases] \
        + [("coalition", name) for name in coalitions]
    # A random mesh, plus several links into one target.
    pairs = draw(st.lists(st.tuples(st.sampled_from(ends),
                                    st.sampled_from(ends)), max_size=8))
    hot = draw(st.sampled_from(ends))
    pairs += [(source, hot) for source in draw(st.lists(
        st.sampled_from(ends), max_size=4))]
    links = [{"from": source, "to": target,
              "information_type": draw(st.one_of(st.just(""), topics)),
              "description": draw(st.one_of(st.just(""), topics))}
             for source, target in dict.fromkeys(pairs) if source != target]
    return {"databases": databases, "coalitions": coalitions, "links": links}


def deploy(topology):
    """The federation a topology describes, built in the order the
    model's docstring states."""
    registry = Registry()
    for name, information_type in topology["databases"].items():
        registry.add_source(SourceDescription(
            name=name, information_type=information_type))
    for name, coalition in topology["coalitions"].items():
        registry.create_coalition(name, coalition["information_type"])
        for member in coalition["members"]:
            registry.join(member, name)
    for link in topology["links"]:
        registry.add_service_link(ServiceLink(
            EndpointKind.parse(link["from"][0]), link["from"][1],
            EndpointKind.parse(link["to"][0]), link["to"][1],
            information_type=link["information_type"],
            description=link["description"]))
    return registry


def answered(result):
    return [dict(name=lead.name, information_type=lead.information_type,
                 score=lead.score, members=lead.members, via=lead.via,
                 through_link=lead.through_link, contact=lead.contact)
            for lead in result.leads]


@st.composite
def resolutions(draw):
    topology = draw(federations())
    return (topology, draw(queries),
            draw(st.sampled_from(sorted(topology["databases"]))),
            draw(st.integers(0, 4)), draw(st.booleans()), draw(thresholds))


@SETTINGS
@given(resolutions())
def test_the_engine_equals_the_model_when_nothing_is_down(resolution):
    topology, query, start, max_hops, stop_at_first, threshold = resolution
    expected = discovery_model.leads(topology, query, start, max_hops,
                                     stop_at_first, threshold)
    registry = deploy(topology)
    cache = MetadataCache()

    def plain(name):
        return CoDatabaseClient.for_local(registry.codatabase(name))

    def cached(name):
        return CoDatabaseClient(registry.codatabase(name), name, cache=cache)

    runs = {"sequential": (plain, {}),
            "parallel": (plain, {"parallel": True, "max_workers": 3}),
            "cold cache": (cached, {}),
            "warm cache": (cached, {})}
    results = {}
    for label, (resolver, options) in runs.items():
        engine = DiscoveryEngine(resolver, match_threshold=threshold,
                                 **options)
        try:
            results[label] = engine.discover(
                query, start, max_hops=max_hops, stop_at_first=stop_at_first)
        finally:
            engine.close()
        assert answered(results[label]) == expected, label
        assert results[label].degraded.names() == [], label
    reference = results["sequential"]
    for label, result in results.items():
        assert result.trace == reference.trace, label
        assert result.codatabases_contacted \
            == reference.codatabases_contacted, label
    # One question per co-database; a warm cache asks none.
    assert reference.metadata_calls == reference.codatabases_contacted
    assert results["warm cache"].metadata_calls == 0
    assert results["warm cache"].cache_hits \
        == reference.codatabases_contacted


@SETTINGS
@given(resolutions(), st.data())
def test_with_one_node_refused_the_answer_is_a_reported_subset(resolution,
                                                               data):
    topology, query, start, max_hops, stop_at_first, threshold = resolution
    down = data.draw(st.sampled_from(
        sorted(set(topology["databases"]) - {start})))
    registry = deploy(topology)

    def resolver(name):
        if name == down:
            raise CommFailure(f"injected fault: {name} refused")
        return CoDatabaseClient.for_local(registry.codatabase(name))

    result = DiscoveryEngine(resolver, match_threshold=threshold).discover(
        query, start, max_hops=max_hops, stop_at_first=stop_at_first)
    healthy = discovery_model.leads(topology, query, start, max_hops,
                                    stop_at_first=False, threshold=threshold)
    assert answered(result) == discovery_model.leads(
        topology, query, start, max_hops, stop_at_first, threshold,
        down={down})
    assert {lead.name for lead in result.leads} \
        <= {lead["name"] for lead in healthy}
    assert result.degraded.names() in ([], [down])
    assert result.unreachable == result.degraded.names()
    if not result.degraded:
        # Never reached, so never missed: the full answer.
        assert answered(result) == discovery_model.leads(
            topology, query, start, max_hops, stop_at_first, threshold)


def derived_from_three_reads(codatabase, query, threshold):
    """What the engine, before ``consult``, made of one co-database's
    ``find_coalitions`` + ``service_links`` + ``neighbor_databases``:
    every link downloaded and scored on the client, the first link per
    target at or over the threshold kept as a lead, every link's
    contact kept for routing."""
    links = codatabase.service_links()
    leads, targets = [], set()
    for link in links:
        score = max(topic_score(query, link.information_type),
                    topic_score(query, link.to_name),
                    topic_score(query, link.description))
        target = (link.to_kind.value, link.to_name)
        if score < threshold or target in targets:
            continue
        targets.add(target)
        leads.append({"to_kind": link.to_kind.value, "to_name": link.to_name,
                      "information_type": (link.information_type
                                           or link.description),
                      "score": score, "label": link.label,
                      "contact": link.contact})
    contacts = []
    for link in links:
        if link.contact and link.contact not in contacts:
            contacts.append(link.contact)
    return {"matches": codatabase.find_coalitions(query, threshold),
            "leads": leads, "contacts": contacts,
            "neighbors": codatabase.neighbor_databases()}


@SETTINGS
@given(federations(), queries, thresholds)
def test_consult_answers_what_three_reads_used_to(topology, query, threshold):
    registry = deploy(topology)
    orb = Orb(name="codb")
    for name in topology["databases"]:
        codatabase = registry.codatabase(name)
        expected = derived_from_three_reads(codatabase, query, threshold)
        assert codatabase.consult(query, True, threshold) == expected
        ior = orb.activate(CoDatabaseServant(codatabase),
                           CODATABASE_INTERFACE, object_name=name)
        wire = CoDatabaseClient.for_proxy(
            orb.proxy(ior, CODATABASE_INTERFACE), name)
        assert wire.consult(query, True, threshold) == expected
        assert wire.calls == 1
        # Neighbours are answered only when asked for.
        assert wire.consult(query, False, threshold) \
            == {**expected, "neighbors": []}


def test_a_link_under_the_threshold_does_not_shadow_a_later_one():
    """Threshold first, then first-per-target."""
    topology = {
        "databases": {"home": "tax", "far": "fraud"},
        "coalitions": {"Audit": {"information_type": "fraud",
                                 "members": ["far"]}},
        "links": [{"from": ("database", "home"), "to": ("coalition", "Audit"),
                   "information_type": "tax", "description": ""},
                  {"from": ("database", "far"), "to": ("coalition", "Audit"),
                   "information_type": "", "description": "medical fraud"}]}
    # Both links are known to ``far`` (a member of Audit), weak one first.
    consulted = deploy(topology).codatabase("far").consult(
        "medical fraud", False, 0.5)
    assert [(lead["label"], lead["score"], lead["information_type"])
            for lead in consulted["leads"]] \
        == [("far_to_Audit", 1.0, "medical fraud")]


def test_the_caller_owns_a_cached_consult_answer():
    topology = {
        "databases": {"a": "tax", "b": "tax"},
        "coalitions": {"T": {"information_type": "tax",
                             "members": ["a", "b"]}},
        "links": [{"from": ("coalition", "T"), "to": ("database", "b"),
                   "information_type": "tax", "description": ""}]}
    client = CoDatabaseClient(deploy(topology).codatabase("a"), "a",
                              cache=MetadataCache())
    first = client.consult("tax", True, 0.5)
    pristine = client.consult("tax", True, 0.5)
    first["matches"][0]["members"].append("scribble")
    first["matches"][0]["name"] = "scribble"
    first["leads"][0]["contact"] = "scribble"
    for key in first:
        first[key].append("scribble")
    assert client.cache_hits == 2 - client.cache_misses == 1
    assert client.consult("tax", True, 0.5) == pristine
