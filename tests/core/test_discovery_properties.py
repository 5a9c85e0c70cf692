"""Property-based tests: discovery invariants over random topologies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink

TOPICS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@st.composite
def topologies(draw):
    """Random federations: N sources in K coalitions plus a random
    coalition-link mesh (ring guaranteed, so everything is reachable)."""
    coalition_count = draw(st.integers(min_value=1, max_value=5))
    sources_per = draw(st.lists(st.integers(min_value=1, max_value=4),
                                min_size=coalition_count,
                                max_size=coalition_count))
    extra_links = draw(st.lists(
        st.tuples(st.integers(0, coalition_count - 1),
                  st.integers(0, coalition_count - 1)),
        max_size=4))
    return coalition_count, sources_per, extra_links


def build(coalition_count, sources_per, extra_links):
    """One drawn topology, applied to a fresh ``Registry``."""
    registry = Registry()
    names = []
    for index in range(coalition_count):
        topic = TOPICS[index % len(TOPICS)]
        name = f"C{index} {topic}"
        registry.create_coalition(name, topic)
        names.append(name)
    databases = []
    for coalition_index, count in enumerate(sources_per):
        for j in range(count):
            db_name = f"db{coalition_index}_{j}"
            registry.add_source(SourceDescription(
                name=db_name,
                information_type=TOPICS[coalition_index % len(TOPICS)]))
            registry.join(db_name, names[coalition_index])
            databases.append(db_name)
    edges = {(i, (i + 1) % coalition_count)
             for i in range(coalition_count) if coalition_count > 1}
    edges.update((a, b) for a, b in extra_links if a != b)
    for a, b in edges:
        try:
            registry.add_service_link(ServiceLink(
                EndpointKind.COALITION, names[a],
                EndpointKind.COALITION, names[b],
                information_type=TOPICS[b % len(TOPICS)]))
        except Exception:
            pass
    return registry, names, databases


def engine_for(registry):
    return DiscoveryEngine(
        lambda name: CoDatabaseClient.for_local(registry.codatabase(name)))


@given(topologies())
@settings(max_examples=40, deadline=None)
def test_local_topic_resolves_at_depth_zero(topology):
    """A topic hosted by the start database's own coalition always
    resolves locally with one co-database contact."""
    registry, names, databases = build(*topology)
    engine = engine_for(registry)
    start = databases[0]
    own_topic = registry.source(start).information_type
    result = engine.discover(own_topic, start)
    assert result.resolved
    assert result.max_depth_reached == 0
    assert result.codatabases_contacted == 1


@given(topologies())
@settings(max_examples=40, deadline=None)
def test_contacts_bounded_by_population(topology):
    registry, names, databases = build(*topology)
    engine = engine_for(registry)
    for topic in {registry.coalition(name).information_type
                  for name in names}:
        result = engine.discover(topic, databases[-1], max_hops=10)
        assert result.codatabases_contacted <= len(databases)


@given(topologies())
@settings(max_examples=30, deadline=None)
def test_discovery_is_deterministic(topology):
    registry, names, databases = build(*topology)
    engine = engine_for(registry)
    topic = registry.coalition(names[-1]).information_type
    first = engine.discover(topic, databases[0], max_hops=10)
    second = engine.discover(topic, databases[0], max_hops=10)
    assert [(l.name, l.score, l.via) for l in first.leads] == \
        [(l.name, l.score, l.via) for l in second.leads]
    assert first.codatabases_contacted == second.codatabases_contacted


@given(topologies())
@settings(max_examples=30, deadline=None)
def test_unknown_topic_never_resolves(topology):
    registry, names, databases = build(*topology)
    engine = engine_for(registry)
    result = engine.discover("nonexistent subject matter",
                             databases[0], max_hops=10)
    assert not result.resolved
    assert result.leads == []


def lead_fingerprint(result):
    return [(lead.name, lead.score, lead.via, lead.through_link,
             lead.contact, lead.members) for lead in result.leads]


@given(topologies())
@settings(max_examples=30, deadline=None)
def test_leads_sorted_and_deduplicated(topology):
    registry, names, databases = build(*topology)
    engine = engine_for(registry)
    topic = registry.coalition(names[0]).information_type
    result = engine.discover(topic, databases[-1], max_hops=10,
                             stop_at_first=False)
    scores = [lead.score for lead in result.leads]
    assert scores == sorted(scores, reverse=True)
    coalition_leads = [lead.name for lead in result.leads
                       if lead.through_link is None]
    assert len(coalition_leads) == len(set(coalition_leads))
