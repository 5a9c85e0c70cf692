"""Property-based tests: discovery invariants over random topologies."""

import pytest
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
    return populate(Registry(), coalition_count, sources_per, extra_links)


def populate(registry, coalition_count, sources_per, extra_links):
    """Apply one drawn topology to a ``Registry`` of any shard count,
    in identical order."""
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


@given(topologies(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_parallel_equals_sequential(topology, stop_at_first):
    """The parallel fan-out engine is an optimisation, not a different
    algorithm: leads, contact counts, call counts, traces, and
    unreachable lists are identical to the sequential engine's."""
    registry, names, databases = build(*topology)
    sequential = engine_for(registry)
    parallel = DiscoveryEngine(
        lambda name: CoDatabaseClient.for_local(registry.codatabase(name)),
        parallel=True, max_workers=4)
    try:
        topics = {registry.coalition(name).information_type
                  for name in names} | {"nonexistent subject matter"}
        for topic in sorted(topics):
            for start in (databases[0], databases[-1]):
                first = sequential.discover(topic, start, max_hops=10,
                                            stop_at_first=stop_at_first)
                second = parallel.discover(topic, start, max_hops=10,
                                           stop_at_first=stop_at_first)
                assert lead_fingerprint(first) == lead_fingerprint(second)
                assert first.codatabases_contacted == \
                    second.codatabases_contacted
                assert first.metadata_calls == second.metadata_calls
                assert first.max_depth_reached == second.max_depth_reached
                assert first.trace == second.trace
                assert first.unreachable == second.unreachable
    finally:
        parallel.close()


@given(topologies())
@settings(max_examples=20, deadline=None)
def test_parallel_equals_sequential_with_failures(topology):
    """Unreachable co-databases are skipped identically in both modes
    (same unreachable list, same surviving leads)."""
    from repro.errors import CommFailure

    registry, names, databases = build(*topology)
    start = databases[0]
    # Kill every other database except the start (which must answer).
    dead = {name for index, name in enumerate(databases)
            if index % 2 == 1 and name != start}

    def resolver(name):
        if name in dead:
            raise CommFailure(f"connection refused: {name}")
        return CoDatabaseClient.for_local(registry.codatabase(name))

    sequential = DiscoveryEngine(resolver)
    parallel = DiscoveryEngine(resolver, parallel=True, max_workers=4)
    try:
        topic = registry.coalition(names[-1]).information_type
        first = sequential.discover(topic, start, max_hops=10)
        second = parallel.discover(topic, start, max_hops=10)
        assert lead_fingerprint(first) == lead_fingerprint(second)
        assert first.unreachable == second.unreachable
        assert first.codatabases_contacted == second.codatabases_contacted
        assert first.metadata_calls == second.metadata_calls
        assert first.trace == second.trace
        assert set(first.unreachable) <= dead
    finally:
        parallel.close()


@pytest.mark.parametrize("stripes", [1, 2, 4],
                         ids=["stripes1", "stripes2", "stripes4"])
@given(topologies())
@settings(max_examples=4, deadline=None)
def test_parallel_equals_sequential_over_pipelined_tcp(stripes, topology):
    """The deterministic-merge invariant survives the pipelined TCP
    transport: with co-databases behind one real IIOP endpoint and the
    parallel fan-out sharing `stripes` pipelined connections, leads,
    counts, traces, and unreachable lists still match the sequential
    engine exactly."""
    from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
    from repro.orb import ORBIX, TcpTransport, create_orb

    registry, names, databases = build(*topology)
    transport = TcpTransport(pipelined=True, stripes=stripes)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        iors = {
            name: orb.activate(
                CoDatabaseServant(registry.codatabase(name)),
                CODATABASE_INTERFACE, object_name=f"codb-{name}")
            for name in databases
        }

        def resolver(name):
            return CoDatabaseClient.for_proxy(
                orb.proxy(iors[name], CODATABASE_INTERFACE), name)

        sequential = DiscoveryEngine(resolver)
        parallel = DiscoveryEngine(resolver, parallel=True, max_workers=4)
        try:
            topic = registry.coalition(names[-1]).information_type
            for start in (databases[0], databases[-1]):
                first = sequential.discover(topic, start, max_hops=10)
                second = parallel.discover(topic, start, max_hops=10)
                assert lead_fingerprint(first) == lead_fingerprint(second)
                assert first.codatabases_contacted == \
                    second.codatabases_contacted
                assert first.metadata_calls == second.metadata_calls
                assert first.trace == second.trace
                assert first.unreachable == second.unreachable
        finally:
            parallel.close()
    finally:
        transport.close()


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


# ---------------------------------------------------------------------------
# Cross-shard equivalence: discovery over a sharded registry is
# byte-identical to discovery over a singleton — every field of the
# DiscoveryResult, including the degraded report.
# ---------------------------------------------------------------------------


def result_bytes(result):
    """The full DiscoveryResult as one comparable structure — every
    field, recursively, including the degraded report."""
    import dataclasses
    return dataclasses.asdict(result)


@given(topologies(), st.integers(min_value=2, max_value=5), st.booleans())
@settings(max_examples=25, deadline=None)
def test_sharded_discovery_equals_singleton(topology, shard_count,
                                            parallel_mode):
    """Sharding the registry is invisible to discovery: for any random
    topology, any shard count, sequential or parallel fan-out, the
    DiscoveryResult is byte-identical to the singleton deployment's."""
    from repro.core.sharding import HashRing

    singleton, names, databases = build(*topology)
    sharded = Registry(shards=shard_count,
                       ring=HashRing(range(shard_count), vnodes=8))
    populate(sharded, *topology)

    def sharded_engine():
        return DiscoveryEngine(
            lambda name: CoDatabaseClient.for_local(
                sharded.codatabase(name)),
            parallel=parallel_mode, max_workers=4)

    reference = engine_for(singleton)
    engine = sharded_engine()
    try:
        topics = {singleton.coalition(name).information_type
                  for name in names} | {"nonexistent subject matter"}
        for topic in sorted(topics):
            for start in (databases[0], databases[-1]):
                expected = reference.discover(topic, start, max_hops=10)
                actual = engine.discover(topic, start, max_hops=10)
                assert result_bytes(actual) == result_bytes(expected)
    finally:
        engine.close()


@given(topologies(), st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None)
def test_sharded_discovery_equals_singleton_with_failures(topology,
                                                          shard_count):
    """The equivalence holds through partial failure: with the same
    co-databases dead in both deployments, unreachable lists, degraded
    reports, and surviving leads match byte for byte."""
    from repro.core.sharding import HashRing
    from repro.errors import CommFailure

    singleton, names, databases = build(*topology)
    sharded = Registry(shards=shard_count,
                       ring=HashRing(range(shard_count), vnodes=8))
    populate(sharded, *topology)
    start = databases[0]
    dead = {name for index, name in enumerate(databases)
            if index % 2 == 1 and name != start}

    def resolver_over(registry_like):
        def resolver(name):
            if name in dead:
                raise CommFailure(f"connection refused: {name}")
            return CoDatabaseClient.for_local(
                registry_like.codatabase(name))
        return resolver

    reference = DiscoveryEngine(resolver_over(singleton))
    engine = DiscoveryEngine(resolver_over(sharded))
    topic = singleton.coalition(names[-1]).information_type
    expected = reference.discover(topic, start, max_hops=10)
    actual = engine.discover(topic, start, max_hops=10)
    assert result_bytes(actual) == result_bytes(expected)
    assert actual.unreachable == expected.unreachable
    assert set(actual.unreachable) <= dead
