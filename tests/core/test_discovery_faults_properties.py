"""Property test: the discovery engine under seeded faults.

Over random topologies and random dead sets, a co-database that is
refused or dies mid-consultation is reported, never a healthy sibling;
the user's own repository failing is fatal; and the engine stays
usable: a second discovery afterwards returns the same answer.

Tier-1 runs 25 examples derandomised; CI's ``discovery-model`` job runs
the ``ci`` profile (ten times hypothesis's default) from its matrix
seeds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scale import build_scaled_space
from repro.core.discovery import DiscoveryEngine
from repro.errors import CommFailure

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(max_examples=25, derandomize=True, deadline=None)


@st.composite
def fault_scenarios(draw):
    databases = draw(st.integers(min_value=4, max_value=14))
    coalitions = draw(st.integers(min_value=2,
                                  max_value=min(4, databases)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # Which databases fail, and how: refused at resolve time, or dying
    # mid-consultation (resolve succeeds, metadata reads then fail).
    dead_at_resolve = draw(st.sets(
        st.integers(min_value=1, max_value=databases - 1), max_size=4))
    dead_mid_consult = draw(st.sets(
        st.integers(min_value=1, max_value=databases - 1), max_size=4))
    return (databases, coalitions, seed,
            dead_at_resolve, dead_mid_consult - dead_at_resolve)


class _DyingClient:
    """A co-database client whose every read fails (post-resolve)."""

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.failovers = 0

    def __getattr__(self, operation):
        def fail(*__args, **__kwargs):
            self.calls += 1
            raise CommFailure(
                f"injected fault: {self.name} died mid-consultation")
        return fail


def faulty_resolver(space, dead_at_resolve, dead_mid_consult):
    def resolver(name):
        if name in dead_at_resolve:
            raise CommFailure(f"injected fault: {name} refused")
        if name in dead_mid_consult:
            return _DyingClient(name)
        return space.local_resolver(name)
    return resolver


@SETTINGS
@given(fault_scenarios())
def test_faults_blame_only_the_dead_and_leave_the_engine_usable(scenario):
    databases, coalitions, seed, resolve_dead, consult_dead = scenario
    space = build_scaled_space(databases, coalitions, seed=seed)
    start = space.database_names[0]
    dead_at_resolve = {space.database_names[i] for i in resolve_dead}
    dead_mid_consult = {space.database_names[i] for i in consult_dead}
    dead = dead_at_resolve | dead_mid_consult
    topic = next(iter(space.coalition_topics.values()))
    engine = DiscoveryEngine(faulty_resolver(space, dead_at_resolve,
                                             dead_mid_consult))
    kwargs = dict(stop_at_first=False, max_hops=4)

    # Depth 0 (the user's own repository) failing is fatal.
    for home in sorted(dead):
        with pytest.raises(CommFailure):
            engine.discover(topic, home, **kwargs)

    first = engine.discover(topic, start, **kwargs)
    # Every failing database the exploration touched is accounted for,
    # and no healthy sibling was blamed.
    assert set(first.degraded.names()) <= dead
    assert set(first.unreachable) <= dead

    # A second discovery on the same engine agrees.
    second = engine.discover(topic, start, **kwargs)
    assert [lead.name for lead in second.leads] == \
        [lead.name for lead in first.leads]
    assert second.unreachable == first.unreachable
    assert [(e.database, e.reason) for e in second.degraded.entries] == \
        [(e.database, e.reason) for e in first.degraded.entries]
