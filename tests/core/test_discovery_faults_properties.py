"""Property test: the parallel engine under seeded faults.

A co-database dying mid-depth must not wedge the executor or drop
sibling results: over random topologies and random dead sets, the
parallel engine's leads, unreachable list, and degraded report must
match the sequential engine's exactly — and the engine must stay
usable for a second discovery afterwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scale import build_scaled_space
from repro.core.discovery import DiscoveryEngine
from repro.errors import CommFailure


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
        self.cache_bypassed = 0
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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fault_scenarios())
def test_parallel_matches_sequential_under_faults(scenario):
    databases, coalitions, seed, resolve_dead, consult_dead = scenario
    space = build_scaled_space(databases, coalitions, seed=seed)
    start = space.database_names[0]
    dead_at_resolve = {space.database_names[i] for i in resolve_dead}
    dead_mid_consult = {space.database_names[i] for i in consult_dead}
    topic = next(iter(space.coalition_topics.values()))

    resolver_seq = faulty_resolver(space, dead_at_resolve,
                                   dead_mid_consult)
    resolver_par = faulty_resolver(space, dead_at_resolve,
                                   dead_mid_consult)
    sequential = DiscoveryEngine(resolver_seq)
    parallel = DiscoveryEngine(resolver_par, parallel=True, max_workers=4)
    try:
        kwargs = dict(stop_at_first=False, max_hops=4)
        try:
            seq = sequential.discover(topic, start, **kwargs)
        except CommFailure:
            # Depth-0 (the user's own repository) failed: the parallel
            # engine must agree that this is fatal.
            try:
                parallel.discover(topic, start, **kwargs)
                raise AssertionError("parallel engine swallowed the "
                                     "depth-0 failure")
            except CommFailure:
                return
        par = parallel.discover(topic, start, **kwargs)

        assert [lead.name for lead in seq.leads] == \
            [lead.name for lead in par.leads]
        assert seq.unreachable == par.unreachable
        assert seq.degraded.names() == par.degraded.names()
        assert [e.reason for e in seq.degraded.entries] == \
            [e.reason for e in par.degraded.entries]
        # Every failing database the exploration touched is accounted
        # for, and no healthy sibling was blamed.
        blamed = set(par.degraded.names())
        assert blamed <= (dead_at_resolve | dead_mid_consult)

        # The executor is not wedged: a second discovery on the same
        # engine completes and agrees with a fresh sequential run.
        second_par = parallel.discover(topic, start, **kwargs)
        assert [lead.name for lead in second_par.leads] == \
            [lead.name for lead in seq.leads]
    finally:
        parallel.close()
