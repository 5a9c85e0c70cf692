"""A resolution's trace, rendered on read, and its per-resolution counts.

:meth:`DiscoveryEngine.discover` records each trace line as a
``(template, *arguments)`` step; :attr:`DiscoveryResult.trace` renders
them on first read and keeps the list.  ``golden/discovery_traces.json``
holds the lines the engine formatted eagerly, written at ``ce9b149``
(before the steps) by this file's ``__main__``: every resolution of the
Figure 4–6 walk (``tests/apps/test_figure_walks.py``), cold then warm,
four paper resolutions beside it, and one degraded resolution per
reason — skipped, tripped, unreachable (the client never built, and
built but its call refused) and timed out.  The rendered lines must
equal them, byte for byte.

The counts a result reports (co-databases contacted, metadata calls,
cache hits and misses, failovers) are tallied as the frontier is
consulted: two identical resolutions must report equal counts over an
in-process client, a proxy and a replica route with a dead primary.

Regenerate (only to add a resolution): ``PYTHONPATH=<checkout>/src:.
python tests/core/test_discovery_trace.py > tests/core/golden/
discovery_traces.json`` *on the commit whose behaviour is the
reference*.
"""

import json
import os
import sys

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.metacache import MetadataCache
from repro.core.resilience import (Deadline, HealthBoard, ResiliencePolicy,
                                   RetryPolicy)
from repro.errors import CommFailure, DeadlineExceeded

from tests.apps.test_figure_walks import walk
from tests.core.test_discovery_degraded import (FakeClock, build_world,
                                                make_engine)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "discovery_traces.json")

#: Asked of the in-memory healthcare federation beside the walk: the
#: paper's Ambulance example, cross-coalition finds, and a miss that
#: sweeps the reachable space.
PAPER_RESOLUTIONS = [("Medical Research", topo.AMBULANCE, {}),
                     ("Medical Insurance", topo.AMBULANCE, {}),
                     ("Superannuation", topo.RMIT, {"stop_at_first": False}),
                     ("Astronomy", topo.QUT,
                      {"stop_at_first": False, "max_hops": 6})]


def walk_traces():
    """``[query, start, trace]`` of every resolution of the walk, cold
    then warm, and of :data:`PAPER_RESOLUTIONS`."""
    seen = []
    discover = DiscoveryEngine.discover

    def recording(self, query, start_database, *args, **kwargs):
        result = discover(self, query, start_database, *args, **kwargs)
        seen.append([query, start_database, result.trace])
        return result

    DiscoveryEngine.discover = recording
    try:
        deployment = build_healthcare_system()
        for __ in range(2):
            walk(deployment.browser(topo.QUT))
        engine = deployment.system.query_processor().discovery
        for query, start, options in PAPER_RESOLUTIONS:
            engine.discover(query, start, **options)
    finally:
        DiscoveryEngine.discover = discover
    return seen


class RefusingTarget:
    """A co-database whose client is built but whose every call is
    refused."""

    def invoke(self, operation, *args):
        raise CommFailure(f"connection reset during {operation}")


def _refused_call():
    registry = build_world()

    def resolver(name):
        if name == "RMIT":
            return CoDatabaseClient(RefusingTarget(), name)
        return CoDatabaseClient.for_local(registry.codatabase(name))

    return DiscoveryEngine(resolver).discover("Medical Insurance", "QUT")


def _skipped():
    clock = FakeClock()
    engine = make_engine(build_world(), clock=clock)
    return engine.discover("Medical Insurance", "QUT",
                           deadline=Deadline(2.0, clock=clock))


def _timed_out():
    registry = build_world()

    def resolver(name):
        if name == "RMIT":
            raise DeadlineExceeded("consultation overran the budget")
        return CoDatabaseClient.for_local(registry.codatabase(name))

    return DiscoveryEngine(resolver).discover(
        "Medical Insurance", "QUT", deadline=Deadline.after(30.0))


def _tripped():
    board = HealthBoard(failure_threshold=1)
    board.record("RMIT", ok=False)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1, sleep=lambda _s: None),
        health=board)
    engine = make_engine(build_world(), policy=policy)
    return engine.discover("Medical Insurance", "QUT", stop_at_first=False,
                           max_hops=2)


DEGRADED = {
    "unreachable": lambda: make_engine(build_world(), dead={"RMIT"})
    .discover("Medical Insurance", "QUT"),
    "unreachable-call": _refused_call,
    "skipped": _skipped,
    "timed-out": _timed_out,
    "tripped": _tripped,
}


def observed():
    return {"walk": walk_traces(),
            "degraded": {name: run().trace
                         for name, run in DEGRADED.items()}}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_walk_renders_the_lines_the_eager_trace_wrote(golden):
    assert walk_traces() == golden["walk"]


@pytest.mark.parametrize("reason", DEGRADED)
def test_a_degraded_resolution_renders_the_eager_lines(reason, golden):
    result = DEGRADED[reason]()
    assert result.partial
    assert result.trace == golden["degraded"][reason]


def test_the_trace_is_rendered_once_and_kept():
    result = make_engine(build_world(), dead={"RMIT"}).discover(
        "Medical Insurance", "QUT")
    assert "trace" not in vars(result)  # nothing rendered by discover
    first = result.trace
    assert first and all(isinstance(line, str) for line in first)
    assert result.trace is first
    assert vars(result)["trace"] is first


def _counts(result):
    return (result.codatabases_contacted, result.metadata_calls,
            result.cache_hits, result.cache_misses, result.failovers)


def _twice(discover):
    first, second = discover(), discover()
    assert [lead.name for lead in first.leads] \
        == [lead.name for lead in second.leads]
    assert _counts(first) == _counts(second)
    return first


def test_in_process_resolutions_count_only_themselves():
    registry = build_world()
    engine = DiscoveryEngine(
        lambda name: CoDatabaseClient.for_local(registry.codatabase(name)))
    result = _twice(lambda: engine.discover("Medical Insurance", "QUT",
                                            stop_at_first=False))
    assert result.leads
    assert result.codatabases_contacted == result.metadata_calls >= 3
    assert _counts(result)[2:] == (0, 0, 0)

    cache = MetadataCache()
    cached = DiscoveryEngine(lambda name: CoDatabaseClient(
        registry.codatabase(name), name, cache=cache))
    cold = cached.discover("Medical Insurance", "QUT", stop_at_first=False)
    assert cold.cache_misses == cold.codatabases_contacted
    warm = _twice(lambda: cached.discover("Medical Insurance", "QUT",
                                          stop_at_first=False))
    assert warm.metadata_calls == 0
    assert warm.cache_hits == warm.codatabases_contacted \
        == cold.codatabases_contacted


def test_proxied_resolutions_count_only_themselves():
    engine = build_healthcare_system().system.query_processor().discovery
    for query, start, options in PAPER_RESOLUTIONS:
        result = _twice(lambda: engine.discover(query, start, **options))
        assert result.metadata_calls == result.codatabases_contacted >= 2


def test_a_replica_route_reports_its_failovers_per_resolution():
    system = build_healthcare_system(replication_factor=2).system
    system.kill_replica(topo.RBH, 0)
    engine = system.query_processor().discovery
    results = [engine.discover("Medical Research", topo.AMBULANCE)
               for __ in range(3)]
    # The first resolution fails over on the dead primary's refusal;
    # after it the breaker skips the primary, and every route still
    # counts the one move to the sibling.
    assert all(result.failovers == 1 for result in results)
    assert len({_counts(result) for result in results}) == 1
    assert not any(result.degraded for result in results)


if __name__ == "__main__":
    json.dump(observed(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
