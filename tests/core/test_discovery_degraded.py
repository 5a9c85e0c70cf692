"""Deadline budgets, circuit-breaker skips, and the degraded report."""

import itertools
import threading

import pytest

from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.discovery import (SKIPPED, TIMED_OUT, TRIPPED, UNREACHABLE,
                                  CoDatabaseClient, DegradedReport,
                                  DiscoveryEngine)
from repro.core.model import SourceDescription
from repro.core.registry import Registry
from repro.core.resilience import (Deadline, HealthBoard, ResiliencePolicy,
                                   RetryPolicy)
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import CommFailure, DeadlineExceeded
from repro.orb import CdrEncoder, InMemoryNetwork, Orb

from tests.orb.test_cdr import nested_sequences


def build_world():
    registry = Registry()
    for name, info in [("QUT", "Medical Research"),
                       ("RBH", "Research and Medical"),
                       ("RMIT", "Medical Research"),
                       ("Medibank", "Medical Insurance")]:
        registry.add_source(SourceDescription(name=name,
                                              information_type=info))
    registry.create_coalition("Research", "Medical Research")
    registry.create_coalition("Medical", "Medical")
    registry.create_coalition("Insurance", "Medical Insurance")
    registry.join("QUT", "Research")
    registry.join("RBH", "Research")
    registry.join("RMIT", "Research")
    registry.join("RBH", "Medical")
    registry.join("Medibank", "Insurance")
    registry.add_service_link(ServiceLink(
        EndpointKind.COALITION, "Medical", EndpointKind.COALITION,
        "Insurance", information_type="Medical Insurance"))
    return registry


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return self.now

    def advance(self, seconds):
        with self._lock:
            self.now += seconds


def make_engine(registry, dead=(), clock=None, policy=None):
    dead = set(dead)

    def resolver(name: str) -> CoDatabaseClient:
        if name in dead:
            raise CommFailure(f"connection refused: {name}")
        if clock is not None:
            clock.advance(1.0)  # each consultation costs one tick
        return CoDatabaseClient.for_local(registry.codatabase(name))

    return DiscoveryEngine(resolver, policy=policy)


class TestDegradedReport:
    def test_empty_report_is_falsy(self):
        report = DegradedReport()
        assert not report
        assert report.summary() == "no degradation"

    def test_summary_groups_by_reason(self):
        report = DegradedReport()
        report.add("RMIT", UNREACHABLE, "refused", depth=1)
        report.add("Medibank", TRIPPED, depth=2)
        report.add("RBH", UNREACHABLE, depth=1)
        assert len(report) == 3
        assert report.by_reason()[UNREACHABLE] == ["RMIT", "RBH"]
        summary = report.summary()
        assert "3 co-database(s) skipped" in summary
        assert "tripped: Medibank" in summary
        assert "unreachable: RMIT, RBH" in summary


class TestDegradedDiscovery:
    def test_unreachable_recorded_with_reason(self):
        registry = build_world()
        engine = make_engine(registry, dead={"RMIT"})
        result = engine.discover("Medical Insurance", "QUT")
        assert result.resolved
        assert result.partial
        assert result.unreachable == ["RMIT"]
        assert result.degraded.by_reason()[UNREACHABLE] == ["RMIT"]
        # back-compat: unreachable is a subset of the degraded names
        assert set(result.unreachable) <= set(result.degraded.names())

    def test_healthy_run_reports_no_degradation(self):
        registry = build_world()
        engine = make_engine(registry)
        result = engine.discover("Medical Insurance", "QUT")
        assert result.resolved
        assert not result.partial
        assert not result.degraded

    def test_deadline_spent_marks_frontier_skipped(self):
        clock = FakeClock()
        registry = build_world()
        # Budget of 1 tick: depth 0 costs exactly it, so the whole
        # depth-1 frontier (RBH, RMIT) is skipped before consultation.
        engine = make_engine(registry, clock=clock)
        deadline = Deadline(1.0, clock=clock)
        result = engine.discover("Medical Insurance", "QUT",
                                 deadline=deadline)
        skipped = set(result.degraded.by_reason().get(SKIPPED, []))
        assert skipped == {"RBH", "RMIT"}
        assert result.partial
        # Local depth-0 answers are still reported.
        assert result.max_depth_reached >= 0

    def test_mid_frontier_deadline_skips_remainder(self):
        clock = FakeClock()
        registry = build_world()
        # 2 ticks: QUT (1) + RBH (1) spend it all, RMIT's turn never comes.
        engine = make_engine(registry, clock=clock)
        result = engine.discover("Medical Insurance", "QUT",
                                 deadline=Deadline(2.0, clock=clock))
        reasons = result.degraded.by_reason()
        assert "RMIT" in reasons.get(SKIPPED, [])
        assert "RBH" not in result.degraded.names()

    def test_timed_out_consultation_classified(self):
        registry = build_world()
        ticking = itertools.count()

        def resolver(name):
            if name == "RMIT":
                raise DeadlineExceeded("consultation overran the budget")
            next(ticking)
            return CoDatabaseClient.for_local(registry.codatabase(name))

        engine = DiscoveryEngine(resolver)
        result = engine.discover("Medical Insurance", "QUT",
                                 deadline=Deadline.after(30.0))
        assert result.degraded.by_reason().get(TIMED_OUT) == ["RMIT"]
        assert "RMIT" in result.unreachable

    def test_open_breaker_skips_without_consulting(self):
        registry = build_world()
        board = HealthBoard(failure_threshold=1)
        board.record("RMIT", ok=False)  # already known dead
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, sleep=lambda _s: None),
            health=board)
        calls = []

        def resolver(name):
            calls.append(name)
            return CoDatabaseClient.for_local(registry.codatabase(name))

        engine = DiscoveryEngine(resolver, policy=policy)
        result = engine.discover("Medical Insurance", "QUT",
                                 stop_at_first=False, max_hops=2)
        assert "RMIT" not in calls
        assert result.degraded.by_reason().get(TRIPPED) == ["RMIT"]
        assert result.resolved

    def test_breaker_never_blocks_depth_zero(self):
        registry = build_world()
        board = HealthBoard(failure_threshold=1)
        board.record("QUT", ok=False)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, sleep=lambda _s: None),
            health=board)
        engine = make_engine(registry, policy=policy)
        # The user's own repository is always attempted.
        result = engine.discover("Medical Research", "QUT")
        assert result.resolved

    def test_policy_records_health_and_trips_across_queries(self):
        registry = build_world()
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, sleep=lambda _s: None),
            health=HealthBoard(failure_threshold=2))
        engine = make_engine(registry, dead={"RMIT"}, policy=policy)
        first = engine.discover("Medical Insurance", "QUT")
        assert "RMIT" in first.unreachable
        second = engine.discover("Medical Insurance", "QUT")
        assert "RMIT" in second.unreachable  # breaker not yet open
        third = engine.discover("Medical Insurance", "QUT")
        # Two recorded failures opened the circuit: now skipped unvisited.
        assert third.degraded.by_reason().get(TRIPPED) == ["RMIT"]
        assert policy.health.state("RMIT") == "open"

    def test_retries_recover_transient_failure(self):
        registry = build_world()
        failures = {"RMIT": 2}

        def resolver(name):
            if failures.get(name, 0) > 0:
                failures[name] -= 1
                raise CommFailure(f"transient blip at {name}")
            return CoDatabaseClient.for_local(registry.codatabase(name))

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, sleep=lambda _s: None,
                              seed=1),
            health=HealthBoard(failure_threshold=5))
        engine = DiscoveryEngine(resolver, policy=policy)
        result = engine.discover("Medical Insurance", "QUT",
                                 stop_at_first=False, max_hops=2)
        assert "RMIT" not in result.unreachable
        assert not result.degraded
        assert policy.retry.retries >= 2

    def test_depth_zero_failure_still_raises(self):
        registry = build_world()
        engine = make_engine(registry, dead={"QUT"})
        with pytest.raises(CommFailure):
            engine.discover("anything", "QUT",
                            deadline=Deadline.after(30.0))

    def test_corrupt_reply_degrades_one_codatabase_not_the_resolution(self):
        """A reply nested 5,000 sequences deep used to escape
        ``Orb.invoke`` as RecursionError — not a ReproError, so the
        whole resolution aborted.  The codec's depth bound makes it a
        MarshalError: RMIT is marked unreachable, the rest answers."""
        registry = build_world()

        class CorruptsRmitReplies(InMemoryNetwork):
            def send(self, endpoint, data):
                reply = super().send(endpoint, data)
                if b"codb-RMIT" not in bytes(data):
                    return reply
                body = CdrEncoder()
                body.write_ulong(0)     # service contexts
                body.write_ulong(1)     # request id (unchecked in memory)
                body.write_ulong(0)     # NO_EXCEPTION
                payload = nested_sequences(5000, body)
                return b"GIOP\x01\x00\x00\x01" \
                    + len(payload).to_bytes(4, "big") + payload

        orb = Orb(name="codbs", transport=CorruptsRmitReplies())
        iors = {name: orb.activate(
                    CoDatabaseServant(registry.codatabase(name)),
                    CODATABASE_INTERFACE, object_name=f"codb-{name}")
                for name in registry.source_names()}
        engine = DiscoveryEngine(lambda name: CoDatabaseClient.for_proxy(
            orb.proxy(iors[name], CODATABASE_INTERFACE), name))
        result = engine.discover("Medical Insurance", "QUT")
        assert result.resolved
        assert result.best().name == "Insurance"
        assert result.unreachable == ["RMIT"]
        [entry] = result.degraded.entries
        assert (entry.database, entry.reason, entry.depth) \
            == ("RMIT", UNREACHABLE, 1)
        assert "nested too deeply" in entry.detail
