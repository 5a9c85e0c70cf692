"""Hedged requests: the adaptive delay policy and the replica route's
primary/backup race."""

import threading
import time

import pytest

from repro.core.replication import ReplicaRoute, ReplicaTarget
from repro.core.resilience import HealthBoard, HedgePolicy
from repro.deadline import Deadline, call_policy
from repro.errors import CommFailure


class TestHedgePolicy:
    def test_default_delay_until_enough_samples(self):
        policy = HedgePolicy(default_delay=0.07, min_samples=5)
        assert policy.hedge_delay("db") == 0.07
        for __ in range(4):
            policy.observe("db", 0.001)
        assert policy.hedge_delay("db") == 0.07  # still warming up

    def test_delay_tracks_the_tail_percentile(self):
        policy = HedgePolicy(percentile=0.99, min_samples=20, window=256)
        for index in range(100):
            policy.observe("db", 0.010 if index < 99 else 0.500)
        # p99 of 99x10ms + 1x500ms is the outlier itself.
        assert policy.hedge_delay("db") == 0.500
        # Keys are independent: an unseen key keeps the default.
        assert policy.hedge_delay("other") == policy.default_delay

    def test_window_forgets_old_outliers(self):
        policy = HedgePolicy(min_samples=5, window=10)
        policy.observe("db", 5.0)
        for __ in range(10):
            policy.observe("db", 0.01)
        assert policy.hedge_delay("db") == pytest.approx(0.01)

    def test_hedge_counters(self):
        policy = HedgePolicy()
        policy.record_hedge(won=True)
        policy.record_hedge(won=False)
        policy.record_hedge(won=False)
        assert policy.snapshot() == {"hedges_fired": 3, "hedges_won": 1,
                                     "hedges_lost": 2}


class FakeProxy:
    """A co-database stand-in with scriptable latency/failure."""

    def __init__(self, value, latency=0.0, failures=0):
        self.value = value
        self.latency = latency
        self.failures = failures
        self.calls = []
        self._lock = threading.Lock()

    def invoke(self, operation, *args):
        with self._lock:
            self.calls.append(operation)
        if self.latency:
            time.sleep(self.latency)
        with self._lock:
            if self.failures > 0:
                self.failures -= 1
                raise CommFailure(f"{self.value} down")
        return self.value


def _client(primary, backup, hedge):
    def target(key, proxy):
        return ReplicaTarget(key=key, binding=key,
                             proxy=lambda: proxy,
                             refresh=lambda: (proxy, False))

    return ReplicaRoute(
        "rbh", [target("rbh#0", primary), target("rbh#1", backup)],
        health=HealthBoard(), hedge=hedge)


class TestHedgedFailoverClient:
    def test_fast_primary_never_hedges(self):
        primary = FakeProxy("primary")
        backup = FakeProxy("backup")
        hedge = HedgePolicy(default_delay=0.2)
        client = _client(primary, backup, hedge)
        for __ in range(3):
            assert client.invoke("lookup") == "primary"
        assert hedge.snapshot()["hedges_fired"] == 0
        assert backup.calls == []
        assert client.failovers == 0

    def test_slow_primary_hedges_and_backup_wins(self):
        primary = FakeProxy("primary", latency=0.5)
        backup = FakeProxy("backup")
        hedge = HedgePolicy(default_delay=0.02)
        client = _client(primary, backup, hedge)
        started = time.monotonic()
        assert client.invoke("lookup") == "backup"
        elapsed = time.monotonic() - started
        assert elapsed < 0.4  # did not wait out the slow primary
        assert hedge.snapshot()["hedges_won"] == 1
        assert client.failovers == 1  # now served by the backup

    def test_fast_primary_failure_fails_over_without_hedging(self):
        primary = FakeProxy("primary", failures=1)
        backup = FakeProxy("backup")
        hedge = HedgePolicy(default_delay=0.2)
        client = _client(primary, backup, hedge)
        assert client.invoke("lookup") == "backup"
        # A fast failure is plain failover, not a hedge.
        assert hedge.snapshot()["hedges_fired"] == 0
        assert client.failovers == 1

    def test_backup_failure_falls_back_to_slow_primary(self):
        primary = FakeProxy("primary", latency=0.1)
        backup = FakeProxy("backup", failures=5)
        hedge = HedgePolicy(default_delay=0.02)
        client = _client(primary, backup, hedge)
        assert client.invoke("lookup") == "primary"
        snapshot = hedge.snapshot()
        assert snapshot["hedges_fired"] == 1
        assert snapshot["hedges_lost"] == 1
        assert client.failovers == 0

    def test_backup_failure_does_not_outwait_the_deadline(self):
        # The hedge fired because the primary is tail-slow; when the
        # backup then fails, the caller must get the failure within
        # its deadline budget instead of stalling behind the straggler.
        primary = FakeProxy("primary", latency=0.5)
        backup = FakeProxy("backup", failures=5)
        hedge = HedgePolicy(default_delay=0.02)
        client = _client(primary, backup, hedge)
        started = time.monotonic()
        with call_policy(deadline=Deadline(0.1)):
            with pytest.raises(CommFailure):
                client.invoke("lookup")
        elapsed = time.monotonic() - started
        assert elapsed < 0.4  # did not wait out the 0.5s primary
        assert hedge.snapshot()["hedges_lost"] == 1

    def test_both_sides_failing_raises(self):
        primary = FakeProxy("primary", latency=0.1, failures=5)
        backup = FakeProxy("backup", failures=5)
        hedge = HedgePolicy(default_delay=0.02)
        client = _client(primary, backup, hedge)
        with pytest.raises(CommFailure):
            client.invoke("lookup")
        assert hedge.snapshot()["hedges_fired"] == 1

    def test_no_hedge_policy_keeps_sequential_failover(self):
        primary = FakeProxy("primary", failures=1)
        backup = FakeProxy("backup")
        client = _client(primary, backup, hedge=None)
        assert client.invoke("lookup") == "backup"
        assert client.failovers == 1
