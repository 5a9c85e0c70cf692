"""Chaos acceptance: overload behaviour of the federation.

Two scenarios, both seeded (``CHAOS_SEED``):

* **busy faults** — co-databases that shed every request with a BUSY
  reply must degrade discovery, not crash it, and the retry *budget*
  must keep total retry volume a bounded fraction of offered load no
  matter how tempting the retries are.
* **request storm** — a burst far past a tiny server's capacity, every
  request carrying a deadline.  The server's admission controller
  refuses work it cannot finish in budget (and the counters show it).
"""

import random
import threading
import time

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.resilience import (HealthBoard, ResiliencePolicy,
                                   RetryBudget, RetryPolicy)
from repro.deadline import Deadline, call_policy
from repro.errors import CommFailure, DeadlineExceeded, ServerBusy
from repro.orb import (ORBIX, VISIBROKER, InMemoryNetwork, InterfaceBuilder,
                       TcpTransport, create_orb)
from repro.orb.faults import FaultyTransport

QUERY = "Medical Insurance"
BUSY_COUNT = 3
RETRY_RATIO = 0.1
RETRY_BURST = 1.0

STORM_CLIENTS = 60
STORM_DEADLINE = 0.25
SERVICE_TIME = 0.02
WORKERS = 2

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()


@pytest.mark.chaos
def test_busy_faults_cap_retry_volume(chaos_seed):
    """BUSY-shedding sources degrade discovery; retries stay budgeted."""
    candidates = [name for name in topo.ALL_DATABASES if name != topo.QUT]
    busy_set = set(random.Random(chaos_seed).sample(candidates, BUSY_COUNT))
    faulty = FaultyTransport(InMemoryNetwork(), seed=chaos_seed)
    budget = RetryBudget(ratio=RETRY_RATIO, burst=RETRY_BURST)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                          max_delay=0.01, seed=chaos_seed, budget=budget),
        health=HealthBoard(failure_threshold=3))
    deployment = build_healthcare_system(
        transport=faulty, resilience=policy, isolate_sources=True)
    for name in busy_set:
        faulty.busy(deployment.codatabase_endpoint(name))

    engine = deployment.system.query_processor().discovery
    result = engine.discover(QUERY, topo.QUT, stop_at_first=False,
                             max_hops=6)

    # The federation answered from its healthy part: shedding servers
    # are degradation, not a crash.
    assert result.leads is not None
    assert set(result.degraded.names()) <= busy_set
    assert faulty.injected["busy"] > 0

    # The acceptance invariant: total retry volume never exceeds the
    # budget fraction of offered load (plus one initial burst per
    # shedding source) — no retry storm amplifies the overload.
    snapshot = budget.snapshot()
    assert snapshot["granted"] <= \
        RETRY_RATIO * snapshot["attempts"] + RETRY_BURST * BUSY_COUNT, \
        snapshot
    assert policy.retry.retries == snapshot["granted"]
    # With every request to a busy source refused, the budget must
    # actually have refused retries, not merely never been asked.
    assert snapshot["denied"] > 0


class SlowEchoServant:
    def echo(self, value):
        time.sleep(SERVICE_TIME)
        return value


@pytest.mark.chaos
def test_request_storm_respects_shedding_configuration(chaos_seed):
    """A burst at ~6x capacity against a default transport: its
    admission controller sheds what it cannot serve in budget."""
    transport = TcpTransport(loop_workers=WORKERS, timeout=5.0)
    budget = RetryBudget(ratio=RETRY_RATIO, burst=10.0)
    outcomes = {"ok": 0, "shed": 0, "expired": 0, "comm": 0}
    lock = threading.Lock()
    try:
        server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        proxy = client.proxy(server.activate(SlowEchoServant(), ECHO), ECHO)
        proxy.echo("warm")  # connection setup outside the storm
        barrier = threading.Barrier(STORM_CLIENTS)

        def caller(index):
            barrier.wait()
            try:
                with call_policy(deadline=Deadline(STORM_DEADLINE),
                                 idempotent=True, retry_budget=budget):
                    assert proxy.echo(index) == index
            except ServerBusy:
                bucket = "shed"
            except DeadlineExceeded:
                bucket = "expired"
            except CommFailure:
                bucket = "comm"
            else:
                bucket = "ok"
            with lock:
                outcomes[bucket] += 1

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(STORM_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sum(outcomes.values()) == STORM_CLIENTS
        # Clients that missed their deadline gave up *client-side*; the
        # server is still working through the backlog and only sheds
        # their corpses at dequeue.  Let the queue drain before reading
        # the counters.
        drain_until = time.monotonic() + 10.0
        while transport.admission.pending > 0 \
                and time.monotonic() < drain_until:
            time.sleep(0.02)
        shed = transport.metrics.requests_shed
        expired = transport.metrics.requests_expired
        # Overloaded, the deadline-aware admission layer refused work
        # it could not finish, and what it did accept largely completed
        # in budget.
        assert shed + expired > 0, transport.admission.snapshot()
        assert outcomes["ok"] >= STORM_CLIENTS // 4, outcomes
        # The storm's transparent resends stayed budgeted.
        snapshot = budget.snapshot()
        assert snapshot["granted"] <= \
            RETRY_RATIO * snapshot["attempts"] + 10.0, snapshot
    finally:
        transport.close()
