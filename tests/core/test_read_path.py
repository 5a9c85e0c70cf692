"""One co-database read: what it hands out, where it goes, what guards it.

A read is one guarded call over a proxy the system keeps per
non-replicated source, through an in-memory fabric whose handler table
is copy-on-write and a breaker that admits without its lock while
closed.  These tests state what that must not change:

* what a read hands out is the caller's own: mutating it changes no
  later read, over a kept proxy, over a proxy behind a
  :class:`~repro.core.metacache.MetadataCache` and over an in-process
  co-database;
* the kept proxy goes when its binding is rebound: the next read
  reaches the new IOR;
* with readers racing a trip and a half-open probe (switch interval
  1 µs), no read is admitted while the breaker is open except the one
  probe, and ``successes + failures`` equals the reads that reached
  the transport;
* ``send`` racing ``register`` / ``unregister`` never delivers to
  another endpoint's handler, fails only with ``CommFailure`` for an
  unbound endpoint, and no concurrent registration is lost.
"""

import copy
import dataclasses
import sys
import threading
import time

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.core.codatabase import CODATABASE_INTERFACE, CoDatabaseServant
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.metacache import MetadataCache
from repro.core.resilience import (CLOSED, HALF_OPEN, OPEN, HealthBoard,
                                   ResiliencePolicy, RetryPolicy)
from repro.errors import CircuitOpen, CommFailure, ObjectNotExist
from repro.orb.transport import InMemoryNetwork

#: Every read of the client, with arguments that answer on RBH's
#: co-database, and a way to change what it handed out.
READS = [
    ("describe_instance", (topo.RBH,)),
    ("instances_of", ("Medical",)),
    ("known_coalitions", ()),
    ("memberships", ()),
    ("subclasses_of", ("Medical",)),
    ("service_links", ()),
    ("neighbor_databases", ()),
    ("documents_of", (topo.RBH,)),
    ("find_coalitions", ("medical",)),
]


def scribble(value):
    """Change everything mutable in *value*, in place."""
    if isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")
    elif isinstance(value, dict):
        for item in value.values():
            scribble(item)
        value["scribbled"] = ["scribbled"]
    elif dataclasses.is_dataclass(value):
        for item in vars(value).values():
            if isinstance(item, (list, dict)):
                scribble(item)


@pytest.fixture(scope="module")
def deployments():
    plain = build_healthcare_system()
    cached = build_healthcare_system(metadata_cache=MetadataCache())
    return plain, cached


def clients(deployments):
    plain, cached = deployments
    return {
        "proxy": lambda: plain.system.codatabase_client(topo.RBH),
        "cached proxy": lambda: cached.system.codatabase_client(topo.RBH),
        "in process": lambda: CoDatabaseClient.for_local(
            plain.system.registry.codatabase(topo.RBH)),
    }


class TestAReadBelongsToItsCaller:
    @pytest.mark.parametrize("route", ["proxy", "cached proxy",
                                       "in process"])
    @pytest.mark.parametrize("operation, arguments", READS,
                             ids=[read for read, __ in READS])
    def test_mutating_a_read_changes_no_later_read(
            self, deployments, route, operation, arguments):
        client = clients(deployments)[route]
        first = getattr(client(), operation)(*arguments)
        kept = copy.deepcopy(first)
        scribble(first)
        again = getattr(client(), operation)(*arguments)
        assert again == kept
        scribble(again)
        assert getattr(client(), operation)(*arguments) == kept

    def test_the_kept_proxy_is_one_per_source(self, deployments):
        plain, __ = deployments
        system = plain.system
        assert system.codatabase_client(topo.RBH).target \
            is system.codatabase_client(topo.RBH).target
        assert system.codatabase_client(topo.RBH).target \
            is not system.codatabase_client(topo.QUT).target


class TestARebindDropsTheKeptProxy:
    def test_a_restarted_primary_is_read_at_its_new_ior(self):
        deployment = build_healthcare_system(replication_factor=2)
        system = deployment.system
        system.codatabase_client(topo.RBH).memberships()
        old = deployment.codatabase_replica_endpoint(topo.RBH, 0)
        system.kill_replica(topo.RBH, 0)
        system.restart_replica(topo.RBH, 0)
        new = deployment.codatabase_replica_endpoint(topo.RBH, 0)
        assert new != old
        system.reset_metrics()
        client = system.codatabase_client(topo.RBH)
        assert topo.RBH in [description.name for description
                            in client.instances_of("Medical")]
        assert client.failovers == 0
        sent = system.metrics()["giop_per_endpoint"]
        assert sent[f"{new[0]}:{new[1]}"] == 1  # plus the naming lookup
        assert f"{old[0]}:{old[1]}" not in sent

    def test_a_rebound_codatabase_is_read_at_its_new_ior(self):
        deployment = build_healthcare_system()
        system = deployment.system
        kept = system.codatabase_client(topo.RMIT).target
        ior = kept.ior
        orb = next(orb for orb in system.orbs()
                   if orb.endpoint == ior.primary.endpoint)
        orb.deactivate(ior)
        with pytest.raises(ObjectNotExist):  # the kept proxy's old key
            system.codatabase_client(topo.RMIT).memberships()
        # What recovery does: serve the co-database again, rebind its
        # name and drop the system's entry for it.
        revived = orb.activate(
            CoDatabaseServant(system.registry.codatabase(topo.RMIT)),
            CODATABASE_INTERFACE, object_name=f"codb-{topo.RMIT}-revived")
        system.naming.rebind(f"webfindit/codb/{topo.RMIT}", revived)
        system._ior_cache.pop(f"codb/{topo.RMIT}", None)
        client = system.codatabase_client(topo.RMIT)
        assert client.target is not kept
        assert client.target.ior == revived
        assert client.memberships()


#: Seconds any wait may take: one CPU shared by 1 µs switches starves
#: a thread for seconds at a time.
TIMEOUT = 120


class Target:
    """A co-database stand-in: counts what reaches it, fails on
    demand, and holds a call while ``hold`` is an unset Event."""

    def __init__(self):
        self._lock = threading.Lock()
        self.sent = 0
        self.failing = False
        self.hold = None

    def invoke(self, operation, *args):
        with self._lock:
            self.sent += 1
        hold = self.hold
        if hold is not None:
            assert hold.wait(TIMEOUT)
        if self.failing:
            raise CommFailure("refused")
        return ["Medical"]


def wait_for(condition, what):
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


class TestTheGuardUnderRacingReaders:
    READERS = 4  # plus the controlling thread: at most 8 threads

    def test_no_read_is_admitted_while_open_but_the_probe(self):
        now = [0.0]
        board = HealthBoard(failure_threshold=3, reset_timeout=5.0,
                            clock=lambda: now[0])
        policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=1),
                                  health=board)
        target = Target()
        engine = DiscoveryEngine(
            lambda name: CoDatabaseClient(target, name), policy=policy)
        stop = threading.Event()
        rounds = [0] * self.READERS
        outcomes = {"ok": 0, "failed": 0, "refused": 0, "other": 0}
        tally = threading.Lock()
        died = []
        start = threading.Barrier(self.READERS)

        def reader(slot):
            try:
                start.wait(TIMEOUT)  # all ask for the unknown key at once
                while not stop.is_set():
                    __, error = engine.read("Alpha", "memberships")
                    kind = "ok" if error is None else \
                        "refused" if isinstance(error, CircuitOpen) else \
                        "failed" if isinstance(error, CommFailure) \
                        else "other"
                    with tally:
                        outcomes[kind] += 1
                    rounds[slot] += 1
            except BaseException as exc:  # the test reports it
                died.append(exc)
                raise

        def settle(readers=self.READERS, more=3):
            """Wait until *readers* of them each finished *more* reads
            begun after this call."""
            marks = list(rounds)
            wait_for(lambda: died or sum(
                count >= mark + more
                for count, mark in zip(rounds, marks)) >= readers,
                "readers stalled")
            assert died == []

        release = threading.Event()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        try:
            for thread in threads:
                thread.start()
            settle(more=500)  # many concurrent outcome records
            target.failing = True  # trip it
            wait_for(lambda: board.state("Alpha") == OPEN, "never tripped")
            # Reads admitted before the trip land; a success among them
            # closes the breaker again, and the failures that follow
            # trip it again.
            settle()
            wait_for(lambda: board.state("Alpha") == OPEN, "never tripped")
            settle()
            sent_while_open = target.sent
            trips = board.snapshot()["Alpha"]["trips"]
            settle()
            assert target.sent == sent_while_open
            # Half-open: one probe goes out, and is held there.
            target.hold = release
            target.failing = False
            now[0] += 10.0
            wait_for(lambda: target.sent > sent_while_open, "no probe")
            assert board.state("Alpha") == HALF_OPEN
            settle(readers=self.READERS - 1)
            assert target.sent == sent_while_open + 1
            target.hold = None
            release.set()
            wait_for(lambda: board.state("Alpha") == CLOSED, "never closed")
            settle(more=500)
        finally:
            stop.set()
            target.hold = None
            release.set()
            for thread in threads:
                thread.join(TIMEOUT)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        health = board.snapshot()
        assert list(health) == ["Alpha"]
        assert health["Alpha"]["successes"] + health["Alpha"]["failures"] \
            == target.sent == outcomes["ok"] + outcomes["failed"]
        assert health["Alpha"]["trips"] == trips
        assert outcomes["refused"] == health["Alpha"]["rejections"] > 0
        assert outcomes["other"] == 0

    def test_readers_racing_for_a_new_key_share_one_breaker(self):
        board = HealthBoard()
        keys = [f"k{i}" for i in range(200)]
        start = threading.Barrier(self.READERS)
        seen = [[] for __ in range(self.READERS)]

        def reader(slot):
            for key in keys:
                start.wait(TIMEOUT)  # all ask for this new key at once
                seen[slot].append(board.breaker(key))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for breakers in seen:
            assert all(mine is board.breaker(key)
                       for mine, key in zip(breakers, keys))


class TestTheHandlerTableUnderRacingWrites:
    def test_send_never_reaches_another_endpoints_handler(self):
        network = InMemoryNetwork()
        steady = [("steady", port) for port in range(3)]
        churned = [("churned", port) for port in range(3)]
        for endpoint in steady:
            network.register(endpoint, lambda data, e=endpoint:
                             repr(e).encode())
        stop = threading.Event()
        errors = []

        def sender(endpoints):
            while not stop.is_set():
                for endpoint in endpoints:
                    try:
                        reply = network.send(endpoint, b"x")
                    except CommFailure as exc:
                        if endpoint in steady:
                            errors.append(exc)
                        continue
                    except Exception as exc:  # any other is a failure
                        errors.append(exc)
                        continue
                    if reply != repr(endpoint).encode():
                        errors.append(AssertionError((endpoint, reply)))

        def churner(endpoint, cycles):
            for __ in range(cycles):
                network.register(endpoint, lambda data, e=endpoint:
                                 repr(e).encode())
                network.unregister(endpoint)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        senders = [threading.Thread(target=sender,
                                    args=(steady + churned,))
                   for __ in range(3)]
        churners = [threading.Thread(target=churner, args=(endpoint, 300))
                    for endpoint in churned]
        try:
            for thread in senders + churners:
                thread.start()
            for thread in churners:
                thread.join(30)
        finally:
            stop.set()
            for thread in senders:
                thread.join(30)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in senders + churners)
        assert errors == []
        for endpoint in steady:
            assert network.send(endpoint, b"x") == repr(endpoint).encode()
        for endpoint in churned:
            with pytest.raises(CommFailure):
                network.send(endpoint, b"x")

    def test_concurrent_registrations_are_all_kept(self):
        network = InMemoryNetwork()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def register(host):
            for port in range(200):
                network.register((host, port), lambda data: data)

        threads = [threading.Thread(target=register, args=(f"h{i}",))
                   for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(4):
            for port in range(200):
                assert network.send((f"h{i}", port), b"x") == b"x"
