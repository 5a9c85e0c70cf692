"""Admission control: the controller, the wire protocol, and shedding
end-to-end over both transport servers."""

import threading
import time

import pytest

from repro.deadline import BACKGROUND, Deadline, call_policy
from repro.errors import CommFailure, ServerBusy
from repro.orb import (ORBIX, VISIBROKER, InMemoryNetwork, InterfaceBuilder,
                       TcpTransport, create_orb)
from repro.orb.faults import FaultyTransport
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, TRAFFIC_CLASS_CONTEXT,
                            ReplyMessage, ReplyStatus, RequestMessage,
                            busy_reply, decode_message, encode_message,
                            peek_request_admission)
from repro.orb.overload import (SHED_BROWNOUT, SHED_DEADLINE, SHED_OVERLOAD,
                                SHED_QUEUE_FULL, AdmissionController,
                                OverloadPolicy)

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()


class EchoServant:
    def echo(self, value):
        return value


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def controller(clock, **overrides):
    defaults = dict(queue_limit=4, background_fraction=0.5,
                    codel_target=0.05, codel_interval=0.5)
    defaults.update(overrides)
    return AdmissionController(OverloadPolicy(**defaults), clock=clock)


class TestAdmissionController:
    def test_admit_and_dequeue_fast_request(self):
        clock = FakeClock()
        admission = controller(clock)
        ticket, reason = admission.enqueue(budget=None,
                                           traffic_class="interactive")
        assert reason is None
        assert admission.pending == 1
        clock.advance(0.001)
        assert admission.dequeue(ticket) is None
        assert admission.pending == 0
        assert admission.snapshot()["admitted"] == 1

    def test_queue_limit_sheds_at_the_door(self):
        admission = controller(FakeClock(), queue_limit=2)
        tickets = [admission.enqueue(None, "interactive") for __ in range(2)]
        assert all(reason is None for __, reason in tickets)
        ticket, reason = admission.enqueue(None, "interactive")
        assert ticket is None and reason == SHED_QUEUE_FULL
        assert admission.snapshot()["shed_queue_full"] == 1

    def test_background_browns_out_at_the_soft_cap(self):
        admission = controller(FakeClock(), queue_limit=4,
                               background_fraction=0.5)
        for __ in range(2):
            admission.enqueue(None, "interactive")
        ticket, reason = admission.enqueue(None, BACKGROUND)
        assert ticket is None and reason == SHED_BROWNOUT
        # Interactive traffic still fits under the hard cap.
        ticket, reason = admission.enqueue(None, "interactive")
        assert reason is None

    def test_spent_budget_sheds_before_enqueue(self):
        admission = controller(FakeClock())
        ticket, reason = admission.enqueue(budget=0.0,
                                           traffic_class="interactive")
        assert ticket is None and reason == SHED_DEADLINE
        assert admission.snapshot()["requests_expired"] == 1

    def test_budget_spent_in_queue_sheds_at_dequeue(self):
        clock = FakeClock()
        admission = controller(clock)
        ticket, __ = admission.enqueue(budget=0.2,
                                       traffic_class="interactive")
        clock.advance(0.25)
        assert admission.dequeue(ticket) == SHED_DEADLINE
        assert admission.pending == 0

    def test_codel_tolerates_a_short_burst(self):
        clock = FakeClock()
        admission = controller(clock, codel_target=0.05, codel_interval=0.5)
        # Sojourn above target, but not yet for a full interval: admit.
        for __ in range(3):
            ticket, __reason = admission.enqueue(None, "interactive")
            clock.advance(0.1)
            assert admission.dequeue(ticket) is None
            clock.advance(0.1)

    def test_codel_sheds_after_a_sustained_interval(self):
        clock = FakeClock()
        admission = controller(clock, queue_limit=64,
                               codel_target=0.05, codel_interval=0.5)
        first, __ = admission.enqueue(None, "interactive")
        clock.advance(0.1)
        assert admission.dequeue(first) is None  # starts the clock
        shed = None
        for __ in range(10):
            ticket, __reason = admission.enqueue(None, "interactive")
            clock.advance(0.1)
            shed = admission.dequeue(ticket)
            if shed is not None:
                break
        assert shed == SHED_OVERLOAD
        # While dropping, background is shed even at healthy-ish ages.
        ticket, __reason = admission.enqueue(None, BACKGROUND)
        clock.advance(0.06)
        assert admission.dequeue(ticket) == SHED_BROWNOUT

    def test_codel_recovers_when_sojourn_drops(self):
        clock = FakeClock()
        admission = controller(clock, codel_target=0.05, codel_interval=0.1)
        for __ in range(3):
            ticket, __reason = admission.enqueue(None, "interactive")
            clock.advance(0.2)
            admission.dequeue(ticket)
        # A healthy (fast) dequeue resets the dropping state.
        ticket, __reason = admission.enqueue(None, "interactive")
        clock.advance(0.001)
        assert admission.dequeue(ticket) is None
        ticket, __reason = admission.enqueue(None, "interactive")
        clock.advance(0.06)
        assert admission.dequeue(ticket) is None  # clock restarted

    def test_abandon_releases_pending_once(self):
        admission = controller(FakeClock())
        ticket, __ = admission.enqueue(None, "interactive")
        assert admission.pending == 1
        admission.abandon(ticket)
        admission.abandon(ticket)  # idempotent
        assert admission.pending == 0
        # A settled (dequeued) ticket is not double-released either.
        ticket, __ = admission.enqueue(None, "interactive")
        admission.dequeue(ticket)
        admission.abandon(ticket)
        assert admission.pending == 0

    def test_dequeue_after_abandon_never_double_decrements(self):
        # Error paths may abandon unconditionally while a worker races
        # to dequeue the same ticket; whichever settles it first owns
        # the single pending-slot release.
        admission = controller(FakeClock())
        first, __ = admission.enqueue(None, "interactive")
        second, __ = admission.enqueue(None, "interactive")
        assert admission.pending == 2
        admission.abandon(first)
        admission.dequeue(first)  # already settled: no second release
        assert admission.pending == 1
        admission.abandon(second)
        assert admission.pending == 0


class TestOverloadWireProtocol:
    def test_admission_contexts_roundtrip(self):
        frame = encode_message(RequestMessage(
            request_id=7, object_key=b"key", operation="echo",
            arguments=("x",),
            service_context=((DEADLINE_BUDGET_CONTEXT, "0.250000"),
                            (TRAFFIC_CLASS_CONTEXT, BACKGROUND))))
        budget, traffic_class = peek_request_admission(frame)
        assert budget == pytest.approx(0.25)
        assert traffic_class == BACKGROUND

    def test_request_without_contexts_defaults(self):
        frame = encode_message(RequestMessage(
            request_id=7, object_key=b"key", operation="echo",
            arguments=("x",)))
        assert peek_request_admission(frame) == (None, "interactive")

    def test_non_request_frames_never_shed(self):
        assert peek_request_admission(b"garbage") == (None, "interactive")

    def test_busy_reply_roundtrip(self):
        frame = encode_message(RequestMessage(
            request_id=42, object_key=b"key", operation="echo",
            arguments=("x",)))
        shed = busy_reply(frame, "overload")
        reply = decode_message(shed)
        assert isinstance(reply, ReplyMessage)
        assert reply.status is ReplyStatus.BUSY
        assert reply.body == {"reason": "overload"}
        assert reply.request_id == 42

    def test_busy_reply_for_oneway_is_silent(self):
        frame = encode_message(RequestMessage(
            request_id=42, object_key=b"key", operation="echo",
            arguments=("x",), response_expected=False))
        assert busy_reply(frame, "overload") is None


def _always_shedding_policy():
    """codel target+interval of zero: the first dispatch arms the CoDel
    clock and every later dequeue sheds — deterministic overload."""
    return OverloadPolicy(codel_target=0.0, codel_interval=0.0)


#: The TCP tests run against the one server a TcpTransport has; the id
#: names it.
EVENT_LOOP = pytest.mark.parametrize("server", ["event-loop"])


class TestSheddingOverTcp:
    @EVENT_LOOP
    def test_overloaded_server_sheds_with_server_busy(self, server):
        transport = TcpTransport(overload=_always_shedding_policy())
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            proxy = client.proxy(server.activate(EchoServant(), ECHO), ECHO)
            assert proxy.echo("first") == "first"  # arms the CoDel clock
            with pytest.raises(ServerBusy, match="overload"):
                proxy.echo("second")
            assert transport.metrics.requests_shed >= 1
        finally:
            transport.close()

    def test_default_transport_admits_every_request(self):
        """Admission control has no off switch: a transport built with
        no policy admits, queues and dequeues every request it serves
        through its controller."""
        transport = TcpTransport()
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            proxy = client.proxy(server.activate(EchoServant(), ECHO), ECHO)
            for index in range(5):
                assert proxy.echo(index) == index
            snapshot = transport.admission.snapshot()
            assert snapshot["admitted"] >= 5
            assert snapshot["pending"] == 0
            assert transport.metrics.requests_shed == 0
        finally:
            transport.close()

    def test_server_busy_is_a_comm_failure(self):
        # Failover and breaker machinery treat a shedding replica like
        # a dead one — the call moves on instead of crashing.
        assert issubclass(ServerBusy, CommFailure)

    @EVENT_LOOP
    def test_close_drains_in_flight_dispatches(self, server):
        """Teardown must not abandon a dispatch mid-servant (it may be
        holding journal locks): close() waits out a servant already
        running on a loop thread."""
        finished = threading.Event()

        class SlowServant:
            def echo(self, value):
                time.sleep(0.3)
                finished.set()
                return value

        transport = TcpTransport()
        server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        proxy = client.proxy(server.activate(SlowServant(), ECHO), ECHO)

        def fire():
            try:
                proxy.echo("x")
            except CommFailure:
                pass  # the connection died under us: that part is fine

        caller = threading.Thread(target=fire, daemon=True)
        caller.start()
        time.sleep(0.1)  # let the request reach a worker
        transport.close()
        assert finished.is_set(), \
            "transport.close() abandoned an in-flight dispatch"
        caller.join(timeout=2.0)

    def test_connection_teardown_abandons_queued_admission_tickets(self):
        """Frames from concurrent callers still queued behind a busy
        worker when the transport is torn down are cancelled; each cancelled frame must hand its
        admission ticket back, or the transport-shared controller
        leaks queue capacity until everything is shed as queue-full."""
        release = threading.Event()
        picked_up = threading.Event()

        class BlockingServant:
            def echo(self, value):
                picked_up.set()
                release.wait(5.0)
                return value

        policy = OverloadPolicy(queue_limit=64,
                                codel_target=10.0, codel_interval=10.0)
        transport = TcpTransport(loop_workers=1, overload=policy)
        closer = threading.Thread(target=transport.close, daemon=True)
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            proxy = client.proxy(server.activate(BlockingServant(), ECHO),
                                 ECHO)

            def fire():
                try:
                    proxy.echo("x")
                except CommFailure:
                    pass  # the connection died under us: expected

            callers = [threading.Thread(target=fire, daemon=True)
                       for __ in range(4)]
            for caller in callers:
                caller.start()
            # One frame occupies the single servant slot (its ticket
            # settles at pickup); the other three wait in the job queue.
            # All four may be enqueued before the first pickup, so wait
            # for the pickup too, not just for a count.
            deadline = time.monotonic() + 2.0
            while (not (picked_up.is_set() and
                        transport.admission.snapshot()["pending"] == 3)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert picked_up.is_set()
            assert transport.admission.snapshot()["pending"] == 3
            # close() runs while the servant is still busy, so the
            # three queued frames get *cancelled* — from a side thread,
            # because it then waits out the running one.
            closer.start()
            # Poll for the cancelled frames' tickets to be abandoned.
            # The servant stays blocked throughout, so dequeue cannot be
            # the one releasing them.
            deadline = time.monotonic() + 2.0
            while (transport.admission.snapshot()["pending"] > 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert not release.is_set()
            assert transport.admission.snapshot()["pending"] == 0, \
                "cancelled dispatches leaked admission tickets"
        finally:
            release.set()
            if closer.is_alive():
                closer.join(timeout=5.0)
            transport.close()
        assert not closer.is_alive()
        for caller in callers:
            caller.join(timeout=2.0)


class TestBusyFaultRule:
    def test_busy_rule_sheds_without_server_work(self):
        calls = []

        class CountingServant:
            def echo(self, value):
                calls.append(value)
                return value

        faulty = FaultyTransport(InMemoryNetwork(), seed=3)
        server = create_orb(ORBIX, faulty)
        client = create_orb(VISIBROKER, faulty)
        ior = server.activate(CountingServant(), ECHO)
        proxy = client.proxy(ior, ECHO)
        faulty.busy(ior.primary.endpoint)
        with pytest.raises(ServerBusy, match="injected"):
            proxy.echo("x")
        assert faulty.injected["busy"] == 1
        assert calls == []  # the servant never ran
        faulty.heal(ior.primary.endpoint)
        assert proxy.echo("x") == "x"

    def test_busy_window_with_rate_and_after(self):
        faulty = FaultyTransport(InMemoryNetwork(), seed=3)
        server = create_orb(ORBIX, faulty)
        client = create_orb(VISIBROKER, faulty)
        ior = server.activate(EchoServant(), ECHO)
        proxy = client.proxy(ior, ECHO)
        faulty.busy(ior.primary.endpoint, after=2, until=4)
        assert proxy.echo(1) == 1
        assert proxy.echo(2) == 2
        for __ in range(2):
            with pytest.raises(ServerBusy):
                proxy.echo("shed")
        assert proxy.echo(5) == 5
        assert faulty.injected["busy"] == 2
