"""Property-based pipelining conformance: reply matching under
arbitrary reorderings.

The GIOP pipeline's one load-bearing promise is *attribution*: with N
requests in flight on a shared connection and replies arriving in any
order the server finishes them, every caller gets exactly the reply
whose ``request_id`` matches its request — never a sibling's, never
none.  Hypothesis drives the reordering: it draws a per-request delay
schedule the echo servant sleeps by, so replies come back in delay
order rather than submission order, across every stripe count.
"""

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orb import InterfaceBuilder, TcpTransport, create_orb, ORBIX
from repro.orb.giop import (LocateReplyMessage, LocateRequestMessage,
                            LocateStatus, ReplyMessage, ReplyStatus,
                            RequestMessage, decode_message, encode_message,
                            peek_reply_id, peek_request)
from repro.orb.transport import read_giop_frame

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()

STRIPE_COUNTS = pytest.mark.parametrize(
    "stripes", [1, 2, 4], ids=["stripes1", "stripes2", "stripes4"])


class ScheduledEchoServant:
    """Echoes its argument after a per-value delay from a schedule —
    the knob hypothesis turns to force out-of-order replies."""

    def __init__(self, delays):
        self.delays = delays
        self.started = threading.Event()

    def echo(self, value):
        self.started.set()
        delay = self.delays[value % len(self.delays)]
        if delay:
            import time
            time.sleep(delay)
        return value


def run_pipelined_batch(delays, stripes, depth=32, server_transport=None):
    """Fire ``len(delays)`` concurrent pipelined requests; returns
    ``(results, errors, metrics)``.  The pipelining transport serves
    its own servant unless *server_transport* (closed here too) is
    given to host it instead."""
    transport = TcpTransport(pipelined=True, stripes=stripes,
                             pipeline_depth=depth)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    server = orb if server_transport is None else create_orb(
        ORBIX, server_transport, host="127.0.0.1", port=0)
    try:
        ior = server.activate(ScheduledEchoServant(delays), ECHO,
                              object_name="echo")
        proxy = orb.proxy(ior, ECHO)
        count = len(delays)
        barrier = threading.Barrier(count)
        results, errors = {}, []

        def caller(index):
            barrier.wait()
            try:
                results[index] = proxy.echo(index)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append((index, exc))

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results, errors, transport.metrics
    finally:
        transport.close()
        if server_transport is not None:
            server_transport.close()


@STRIPE_COUNTS
@given(delays=st.lists(
    st.sampled_from([0.0, 0.001, 0.005, 0.02]), min_size=2, max_size=8))
@settings(max_examples=5, deadline=None)
def test_every_caller_gets_its_own_reply(stripes, delays):
    """Random delay schedules reorder replies arbitrarily; attribution
    must hold regardless: no cross-wiring, no lost replies."""
    results, errors, metrics = run_pipelined_batch(delays, stripes)
    assert errors == []
    assert results == {index: index for index in range(len(delays))}
    # Every request was accounted for exactly once.
    assert metrics.messages_sent == len(delays)


@STRIPE_COUNTS
def test_reordered_replies_do_not_cross_wire(stripes):
    """The adversarial schedule — first-submitted finishes last — on a
    batch deep enough that every stripe carries several requests."""
    delays = [0.05, 0.04, 0.03, 0.02, 0.01, 0.0, 0.0, 0.0]
    results, errors, metrics = run_pipelined_batch(delays, stripes)
    assert errors == []
    assert results == {index: index for index in range(len(delays))}
    assert metrics.requests_pipelined > 0
    assert metrics.max_in_flight > 1
    assert metrics.pipeline_stalls == 0


@STRIPE_COUNTS
def test_stripe_cap_is_respected(stripes):
    """Concurrent callers never open more than ``stripes`` pipelined
    connections to one endpoint."""
    delays = [0.02] * 12
    transport = TcpTransport(pipelined=True, stripes=stripes,
                             pipeline_depth=32)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        ior = orb.activate(ScheduledEchoServant(delays), ECHO,
                           object_name="echo")
        proxy = orb.proxy(ior, ECHO)
        barrier = threading.Barrier(len(delays))

        def caller(index):
            barrier.wait()
            assert proxy.echo(index) == index

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(len(delays))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert transport.stripe_count(orb.endpoint) <= stripes
        assert transport.pipeline_in_flight(orb.endpoint) == 0
    finally:
        transport.close()


def test_depth_cap_overflows_to_serial():
    """Requests beyond stripes x depth fall back to dedicated serial
    round-trips instead of queueing — and still all succeed."""
    delays = [0.02] * 10
    results, errors, metrics = run_pipelined_batch(delays, stripes=1,
                                                   depth=2)
    assert errors == []
    assert results == {index: index for index in range(len(delays))}
    assert metrics.pipeline_overflows > 0
    assert metrics.max_in_flight <= 2


# --------------------------------- pipelining client, serial server --


@given(delays=st.lists(
    st.sampled_from([0.0, 0.001, 0.005, 0.02]), min_size=2, max_size=8))
@settings(max_examples=5, deadline=None)
def test_pipelining_client_of_a_serial_server(delays):
    """Mixed deployment: endpoints of a thread-per-connection transport
    are reachable from another transport's pipelined channel.  The
    server reads the back-to-back frames one at a time, so nothing
    overlaps — but attribution holds all the same: every caller gets
    its own reply, none lost, none stalled."""
    results, errors, metrics = run_pipelined_batch(
        delays, stripes=1, server_transport=TcpTransport(loop=False))
    assert errors == []
    assert results == {index: index for index in range(len(delays))}
    assert metrics.messages_sent == len(delays)
    assert metrics.pipeline_stalls == 0


def test_serial_server_answers_back_to_back_frames_in_order():
    """A foreign client that writes three requests in one ``sendall``
    to a thread-per-connection endpoint reads three replies in request
    order — even when the first is the slowest."""
    transport = TcpTransport(loop=False)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        ior = orb.activate(ScheduledEchoServant([0.02, 0.0, 0.0]), ECHO,
                           object_name="echo")
        frames = [encode_message(RequestMessage(
            request_id=100 + index, object_key=ior.primary.object_key,
            operation="echo", arguments=[index])) for index in range(3)]
        with socket.create_connection(orb.endpoint, timeout=5.0) as sock:
            sock.sendall(b"".join(frames))
            replies = [decode_message(read_giop_frame(sock))
                       for __ in frames]
        assert [reply.request_id for reply in replies] == [100, 101, 102]
        assert [reply.body for reply in replies] == [0, 1, 2]
    finally:
        transport.close()


# --------------------------------------------------------- frame peeking --


@given(request_id=st.integers(min_value=0, max_value=2**32 - 1),
       response_expected=st.booleans(),
       operation=st.text(min_size=1, max_size=20),
       little_endian=st.booleans(),
       context=st.lists(st.tuples(st.integers(0, 2**16),
                                  st.text(max_size=8)), max_size=3))
@settings(max_examples=100, deadline=None)
def test_peek_request_roundtrip(request_id, response_expected, operation,
                                little_endian, context):
    """peek_request reads back exactly the id and response flag that
    encode_message wrote, through any service context and endianness."""
    frame = encode_message(
        RequestMessage(request_id=request_id, object_key=b"key",
                       operation=operation,
                       response_expected=response_expected,
                       service_context=context),
        little_endian=little_endian)
    assert peek_request(frame) == (request_id, response_expected)
    assert peek_reply_id(frame) is None


@given(request_id=st.integers(min_value=0, max_value=2**32 - 1),
       little_endian=st.booleans(),
       body=st.one_of(st.none(), st.integers(-100, 100), st.text(max_size=16)))
@settings(max_examples=100, deadline=None)
def test_peek_reply_roundtrip(request_id, little_endian, body):
    frame = encode_message(
        ReplyMessage(request_id=request_id, status=ReplyStatus.NO_EXCEPTION,
                     body=body),
        little_endian=little_endian)
    assert peek_reply_id(frame) == request_id
    assert peek_request(frame) == (None, True)


@given(request_id=st.integers(min_value=0, max_value=2**32 - 1),
       little_endian=st.booleans())
@settings(max_examples=50, deadline=None)
def test_peek_locate_messages(request_id, little_endian):
    locate = encode_message(
        LocateRequestMessage(request_id=request_id, object_key=b"k"),
        little_endian=little_endian)
    assert peek_request(locate) == (request_id, True)
    reply = encode_message(
        LocateReplyMessage(request_id=request_id,
                           status=LocateStatus.OBJECT_HERE),
        little_endian=little_endian)
    assert peek_reply_id(reply) == request_id


@given(noise=st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_peek_never_raises_on_garbage(noise):
    """Arbitrary bytes — including truncated GIOP prefixes — peek as
    unattributable rather than raising."""
    request_id, response_expected = peek_request(noise)
    assert request_id is None
    assert response_expected is True
    assert peek_reply_id(noise) is None
