"""The event loop every TcpTransport serves from: loop mechanics,
leader/followers dispatch with lazy promotion, back-to-back frames from
a foreign client, the one reply write path (what the socket did not
take waits for writability), and metrics safety under mixed
loop/servant access."""

import socket
import statistics
import sys
import threading
import time

import pytest

from repro.orb import InterfaceBuilder, TcpTransport, create_orb, ORBIX
from repro.orb.giop import (HEADER_SIZE, RequestMessage, decode_message,
                            encode_message, peek_frame_size)
from repro.orb.transport import (_DRAIN_TIMEOUT, _WATCH_INTERVAL,
                                 _WATCH_LINGER, TransportMetrics,
                                 read_giop_frame)

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()


class EchoServant:
    def echo(self, value):
        return value


def _echo_deployment(**transport_kwargs):
    transport = TcpTransport(**transport_kwargs)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    ior = orb.activate(EchoServant(), ECHO, object_name="echo")
    return transport, orb, orb.proxy(ior, ECHO)


# ------------------------------------------------------------ round trips --


def test_loop_serial_roundtrip():
    transport, orb, proxy = _echo_deployment()
    try:
        assert proxy.echo("hello") == "hello"
        assert transport.metrics.messages_sent == 1
    finally:
        transport.close()


def test_loop_large_payload_crosses_recv_and_send_boundaries():
    """A payload much larger than one recv (and than the kernel's
    socket buffers) forces multi-chunk reassembly on the read side and
    partial, writability-driven sends on the write side."""
    transport, orb, proxy = _echo_deployment()
    try:
        blob = bytes(range(256)) * 8192  # 2 MiB
        assert proxy.echo(blob) == blob
    finally:
        transport.close()


def test_loop_server_thread_count_is_bounded():
    """The acceptance bound: however many clients connect, the server
    side is at most ``loop_workers`` servants plus one leader."""
    transport, orb, proxy = _echo_deployment(loop_workers=6)
    try:
        barrier = threading.Barrier(32)

        def caller(index):
            barrier.wait()
            assert proxy.echo(index) == index

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert transport.server_thread_count() <= 1 + 6
    finally:
        transport.close()


# ------------------------------------------------------ leader/followers --

GATE = (InterfaceBuilder("Gate").operation("hold", "value")
        .operation("echo", "value").build())


class GateServant:
    """``hold`` parks its thread until the gate opens; ``echo`` never
    blocks."""

    def __init__(self):
        self.gate = threading.Event()
        self.inside = threading.Semaphore(0)

    def hold(self, value):
        self.inside.release()
        self.gate.wait(10.0)
        return value

    def echo(self, value):
        return value


def _gate_deployment(loop_workers):
    transport = TcpTransport(loop_workers=loop_workers)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    servant = GateServant()
    ior = orb.activate(servant, GATE, object_name="gate")
    return transport, servant, orb.proxy(ior, GATE)


def _hold_in_background(proxy, values, results):
    threads = [threading.Thread(
        target=lambda value=value: results.append(proxy.hold(value)))
        for value in values]
    for thread in threads:
        thread.start()
    return threads


def test_blocked_servant_does_not_stall_the_loop():
    """The thread that reads a request hands the selector on before it
    runs the servant: while one servant blocks, the next request is
    read and answered by another thread."""
    transport, servant, proxy = _gate_deployment(loop_workers=2)
    results = []
    try:
        holders = _hold_in_background(proxy, [1], results)
        assert servant.inside.acquire(timeout=5.0)
        assert proxy.echo("through") == "through"
        servant.gate.set()
        for thread in holders:
            thread.join(timeout=5.0)
        assert results == [1]
    finally:
        servant.gate.set()
        transport.close()


def test_requests_past_the_servant_cap_wait_for_a_slot():
    """At most ``loop_workers`` servants run at once; a request beyond
    that waits for a slot instead of a new thread, and is served as
    soon as one frees."""
    transport, servant, proxy = _gate_deployment(loop_workers=2)
    results = []
    try:
        holders = _hold_in_background(proxy, [1, 2, 3], results)
        assert servant.inside.acquire(timeout=5.0)
        assert servant.inside.acquire(timeout=5.0)
        assert not servant.inside.acquire(timeout=0.2)
        assert transport.server_thread_count() <= 2 + 1
        servant.gate.set()
        for thread in holders:
            thread.join(timeout=5.0)
        assert sorted(results) == [1, 2, 3]
    finally:
        servant.gate.set()
        transport.close()


# ------------------------------------------------------- lazy promotion --

RELAY = InterfaceBuilder("Relay").operation("relay", "value").build()


class RelayServant:
    """Answers by calling another endpoint and relaying its answer."""

    def __init__(self, proxy):
        self.proxy = proxy

    def relay(self, value):
        return self.proxy.echo(value)


@pytest.mark.parametrize("calls_out_through", ["own", "another"])
def test_nested_call_into_the_same_loop_does_not_wait_for_a_spare(
        calls_out_through):
    """A servant serving inline that calls another endpoint of its own
    loop blocks on a reply only a poller can read — whether it calls
    out through its own transport or through another one.  It hands the
    selector to the spare before it blocks, so the nested round trip
    answers well inside ``_WATCH_INTERVAL`` instead of waiting it out."""
    transport = TcpTransport()
    client = transport if calls_out_through == "own" else TcpTransport()
    try:
        inner = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        echo_ior = inner.activate(EchoServant(), ECHO, object_name="echo")
        caller = create_orb(ORBIX, client, host="127.0.0.1", port=0)
        outer = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        relay = outer.proxy(outer.activate(
            RelayServant(caller.proxy(echo_ior, ECHO)), RELAY,
            object_name="relay"), RELAY)
        assert relay.relay("warm") == "warm"
        samples = []
        for index in range(20):
            started = time.perf_counter()
            assert relay.relay(index) == index
            samples.append(time.perf_counter() - started)
        assert statistics.median(samples) < _WATCH_INTERVAL / 2
    finally:
        client.close()
        transport.close()


def test_an_idle_loop_makes_no_periodic_wakeups():
    """Once ``_WATCH_LINGER`` has passed without an inline dispatch the
    spare waits untimed and the poller sits in ``select``: over half a
    second the loop's threads use next to no CPU."""
    transport, orb, proxy = _echo_deployment()
    try:
        assert proxy.echo(1) == 1  # spawns the spare, starts the linger
        threads = list(transport._event_loop._threads)
        assert len(threads) == 2
        time.sleep(_WATCH_LINGER + 0.05)
        clocks = [time.pthread_getcpuclockid(thread.ident)
                  for thread in threads]
        before = [time.clock_gettime(clock) for clock in clocks]
        time.sleep(0.5)
        used = sum(time.clock_gettime(clock) - start
                   for clock, start in zip(clocks, before))
        assert used < 2e-4
    finally:
        transport.close()


def test_burst_keeps_the_thread_bound_and_drain_returns():
    """32 callers against four servant slots: the loop never has more
    than five threads, ``drain`` waits while servants hold their slots
    and returns once they finish, and every caller gets its answer."""
    transport, servant, proxy = _gate_deployment(loop_workers=4)
    results = []
    try:
        holders = _hold_in_background(proxy, range(32), results)
        for __ in range(4):
            assert servant.inside.acquire(timeout=5.0)
        assert transport.server_thread_count() <= 4 + 1
        drained = threading.Event()
        drainer = threading.Thread(target=lambda: (
            transport._event_loop.drain(10.0), drained.set()))
        drainer.start()
        assert not drained.wait(0.2)
        servant.gate.set()
        assert drained.wait(5.0)
        for thread in holders:
            thread.join(timeout=5.0)
        assert sorted(results) == list(range(32))
        assert transport.server_thread_count() <= 4 + 1
    finally:
        servant.gate.set()
        transport.close()


def test_hand_offs_lose_no_request_under_a_short_switch_interval():
    """Stress for the selector hand-offs: twelve callers against three
    servant slots, one of them making nested calls, at a switch
    interval short enough to preempt between almost any two bytecodes.
    Every call gets its own answer, the loop stays within
    ``loop_workers + 1`` threads, and every caller finishes."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    transport = TcpTransport(loop_workers=3)
    errors = []
    try:
        inner = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        echo = inner.proxy(inner.activate(EchoServant(), ECHO,
                                          object_name="echo"), ECHO)
        outer = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        relay = outer.proxy(outer.activate(RelayServant(echo), RELAY,
                                           object_name="relay"), RELAY)

        def caller(index):
            call = relay.relay if index == 0 else echo.echo
            for step in range(150):
                value = index * 1000 + step
                answer = call(value)
                if answer != value:
                    errors.append((value, answer))

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert transport.server_thread_count() <= 3 + 1
    finally:
        sys.setswitchinterval(previous)
        transport.close()


def _send_back_to_back(sock, object_key, values, read_after=0.0):
    """One round of a foreign client: write one echo request per value
    in a single ``sendall`` (from a helper thread, so neither side can
    block on a full socket buffer), start reading *read_after* seconds
    later, and return ``{request_id: answer}`` for the replies read."""
    frames = [encode_message(RequestMessage(
        request_id=100 + index, object_key=object_key, operation="echo",
        arguments=[value])) for index, value in enumerate(values)]
    writer = threading.Thread(target=sock.sendall,
                              args=(b"".join(frames),))
    writer.start()
    time.sleep(read_after)
    answers = {}
    for __ in frames:
        reply = decode_message(read_giop_frame(sock))
        answers[reply.request_id] = reply.body
    writer.join(timeout=30.0)
    assert not writer.is_alive()
    return answers


class DelayedEchoServant:
    """Echoes an integer after ``delays[value]`` seconds (other values
    at once): the first of several back-to-back requests can be made
    the slowest."""

    def __init__(self, delays=()):
        self.delays = delays

    def echo(self, value):
        if isinstance(value, int) and value < len(self.delays):
            time.sleep(self.delays[value])
        return value


def test_serial_server_answers_back_to_back_frames_in_order():
    """A foreign client that writes three requests in one ``sendall``
    gets exactly one reply per request id, each carrying its own
    answer — even when the first is the slowest.  The server dispatches
    the frames concurrently, so replies may arrive in any order: GIOP
    matches a reply to its request by id, not by position."""
    transport = TcpTransport()
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        ior = orb.activate(DelayedEchoServant([0.02, 0.0, 0.0]), ECHO,
                           object_name="echo")
        with socket.create_connection(orb.endpoint, timeout=5.0) as sock:
            answers = _send_back_to_back(sock, ior.primary.object_key,
                                         [0, 1, 2])
        assert answers == {100: 0, 101: 1, 102: 2}
    finally:
        transport.close()


def test_concurrent_replies_on_one_connection_stay_whole():
    """Servants answering back-to-back requests from one connection at
    once each write their reply from their own thread.  With a
    shortened switch interval, and a client that reads only once 8 MiB
    of replies are due (more than the socket buffers hold, so sends are
    partial and the remainder is left for the leader's flush), every
    request id still gets exactly its own bytes back."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    transport = TcpTransport(loop_workers=4)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    blobs = [bytes([index]) * (1024 * 1024 + index) for index in range(8)]
    try:
        ior = orb.activate(DelayedEchoServant(), ECHO, object_name="echo")
        expected = {100 + index: blob for index, blob in enumerate(blobs)}
        with socket.create_connection(orb.endpoint, timeout=20.0) as sock:
            for __ in range(2):
                assert _send_back_to_back(sock, ior.primary.object_key,
                                          blobs, read_after=0.3) == expected
    finally:
        sys.setswitchinterval(previous)
        transport.close()


# -------------------------------------------------------- the write path --


def _eventually(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _pending_octets(transport, endpoint):
    """Reply octets the server holds for *endpoint*'s connections
    because their sockets would not take them yet."""
    connections = list(transport._listeners[endpoint].connections)
    return sum(len(connection._pending) for connection in connections)


def _echo_frames(object_key, blobs):
    return b"".join(encode_message(RequestMessage(
        request_id=100 + index, object_key=object_key, operation="echo",
        arguments=[blob])) for index, blob in enumerate(blobs))


def _read_in_sips(sock, count, sip=16 * 1024):
    """Read *count* GIOP frames *sip* octets at a time."""
    data = bytearray()
    frames = []
    while len(frames) < count:
        chunk = sock.recv(sip)
        assert chunk, "connection closed mid-reply"
        data += chunk
        while len(data) >= HEADER_SIZE \
                and len(data) >= peek_frame_size(data[:HEADER_SIZE]):
            size = peek_frame_size(data[:HEADER_SIZE])
            frames.append(bytes(data[:size]))
            del data[:size]
    assert not data
    return frames


def test_a_slow_reader_gets_its_pending_replies_whole_and_in_order():
    """A raw client writes two requests back to back whose replies are
    4 MiB each, more than the socket buffers hold, and reads nothing
    yet.  With one servant slot the two servants run in turn, and
    neither waits on the peer: the rest of the replies is pending on the
    connection, and meanwhile a second connection's echo is answered —
    its job runs on the same slot after both.  Read in 16 KiB sips,
    both replies arrive whole and in request order."""
    transport = TcpTransport(loop_workers=1)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    blobs = [bytes([index + 1]) * (4 * 1024 * 1024) for index in range(2)]
    try:
        ior = orb.activate(EchoServant(), ECHO, object_name="echo")
        proxy = orb.proxy(ior, ECHO)
        with socket.create_connection(orb.endpoint, timeout=20.0) as sock:
            sock.sendall(_echo_frames(ior.primary.object_key, blobs))
            assert _eventually(lambda: orb.stats.requests_handled == 2)
            assert proxy.echo("through") == "through"
            assert _pending_octets(transport, orb.endpoint) > 0
            time.sleep(0.1)
            replies = [decode_message(frame)
                       for frame in _read_in_sips(sock, 2)]
        assert [reply.request_id for reply in replies] == [100, 101]
        assert [reply.body for reply in replies] == blobs
        assert _pending_octets(transport, orb.endpoint) == 0
    finally:
        transport.close()


def test_a_peer_that_closes_with_output_pending_is_dropped():
    """A client that closes while a multi-MiB reply is still pending
    for it: the server drops the connection and its pending octets, the
    loop keeps serving within its thread bound, and closing the
    transport does not wait out ``_DRAIN_TIMEOUT``."""
    transport = TcpTransport(loop_workers=2)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        ior = orb.activate(EchoServant(), ECHO, object_name="echo")
        proxy = orb.proxy(ior, ECHO)
        listener = transport._listeners[orb.endpoint]
        with socket.create_connection(orb.endpoint, timeout=20.0) as sock:
            sock.sendall(_echo_frames(ior.primary.object_key,
                                      [bytes(8 * 1024 * 1024)]))
            assert _eventually(
                lambda: _pending_octets(transport, orb.endpoint) > 0)
        assert _eventually(lambda: not listener.connections)
        assert proxy.echo("after") == "after"
        assert transport.server_thread_count() <= 2 + 1
    finally:
        started = time.monotonic()
        transport.close()
        assert time.monotonic() - started < _DRAIN_TIMEOUT


def test_unregister_closes_loop_listener():
    transport, orb, proxy = _echo_deployment()
    endpoint = orb.endpoint
    try:
        assert proxy.echo(1) == 1
        transport.unregister(endpoint)
        with pytest.raises(ConnectionError):
            socket.create_connection(endpoint, timeout=0.5)
    finally:
        transport.close()


# ------------------------------------------------------ constructor surface --


@pytest.mark.parametrize("keyword, value", [
    ("loop", True), ("pooled", False), ("pipelined", True), ("stripes", 2),
    ("pipeline_depth", 8), ("pool_size", 2)])
def test_server_and_serial_client_are_not_selectable(keyword, value):
    """One server (the event loop) and one client (serial, pooled, a
    fixed number of spares): no keyword picks or tunes another."""
    with pytest.raises(TypeError):
        TcpTransport(**{keyword: value})


# ------------------------------------------------------------ metrics safety --


def test_metrics_safe_under_mixed_loop_and_worker_access():
    """Satellite: every counter path hammered from many threads at
    once (as the poller records sheds while workers record dispatches)
    loses no increments and snapshots never expose torn multi-field
    reads."""
    metrics = TransportMetrics()
    endpoint = ("127.0.0.1", 9999)
    threads_count, iterations = 8, 500
    start = threading.Barrier(threads_count + 1)
    torn = []

    def hammer(seed):
        start.wait()
        for index in range(iterations):
            metrics.record(endpoint, 100, 50, reused=index % 2 == 0)
            metrics.record_shed("deadline" if (seed + index) % 2
                                else "overload")

    def reader():
        start.wait()
        for __ in range(iterations):
            snapshot = metrics.snapshot()
            # Invariant across all paths: bytes follow messages 100/50.
            if snapshot["bytes_sent"] != snapshot["messages_sent"] * 100 \
                    or snapshot["bytes_received"] != \
                    snapshot["messages_sent"] * 50:
                torn.append(snapshot)

    workers = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(threads_count)]
    observer = threading.Thread(target=reader)
    for thread in [*workers, observer]:
        thread.start()
    for thread in [*workers, observer]:
        thread.join()

    assert torn == []
    total = threads_count * iterations
    snapshot = metrics.snapshot()
    assert snapshot["messages_sent"] == total
    assert snapshot["bytes_sent"] == total * 100
    assert snapshot["requests_shed"] + snapshot["requests_expired"] == total
    assert snapshot["connections_opened"] \
        + snapshot["connections_reused"] == total
    assert metrics.per_endpoint[endpoint] == total
