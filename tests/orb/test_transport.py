"""Transport tests: in-memory fabric metrics and real TCP IIOP."""

import threading
import time

import pytest

from repro.deadline import call_policy
from repro.errors import CommFailure
from repro.orb import (InMemoryNetwork, InterfaceBuilder, TcpTransport,
                       TransportMetrics, create_orb, ORBIX, VISIBROKER)
from repro.orb.transport import _POOL_SIZE

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()


class EchoServant:
    def echo(self, value):
        return value


class TestInMemoryNetwork:
    def test_endpoint_allocation_unique(self):
        network = InMemoryNetwork()
        assert network.allocate_port() != network.allocate_port()

    def test_duplicate_registration_rejected(self):
        network = InMemoryNetwork()
        endpoint = ("h", 1)
        network.register(endpoint, lambda data: data)
        with pytest.raises(CommFailure):
            network.register(endpoint, lambda data: data)

    def test_send_to_unbound_endpoint(self):
        with pytest.raises(CommFailure):
            InMemoryNetwork().send(("ghost", 9), b"x")

    def test_metrics_accumulate(self):
        network = InMemoryNetwork()
        server = create_orb(ORBIX, network)
        client = create_orb(VISIBROKER, network)
        ior = server.activate(EchoServant(), ECHO)
        network.metrics.reset()
        client.proxy(ior, ECHO).echo("hello")
        assert network.metrics.messages_sent == 1
        assert network.metrics.bytes_sent > 0
        assert network.metrics.bytes_received > 0
        assert network.metrics.per_endpoint[server.endpoint] == 1

    def test_metrics_reset(self):
        network = InMemoryNetwork()
        network.register(("h", 1), lambda data: data)
        network.send(("h", 1), b"abc")
        network.metrics.reset()
        assert network.metrics.messages_sent == 0
        assert not network.metrics.per_endpoint

    def test_unregister_frees_endpoint(self):
        network = InMemoryNetwork()
        endpoint = network.register(("h", 5), lambda data: data)
        network.unregister(endpoint)
        with pytest.raises(CommFailure):
            network.send(endpoint, b"x")
        network.register(endpoint, lambda data: data)  # rebindable


class TestTcpTransport:
    def test_roundtrip_over_sockets(self):
        transport = TcpTransport()
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            ior = server.activate(EchoServant(), ECHO)
            assert ior.primary.port != 0  # OS assigned a real port
            payload = {"list": [1, 2.5, None], "s": "data"}
            assert client.proxy(ior, ECHO).echo(payload) == payload
        finally:
            transport.close()

    def test_large_payload(self):
        transport = TcpTransport()
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            ior = server.activate(EchoServant(), ECHO)
            blob = "x" * 200_000
            assert client.proxy(ior, ECHO).echo(blob) == blob
        finally:
            transport.close()

    def test_connection_refused(self):
        transport = TcpTransport(timeout=0.5)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        from repro.orb import make_ior
        ghost = make_ior("IDL:x:1.0", "127.0.0.1", 1, b"k")
        with pytest.raises(CommFailure):
            client.invoke(ghost, "echo", ["x"])
        transport.close()

    def test_metrics_on_tcp(self):
        transport = TcpTransport()
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            ior = server.activate(EchoServant(), ECHO)
            transport.metrics.reset()
            client.proxy(ior, ECHO).echo("x")
            assert transport.metrics.messages_sent == 1
        finally:
            transport.close()


class TestTransportMetricsThreadSafety:
    def test_concurrent_records_lose_nothing(self):
        """Regression: unlocked `+=` on the counters and the
        per_endpoint dict dropped increments when many client threads
        hammered one endpoint through ThreadingTCPServer."""
        metrics = TransportMetrics()
        endpoint = ("h", 1)
        threads_n, per_thread = 16, 2000

        def hammer():
            for __ in range(per_thread):
                metrics.record(endpoint, 3, 5)

        threads = [threading.Thread(target=hammer)
                   for __ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = threads_n * per_thread
        assert metrics.messages_sent == expected
        assert metrics.bytes_sent == 3 * expected
        assert metrics.bytes_received == 5 * expected
        assert metrics.per_endpoint[endpoint] == expected

    def test_concurrent_connection_records(self):
        metrics = TransportMetrics()

        def hammer(reused: bool):
            for __ in range(1000):
                metrics.record(("127.0.0.1", 1), 0, 0, reused=reused)

        threads = [threading.Thread(target=hammer, args=(index % 2 == 0,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.connections_reused == 4000
        assert metrics.connections_opened == 4000
        metrics.reset()
        assert metrics.connections_reused == 0
        assert metrics.connections_opened == 0

    def test_record_during_reset_stays_consistent(self):
        metrics = TransportMetrics()
        stop = threading.Event()

        def recorder():
            while not stop.is_set():
                metrics.record(("h", 2), 1, 1)

        def resetter():
            for __ in range(200):
                metrics.reset()

        threads = [threading.Thread(target=recorder) for __ in range(4)]
        for thread in threads:
            thread.start()
        resetter()
        stop.set()
        for thread in threads:
            thread.join()
        # After a final reset the counters must be exactly coherent.
        metrics.reset()
        assert metrics.messages_sent == 0
        assert not metrics.per_endpoint


class TestInMemoryNetworkConcurrency:
    def test_send_during_register_churn(self):
        """send() must read the handler table under the lock: a torn
        view during concurrent register/unregister crashed discovery."""
        network = InMemoryNetwork()
        stable = network.register(("stable", 1), lambda data: data)
        errors: list[Exception] = []
        stop = threading.Event()

        def churn(thread_id):
            for index in range(300):
                endpoint = (f"churn{thread_id}", index)
                try:
                    network.register(endpoint, lambda data: data)
                    network.unregister(endpoint)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        def sender():
            while not stop.is_set():
                try:
                    assert network.send(stable, b"payload") == b"payload"
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        churners = [threading.Thread(target=churn, args=(thread_id,))
                    for thread_id in range(3)]
        senders = [threading.Thread(target=sender) for __ in range(3)]
        for thread in senders + churners:
            thread.start()
        for thread in churners:
            thread.join()
        stop.set()
        for thread in senders:
            thread.join()
        assert not errors


class SlowEchoServant:
    def __init__(self, delay):
        self.delay = delay

    def echo(self, value):
        time.sleep(self.delay)
        return value


class TestConnectionPool:
    def _echo_pair(self, transport):
        server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        ior = server.activate(EchoServant(), ECHO)
        return client.proxy(ior, ECHO), ior

    def test_pooled_connections_are_reused(self):
        transport = TcpTransport()
        try:
            proxy, ior = self._echo_pair(transport)
            transport.metrics.reset()
            for index in range(10):
                assert proxy.echo(index) == index
            # First call opens, the other nine ride the same socket.
            assert transport.metrics.connections_opened == 1
            assert transport.metrics.connections_reused == 9
            assert transport.idle_connections(ior.primary.endpoint) == 1
        finally:
            transport.close()

    def test_stale_pooled_connection_retried(self):
        """A pooled connection the server has dropped must be replaced
        transparently — the request is retried on a fresh socket, but
        only when the caller vouches the request is idempotent."""
        transport = TcpTransport()
        try:
            proxy, ior = self._echo_pair(transport)
            assert proxy.echo("warm") == "warm"
            endpoint = ior.primary.endpoint
            # Sever the idle connection behind the pool's back.
            stale = transport._pool.checkout(endpoint)
            assert stale is not None
            stale.close()
            transport._pool.checkin(endpoint, stale)
            with call_policy(idempotent=True):
                assert proxy.echo("after-drop") == "after-drop"
        finally:
            transport.close()

    def test_stale_pooled_connection_not_retried_when_non_idempotent(self):
        """Without the idempotence vouch, a failure on a pooled socket
        surfaces instead of blindly resending — the first copy of the
        request may already have been applied server-side."""
        transport = TcpTransport()
        try:
            proxy, ior = self._echo_pair(transport)
            assert proxy.echo("warm") == "warm"
            endpoint = ior.primary.endpoint
            stale = transport._pool.checkout(endpoint)
            assert stale is not None
            stale.close()
            transport._pool.checkin(endpoint, stale)
            with pytest.raises(CommFailure,
                               match="non-idempotent"):
                proxy.echo("after-drop")
            # The stale socket is gone; the next call gets a fresh one
            # and succeeds regardless of idempotence.
            assert proxy.echo("recovered") == "recovered"
        finally:
            transport.close()

    def test_unregister_discards_idle_connections(self):
        transport = TcpTransport()
        try:
            proxy, ior = self._echo_pair(transport)
            assert proxy.echo("x") == "x"
            endpoint = ior.primary.endpoint
            assert transport.idle_connections(endpoint) == 1
            transport.unregister(endpoint)
            assert transport.idle_connections(endpoint) == 0
            with pytest.raises(CommFailure):
                proxy.echo("gone")
        finally:
            transport.close()

    def test_pool_bounded(self):
        """More concurrent callers than the pool keeps each get their own
        connection; only ``_POOL_SIZE`` spares are retained afterwards."""
        transport = TcpTransport()
        callers = _POOL_SIZE + 4
        try:
            server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
            client = create_orb(VISIBROKER, transport, host="127.0.0.1",
                                port=0)
            ior = server.activate(SlowEchoServant(0.1), ECHO)
            proxy = client.proxy(ior, ECHO)
            barrier = threading.Barrier(callers)
            errors: list[Exception] = []

            def call(index):
                try:
                    barrier.wait(timeout=5)
                    assert proxy.echo(index) == index
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=call, args=(index,))
                       for index in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert transport.metrics.connections_opened > _POOL_SIZE
            assert transport.idle_connections(ior.primary.endpoint) \
                == _POOL_SIZE
        finally:
            transport.close()

    def test_keep_alive_sequences_many_frames(self):
        """One connection carries many request/reply frames in order
        (the keep-alive server loop must not desynchronise framing)."""
        transport = TcpTransport()
        try:
            proxy, __ = self._echo_pair(transport)
            payloads = [{"n": index, "blob": "x" * (index * 37 % 400)}
                        for index in range(40)]
            for payload in payloads:
                assert proxy.echo(payload) == payload
            assert transport.metrics.connections_opened <= 1
        finally:
            transport.close()


NOTIFIER = (InterfaceBuilder("Notifier")
            .operation("notify", "value", oneway=True)
            .operation("echo", "value")
            .build())


class NotifierServant:
    def __init__(self):
        self.notified: list = []
        self.arrived = threading.Event()

    def notify(self, value):
        self.notified.append(value)
        self.arrived.set()

    def echo(self, value):
        return value


class TestOneway:
    """A oneway request is fire-and-forget over TCP: the server writes
    no reply, so the client must not wait for one."""

    def _notifier(self, transport):
        server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        servant = NotifierServant()
        ior = server.activate(servant, NOTIFIER)
        return client, servant, ior

    def test_oneway_returns_at_once_and_keeps_the_connection(self):
        transport = TcpTransport(timeout=5.0)
        try:
            client, servant, ior = self._notifier(transport)
            proxy = client.proxy(ior, NOTIFIER)
            assert proxy.echo("warm") == "warm"
            reused = transport.metrics.connections_reused
            started = time.monotonic()
            assert client.invoke(ior, "notify", [1], oneway=True) is None
            assert time.monotonic() - started < 0.5
            assert servant.arrived.wait(5.0)
            assert proxy.echo("next") == "next"
            assert transport.metrics.connections_reused == reused + 2
            assert transport.metrics.connections_opened == 1
            assert servant.notified == [1]
        finally:
            transport.close()

    def test_declared_oneway_operation_goes_out_oneway(self):
        transport = TcpTransport(timeout=5.0)
        try:
            client, servant, ior = self._notifier(transport)
            sent = []
            client.add_client_interceptor(
                lambda request: sent.append(request.response_expected))
            started = time.monotonic()
            assert client.proxy(ior, NOTIFIER).notify(2) is None
            assert time.monotonic() - started < 0.5
            assert sent == [False]
            assert transport.metrics.bytes_received == 0
            assert servant.arrived.wait(5.0)
            assert servant.notified == [2]
        finally:
            transport.close()
