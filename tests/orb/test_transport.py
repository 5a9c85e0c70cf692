"""Transport tests: in-memory fabric metrics and real TCP IIOP."""

import threading

import pytest

from repro.deadline import call_policy
from repro.errors import CommFailure
from repro.orb import (InMemoryNetwork, InterfaceBuilder, TcpTransport,
                       TransportMetrics, create_orb, ORBIX, VISIBROKER)

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
                metrics.record_connection(reused)

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
        """Concurrent checkouts beyond pool_size still work; only
        pool_size spares are retained afterwards."""
        transport = TcpTransport(pool_size=2)
        try:
            proxy, ior = self._echo_pair(transport)
            barrier = threading.Barrier(6)
            errors: list[Exception] = []

            def call(index):
                try:
                    barrier.wait(timeout=5)
                    assert proxy.echo(index) == index
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=call, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert transport.idle_connections(ior.primary.endpoint) <= 2
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


class SlowEchoServant:
    def __init__(self, delay):
        self.delay = delay

    def echo(self, value):
        import time
        time.sleep(self.delay)
        return value


class TestPipelinedStripes:
    """Striping semantics that must hold without fault injection (the
    chaos suite covers fault attribution)."""

    def _slow_echo_pair(self, transport, delay=0.15):
        server = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
        client = create_orb(VISIBROKER, transport, host="127.0.0.1", port=0)
        ior = server.activate(SlowEchoServant(delay), ECHO)
        return client.proxy(ior, ECHO), ior

    def _build_stripes(self, transport, proxy, endpoint, count):
        """Staggered concurrent calls open one stripe each."""
        errors: list[Exception] = []

        def call(index):
            try:
                assert proxy.echo(index) == index
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        import time
        threads = [threading.Thread(target=call, args=(index,))
                   for index in range(count)]
        for thread in threads:
            thread.start()
            time.sleep(0.03)
        for thread in threads:
            thread.join()
        assert not errors
        assert transport.stripe_count(endpoint) == count

    def test_stale_stripe_does_not_evict_healthy_siblings(self):
        """Regression (ISSUE 5): discarding a dead stripe must not
        discard the endpoint's healthy sibling stripes — the serial
        pool's discard-the-whole-endpoint behaviour would sever
        every other caller's connection."""
        transport = TcpTransport(pipelined=True, stripes=3)
        try:
            proxy, ior = self._slow_echo_pair(transport)
            endpoint = ior.primary.endpoint
            self._build_stripes(transport, proxy, endpoint, 3)
            with transport._channels_lock:
                stale, *siblings = transport._channels[endpoint]
            # The first stripe goes stale (peer dropped it).
            stale.close()
            with call_policy(idempotent=True):
                assert proxy.echo("after") == "after"
            assert transport.stripe_count(endpoint) == 2
            with transport._channels_lock:
                remaining = list(transport._channels[endpoint])
            assert stale not in remaining
            for sibling in siblings:
                assert sibling in remaining
                assert not sibling.dead
        finally:
            transport.close()

    def test_unregister_closes_endpoint_stripes(self):
        transport = TcpTransport(pipelined=True, stripes=2)
        try:
            proxy, ior = self._slow_echo_pair(transport, delay=0.0)
            endpoint = ior.primary.endpoint
            assert proxy.echo("warm") == "warm"
            assert transport.stripe_count(endpoint) == 1
            transport.unregister(endpoint)
            assert transport.stripe_count(endpoint) == 0
        finally:
            transport.close()

    def test_serial_send_unaffected_by_pipelined_flag_default(self):
        """pipelined=False keeps the exact pooled-serial behaviour the
        earlier counters tests pin down."""
        transport = TcpTransport()
        assert transport.pipelined is False
        assert transport.stripe_count(("nowhere", 1)) == 0
        transport.close()
