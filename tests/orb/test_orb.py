"""ORB core tests: activation, invocation, exceptions, naming, interop."""

import pytest

from repro.errors import (BadOperation, CommFailure, IdlError, NamingError,
                          ObjectNotExist, OrbError, UnknownCoalition)
from repro.orb import (CdrEncoder, InMemoryNetwork, InterfaceBuilder,
                       NamingClient, Orb, RemoteSystemError, RequestMessage,
                       TcpTransport, create_orb, encode_message, get_product,
                       ORBIX, ORBIXWEB, VISIBROKER, start_naming_service)

from tests.orb.test_cdr import nested_sequences

CALC = (InterfaceBuilder("Calc")
        .operation("add", "a", "b")
        .operation("fail")
        .operation("fail_user")
        .operation("echo", "value")
        .build())


class CalcServant:
    def add(self, a, b):
        return a + b

    def fail(self):
        raise ValueError("server-side crash")

    def fail_user(self):
        raise UnknownCoalition("no coalition here")

    def echo(self, value):
        return value


@pytest.fixture()
def fabric():
    network = InMemoryNetwork()
    server = create_orb(ORBIX, network, host="server.test")
    client = create_orb(VISIBROKER, network, host="client.test")
    ior = server.activate(CalcServant(), CALC, object_name="calc")
    return network, server, client, ior


class TestInvocation:
    def test_basic_invoke(self, fabric):
        __, __, client, ior = fabric
        assert client.proxy(ior, CALC).add(2, 3) == 5

    def test_proxy_via_ior_string(self, fabric):
        __, server, client, ior = fabric
        text = server.object_to_string(ior)
        proxy = client.string_to_object(text, CALC)
        assert proxy.add(10, 5) == 15

    def test_structured_payload(self, fabric):
        __, __, client, ior = fabric
        payload = {"rows": [[1, "a"], [2, "b"]], "count": 2}
        assert client.proxy(ior, CALC).echo(payload) == payload

    def test_unknown_operation_client_checked(self, fabric):
        __, __, client, ior = fabric
        with pytest.raises(BadOperation):
            client.proxy(ior, CALC).subtract(1, 2)

    def test_typed_proxy_stubs_only_what_its_interface_declares(self, fabric):
        __, __, client, ior = fabric
        typed = client.proxy(ior, CALC)
        assert hasattr(typed, "add")
        assert not hasattr(typed, "failovers")
        assert getattr(typed, "failovers", 0) == 0
        sent = client.stats.requests_sent
        with pytest.raises(BadOperation, match="subtract"):
            typed.subtract  # noqa: B018 - refused at lookup, unsent
        assert client.stats.requests_sent == sent
        # No interface attached: every public name is a stub, as ever.
        untyped = client.proxy(ior)
        assert hasattr(untyped, "failovers")
        assert not hasattr(untyped, "_private")

    def test_unknown_operation_server_checked(self, fabric):
        __, __, client, ior = fabric
        # no client-side interface: the server must reject it
        with pytest.raises(BadOperation):
            client.proxy(ior).subtract(1, 2)

    def test_wrong_arity_rejected(self, fabric):
        __, __, client, ior = fabric
        with pytest.raises(BadOperation):
            client.proxy(ior).add(1)

    def test_too_deeply_nested_request_is_an_orb_error(self, fabric):
        """5,000 nested sequences used to raise RecursionError out of
        the server's message handler; the sender now sees the codec's
        own error."""
        network, server, __, ior = fabric
        body = CdrEncoder()
        body.write_ulong(0)                       # service contexts
        body.write_ulong(1)                       # request id
        body.write_boolean(True)                  # response expected
        body.write_octets(ior.primary.object_key)
        body.write_string("echo")
        body.write_ulong(1)                       # one argument
        payload = nested_sequences(5000, body)
        frame = b"GIOP\x01\x00\x00\x00" \
            + len(payload).to_bytes(4, "big") + payload
        with pytest.raises(OrbError, match="nested too deeply"):
            network.send(server.endpoint, frame)
        # The endpoint is unharmed.
        assert server.proxy(ior, CALC).add(1, 2) == 3

    def test_system_exception_propagates(self, fabric):
        __, __, client, ior = fabric
        with pytest.raises(RemoteSystemError) as excinfo:
            client.proxy(ior, CALC).fail()
        assert excinfo.value.exception_type == "ValueError"

    def test_user_exception_revived_as_original_class(self, fabric):
        __, __, client, ior = fabric
        with pytest.raises(UnknownCoalition):
            client.proxy(ior, CALC).fail_user()

    def test_object_not_exist(self, fabric):
        __, server, client, ior = fabric
        server.deactivate(ior)
        with pytest.raises(ObjectNotExist):
            client.proxy(ior, CALC).add(1, 1)

    def test_connection_refused(self, fabric):
        network, __, client, __ = fabric
        from repro.orb import make_ior
        ghost = make_ior("IDL:x:1.0", "nowhere.test", 1, b"gone")
        with pytest.raises(CommFailure):
            client.invoke(ghost, "op", [])

    def test_locate(self, fabric):
        __, server, client, ior = fabric
        assert client.locate(ior) is True
        server.deactivate(ior)
        assert client.locate(ior) is False

    def test_request_counters(self, fabric):
        __, server, client, ior = fabric
        before_sent = client.stats.requests_sent
        before_handled = server.stats.requests_handled
        client.proxy(ior, CALC).add(1, 1)
        assert client.stats.requests_sent == before_sent + 1
        assert server.stats.requests_handled == before_handled + 1

    def test_cross_product_accounting(self, fabric):
        __, server, client, ior = fabric
        before = server.stats.cross_product_requests
        client.proxy(ior, CALC).add(1, 1)  # VisiBroker -> Orbix
        assert server.stats.cross_product_requests == before + 1

    def test_same_orb_self_call_not_cross_product(self, fabric):
        __, server, __, ior = fabric
        before = server.stats.cross_product_requests
        server.proxy(ior, CALC).add(1, 1)
        assert server.stats.cross_product_requests == before


UNMARSHALLABLE = (InterfaceBuilder("Unmarshallable")
                  .operation("a_set")
                  .operation("a_surrogate_in_a_user_exception")
                  .operation("fire_and_forget", oneway=True)
                  .operation("fine")
                  .build())


class UnmarshallableServant:
    def a_set(self):
        return {1, 2}

    def a_surrogate_in_a_user_exception(self):
        raise UnknownCoalition("no coalition \ud800 here")

    def fire_and_forget(self):
        return {1, 2}

    def fine(self):
        return "fine"


@pytest.mark.parametrize("make_transport", [InMemoryNetwork, TcpTransport],
                         ids=["mem", "tcp"])
def test_an_unmarshallable_reply_is_a_system_exception(make_transport):
    """A result (or exception body) the codec refuses is the server's
    failure like any other: the caller gets SYSTEM_EXCEPTION — not the
    server's own MarshalError, not a dropped connection that reads as a
    retryable CommFailure — and the connection carries the next call."""
    transport = make_transport()
    try:
        server = Orb("server", transport, host="127.0.0.1")
        client = Orb("client", transport, host="127.0.0.1")
        ior = server.activate(UnmarshallableServant(), UNMARSHALLABLE)
        proxy = client.proxy(ior, UNMARSHALLABLE)
        assert proxy.fine() == "fine"
        opened = transport.metrics.connections_opened
        for operation in ("a_set", "a_surrogate_in_a_user_exception"):
            with pytest.raises(RemoteSystemError) as raised:
                proxy.invoke(operation)
            assert raised.value.exception_type == "MarshalError"
            assert "cannot marshal" in raised.value.remote_message
            assert proxy.fine() == "fine"
        assert transport.metrics.connections_opened == opened
        # Nobody waits on a oneway request: its handler stays silent.
        oneway = encode_message(RequestMessage(
            request_id=1, object_key=ior.primary.object_key,
            operation="fire_and_forget", response_expected=False))
        assert server._handle_message(oneway) is None
    finally:
        if isinstance(transport, TcpTransport):
            transport.close()


class TestActivation:
    def test_servant_must_implement_interface(self, fabric):
        __, server, __, __ = fabric

        class Partial:
            def add(self, a, b):
                return a + b

        with pytest.raises(IdlError):
            server.activate(Partial(), CALC)

    def test_duplicate_object_name_rejected(self, fabric):
        __, server, __, __ = fabric
        from repro.errors import OrbError
        with pytest.raises(OrbError):
            server.activate(CalcServant(), CALC, object_name="calc")

    def test_auto_generated_object_names_unique(self, fabric):
        __, server, __, __ = fabric
        first = server.activate(CalcServant(), CALC)
        second = server.activate(CalcServant(), CALC)
        assert first.primary.object_key != second.primary.object_key

    def test_interface_inheritance(self, fabric):
        __, server, client, __ = fabric
        base = InterfaceBuilder("Base").operation("ping").build()
        extended = (InterfaceBuilder("Ext").operation("pong")
                    .extends(base).build())

        class Servant:
            def ping(self):
                return "ping"

            def pong(self):
                return "pong"

        ior = server.activate(Servant(), extended)
        proxy = client.proxy(ior, extended)
        assert proxy.ping() == "ping"
        assert proxy.pong() == "pong"


class TestNaming:
    def test_bind_resolve(self, fabric):
        __, server, client, ior = fabric
        __, naming = start_naming_service(server)
        naming.bind("webfindit/calc", ior)
        resolved = naming.resolve("webfindit/calc")
        assert client.proxy(resolved, CALC).add(4, 4) == 8

    def test_duplicate_bind_rejected(self, fabric):
        __, server, __, ior = fabric
        __, naming = start_naming_service(server)
        naming.bind("x", ior)
        with pytest.raises(NamingError):
            naming.bind("x", ior)
        naming.rebind("x", ior)  # rebind is fine

    def test_resolve_missing(self, fabric):
        __, server, __, __ = fabric
        __, naming = start_naming_service(server)
        with pytest.raises(NamingError):
            naming.resolve("ghost")

    def test_unbind(self, fabric):
        __, server, __, ior = fabric
        __, naming = start_naming_service(server)
        naming.bind("x", ior)
        naming.unbind("x")
        with pytest.raises(NamingError):
            naming.resolve("x")

    def test_list_names_prefix(self, fabric):
        __, server, __, ior = fabric
        __, naming = start_naming_service(server)
        naming.bind("a/1", ior)
        naming.bind("a/2", ior)
        naming.bind("b/1", ior)
        assert naming.list_names("a/") == ["a/1", "a/2"]

    def test_naming_is_remote_object(self, fabric):
        """Another ORB resolves through the naming service over GIOP."""
        network, server, client, ior = fabric
        naming_ior, naming = start_naming_service(server)
        naming.bind("calc", ior)
        remote_naming = NamingClient(client.proxy(naming_ior))
        resolved = remote_naming.resolve("calc")
        assert client.proxy(resolved, CALC).add(6, 1) == 7


class TestProducts:
    def test_trio_identities(self):
        assert ORBIX.language == "C++"
        assert ORBIXWEB.language == "Java"
        assert VISIBROKER.vendor == "Inprise"

    def test_get_product_case_insensitive(self):
        assert get_product("orbix") is ORBIX

    def test_unknown_product(self):
        from repro.errors import OrbError
        with pytest.raises(OrbError):
            get_product("CORBAplus")

    def test_three_orb_interop_matrix(self):
        """Every product pair can call each other over one IIOP fabric."""
        network = InMemoryNetwork()
        orbs = [create_orb(p, network) for p in (ORBIX, ORBIXWEB, VISIBROKER)]
        iors = {orb.product: orb.activate(CalcServant(), CALC)
                for orb in orbs}
        for caller in orbs:
            for product, ior in iors.items():
                assert caller.proxy(ior, CALC).add(1, 2) == 3
