"""The ORB's compiled call path: its framer entry points and its skeleton.

A call is framed without message objects.  The client writes a request
with ``request_frame`` (its product context written once by
``context_octets``) and reads the reply with ``read_reply``; the server
reads the request with ``read_request`` and writes the reply with
``reply_frame``.  ``encode_message`` / ``decode_message`` frame through
the same head writers and readers, and ``giop_reference.py`` is the
field-by-field framer they replaced.  Hypothesis draws requests (the
deadline and traffic-class contexts behind a product context, oneway
requests, non-ASCII keys and operations, request ids 0 and 2**32 - 1)
and replies, framed in both byte orders, and requires:

* each writer gives the reference's bytes for the equivalent message;
* for the frame, every truncation and every single-octet corruption of
  it, ``read_request`` and ``read_reply`` return the fields of the
  message ``decode_message`` and the reference decode — or all raise
  ``MarshalError`` (a frame of another kind is one for the reader).

Tier-1 runs a derandomised sample; CI's ``cdr-fuzz`` job loads the
``ci`` profile of ``tests/conftest.py`` (ten times the examples, drawn
from ``--hypothesis-seed``).  The skeleton's lifecycle — deactivation,
re-activation, shutdown, inherited operations, an operation named like
a proxy attribute — is tested below the oracle.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deadline import Deadline, call_policy
from repro.errors import CommFailure, MarshalError, ObjectNotExist
from repro.orb import InMemoryNetwork, InterfaceBuilder, Ior, Orb
from repro.orb import giop
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, ORB_PRODUCT_CONTEXT,
                            TRAFFIC_CLASS_CONTEXT, ReplyMessage, ReplyStatus,
                            RequestMessage)
from repro.wrappers import ISI_INTERFACE, RemoteIsi, serve_isi
from tests.orb import giop_reference as reference
from tests.orb.test_giop_oracle import (SETTINGS, cells, contexts, ids, keys,
                                        replacements, texts)

edge_ids = st.sampled_from([0, 2**32 - 1]) | ids
products = st.sampled_from(["ReproORB", "Orbix", "VisiBroker", "𝄞 Orbix"]) \
    | texts
overload_contexts = st.lists(st.tuples(
    st.sampled_from([DEADLINE_BUDGET_CONTEXT, TRAFFIC_CLASS_CONTEXT]),
    st.sampled_from(["0.250000", "-0.000001", "background", "hé"]) | texts),
    max_size=2)
operations = st.sampled_from(["consult", "invoke", "résumé", "𝄞", ""]) \
    | st.text(max_size=6)


def fields(message):
    return tuple(getattr(message, field.name)
                 for field in dataclasses.fields(message))


def expected(framer, data, kind):
    """The fields of the *kind* message *framer* decodes from *data*; a
    ``MarshalError`` when it raises one or decodes another kind."""
    try:
        message = framer.decode_message(data)
    except MarshalError:
        return MarshalError
    return repr(fields(message)) if isinstance(message, kind) \
        else MarshalError


def read(reader, data):
    try:
        return repr(reader(data))
    except MarshalError:
        return MarshalError


def agree(data):
    for reader, kind in ((giop.read_request, RequestMessage),
                         (giop.read_reply, ReplyMessage)):
        outcome = read(reader, data)
        assert outcome == expected(giop, data, kind)
        assert outcome == expected(reference, data, kind)


def sweep(frame):
    """The frame, every truncation and every single-octet corruption."""
    for cut in range(len(frame) + 1):
        agree(frame[:cut])
    view = memoryview(frame)
    for cut in range(0, len(frame) + 1, 7):
        agree(view[:cut])
    damaged = bytearray(frame)
    for position, original in enumerate(frame):
        for replacement in replacements(original):
            damaged[position] = replacement
            agree(bytes(damaged))
        damaged[position] = original


@given(request_id=edge_ids, object_key=keys, operation=operations,
       arguments=st.lists(cells, max_size=3), oneway=st.booleans(),
       product=st.none() | products, overload=overload_contexts,
       little_endian=st.booleans())
@SETTINGS
def test_a_request_framed_from_its_parts_is_the_references(
        request_id, object_key, operation, arguments, oneway, product,
        overload, little_endian):
    ready = [] if product is None else [(ORB_PRODUCT_CONTEXT, product)]
    frame = giop.request_frame(
        request_id,
        giop._request_tail(little_endian, not oneway, object_key, operation,
                           len(arguments)),
        tuple(arguments), overload,
        giop.context_octets(ready, little_endian),
        little_endian)
    message = RequestMessage(request_id, object_key, operation, arguments,
                             not oneway, ready + overload)
    assert frame == reference.encode_message(message, little_endian)
    assert frame == giop.encode_message(message, little_endian)
    assert repr(giop.read_request(frame)) == repr(fields(message))
    sweep(frame)


@given(request_id=edge_ids, status=st.sampled_from(list(ReplyStatus)),
       body=cells, context=contexts, little_endian=st.booleans())
@SETTINGS
def test_a_reply_framed_from_its_parts_is_the_references(
        request_id, status, body, context, little_endian):
    frame = giop.reply_frame(request_id, status, body, context,
                             little_endian)
    message = ReplyMessage(request_id, status, body, context)
    assert frame == reference.encode_message(message, little_endian)
    assert repr(giop.read_reply(frame)) == repr(fields(message))
    sweep(frame)


@pytest.mark.parametrize("write", [
    lambda: giop.request_frame(2**32, b"", ()),
    lambda: giop.request_frame(-1, b"", ()),
    lambda: giop.request_frame(1, b"", ["\ud800"]),
    lambda: giop.request_frame(1, b"", (), [(2**32, "x")]),
    lambda: giop.request_frame(1, b"", (), [(1, "\ud800")]),
    lambda: giop.context_octets([(1, "\ud800")]),
    lambda: giop.reply_frame(2**32, ReplyStatus.NO_EXCEPTION, None),
    lambda: giop.reply_frame(1, ReplyStatus.NO_EXCEPTION, {1, 2}),
], ids=["request id", "negative id", "argument", "context id",
        "context value", "ready context", "reply id", "reply body"])
def test_what_the_writers_cannot_write_is_a_marshal_error(write):
    with pytest.raises(MarshalError):
        write()


# -- calls through an ORB pair ------------------------------------------------

BASE = InterfaceBuilder("Base").operation("ping").build()
CHILD = (InterfaceBuilder("Child").operation("pong", "a", "b")
         .extends(BASE).build())


class Servant:
    def __init__(self, name="first"):
        self.name = name

    def ping(self):
        return self.name

    def pong(self, a, b):
        return [a, b]


@pytest.fixture()
def fabric():
    network = InMemoryNetwork()
    server = Orb("server", network)
    client = Orb("client", network)
    return server, client


class Spy:
    """A fabric that keeps every request and reply frame it carries."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []

    def send(self, endpoint, data):
        reply = self.inner.send(endpoint, data)
        self.frames.append((data, reply))
        return reply

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_a_call_puts_the_references_bytes_on_the_wire():
    """The product context, the deadline budget and the traffic class
    of a call, as the message objects would have framed them."""
    network = InMemoryNetwork()
    server = Orb("server", network, product="Orbix")
    spy = Spy(network)
    client = Orb("client", spy, product="VisiBroker")
    ior = server.activate(Servant(), CHILD)
    with call_policy(deadline=Deadline(60), traffic_class="background"):
        assert client.proxy(ior, CHILD).pong("é", 2**40) == ["é", 2**40]
    (request, reply), = spy.frames
    sent = reference.decode_message(request)
    assert [context_id for context_id, __ in sent.service_context] == [
        ORB_PRODUCT_CONTEXT, DEADLINE_BUDGET_CONTEXT, TRAFFIC_CLASS_CONTEXT]
    assert sent.service_context[2] == (TRAFFIC_CLASS_CONTEXT, "background")
    assert (sent.operation, sent.arguments) == ("pong", ["é", 2**40])
    assert reference.encode_message(sent) == request
    answered = reference.decode_message(reply)
    assert (answered.request_id, answered.body) == (sent.request_id,
                                                    ["é", 2**40])
    assert reference.encode_message(answered) == reply
    assert server.stats.cross_product_requests == 1


# -- the skeleton's lifecycle -------------------------------------------------

def test_an_inherited_operation_dispatches(fabric):
    server, client = fabric
    ior = server.activate(Servant(), CHILD)
    proxy = client.proxy(ior, CHILD)
    assert proxy.ping() == "first"
    assert proxy.invoke("ping") == "first"
    assert client.proxy(ior).ping() == "first"


def test_a_deactivated_object_does_not_exist(fabric):
    server, client = fabric
    ior = server.activate(Servant(), CHILD, object_name="it")
    proxy = client.proxy(ior, CHILD)
    assert proxy.ping() == "first"
    server.deactivate(ior)
    with pytest.raises(ObjectNotExist):
        proxy.ping()


def test_a_reactivated_name_dispatches_to_the_new_servant(fabric):
    server, client = fabric
    ior = server.activate(Servant("first"), CHILD, object_name="it")
    proxy = client.proxy(ior, CHILD)
    assert proxy.ping() == "first"
    server.deactivate(ior)
    again = server.activate(Servant("second"), CHILD, object_name="it")
    assert again == ior
    assert proxy.ping() == "second"
    assert client.proxy(again, CHILD).pong(1, 2) == [1, 2]


def test_nothing_answers_after_shutdown(fabric):
    server, client = fabric
    ior = server.activate(Servant(), CHILD)
    proxy = client.proxy(ior, CHILD)
    assert proxy.ping() == "first"
    server.shutdown()
    with pytest.raises(CommFailure):
        proxy.ping()
    assert client.locate(ior) is False
    # Even a frame handed to it directly finds no servant.
    frame = giop.encode_message(RequestMessage(
        1, ior.primary.object_key, "ping"))
    assert giop.read_reply(server._handle_message(frame))[1] \
        is ReplyStatus.SYSTEM_EXCEPTION


class Isi:
    """The least an ISI servant forwards to."""

    def describe(self):
        return {"source": "Alpha", "wrapper": "test", "types": []}

    def execute_native(self, query, params):
        return [query, params]

    def invoke(self, type_name, function_name, args):
        return [type_name, function_name, args]


def test_an_operation_named_invoke_leaves_the_proxys_own_alone(fabric):
    """The ISI interface declares ``invoke``: a stub must not shadow
    ``Proxy.invoke`` (nor ``Proxy.ior``), or ``RemoteIsi`` would send
    its operation name as the first argument."""
    server, client = fabric
    ior = serve_isi(server, Isi(), object_name="Alpha")
    proxy = client.proxy(ior, ISI_INTERFACE)
    remote = RemoteIsi(proxy)
    assert remote.invoke("T", "f", [1, "é"]) == ["T", "f", [1, "é"]]
    assert remote.execute_native("SELECT 1", [2]) == ["SELECT 1", [2]]
    proxy.describe  # noqa: B018 - a stub is kept on the proxy
    assert proxy.invoke("invoke", "T", "g", []) == ["T", "g", []]
    assert isinstance(proxy.ior, Ior) and proxy.ior == ior
    assert remote.invoke("T", "h", []) == ["T", "h", []]
