"""The Object Request Broker core.

An :class:`Orb` plays both roles of a CORBA ORB:

* **server side** — an object adapter: servants are *activated* under an
  object key, the ORB listens on its transport endpoint, decodes GIOP
  requests, dispatches to the servant (validating the operation against
  the interface), and encodes replies;
* **client side** — ``string_to_object`` / :meth:`proxy` produce stubs
  whose method calls are marshalled to CDR, framed as GIOP requests and
  sent to the IOR's endpoint — whether that endpoint lives in the same
  process, another ORB product, or across a real TCP socket.

Exceptions cross the wire as CORBA distinguishes them: errors declared
in :mod:`repro.errors` travel as USER_EXCEPTION and are re-raised as the
same class on the client; anything else becomes a SYSTEM_EXCEPTION
surfaced as :class:`RemoteSystemError`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro import errors
from repro.deadline import INTERACTIVE, current_policy
from repro.errors import (BadOperation, CommFailure, DeadlineExceeded,
                          MarshalError, ObjectNotExist, OrbError, ReproError,
                          ServerBusy)
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, ORB_PRODUCT_CONTEXT,
                            TRAFFIC_CLASS_CONTEXT, LocateReplyMessage,
                            LocateRequestMessage, LocateStatus, MessageType,
                            ReplyMessage, ReplyStatus, RequestMessage,
                            _request_tail, context_octets, decode_message,
                            encode_message, read_reply, read_request,
                            reply_frame, request_frame)
from repro.orb.idl import InterfaceDef, InterfaceRepository
from repro.orb.ior import Ior, make_ior
from repro.orb.transport import Endpoint, InMemoryNetwork, Transport


class RemoteSystemError(OrbError):
    """A SYSTEM_EXCEPTION reply: the server failed unexpectedly."""

    def __init__(self, exception_type: str, message: str):
        super().__init__(f"{exception_type}: {message}")
        self.exception_type = exception_type
        self.remote_message = message


#: GIOP request ids need only be unique per connection, but pooled
#: connections are shared by every client ORB on one transport — so
#: ids are drawn from a single process-wide counter, unique on
#: whichever connection a request rides.  GIOP carries the id as a
#: ulong, so the counter is read modulo 2**32 (:meth:`Orb._next_id`):
#: an id comes round again only after 2**32 requests, long after the
#: connection that carried its last use has had that reply.
_request_ids = itertools.count(1)

# Read once: an enum member is a slow attribute on the hot path.
_REQUEST, _NO_EXCEPTION = MessageType.REQUEST, ReplyStatus.NO_EXCEPTION


@dataclass
class OrbStats:
    """Per-ORB request counters.

    Requests are dispatched concurrently — by the event loop's worker
    pool — so increments go through a lock: unlocked ``+=`` loses counts
    under contention.
    """

    requests_sent: int = 0
    requests_handled: int = 0
    cross_product_requests: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def note_sent(self) -> None:
        with self._lock:
            self.requests_sent += 1

    def note_handled(self, cross_product: bool = False) -> None:
        with self._lock:
            self.requests_handled += 1
            if cross_product:
                self.cross_product_requests += 1

    def reset(self) -> None:
        with self._lock:
            self.requests_sent = 0
            self.requests_handled = 0
            self.cross_product_requests = 0


class Proxy:
    """A client stub: attribute access yields remote operations.

    ``proxy.find_sources("Medical")`` marshals the call through the
    owning ORB.  The optional interface enables client-side operation
    checking before any bytes move: a typed proxy stubs only what it
    declares (else :class:`BadOperation`), an untyped one every name;
    stubs are kept, and ``invoke`` / ``ior`` stay the proxy's own.
    """

    def __init__(self, orb: "Orb", ior: Ior,
                 interface: Optional[InterfaceDef] = None):
        self._orb = orb
        self._ior = ior
        self._interface = interface

    @property
    def ior(self) -> Ior:
        return self._ior

    def _is_oneway(self, operation: str) -> bool:
        """Raises BadOperation for what a typed proxy does not declare."""
        return self._interface is not None and (
            self._interface.operations.get(operation)
            or self._interface.operation(operation)).oneway

    def invoke(self, operation: str, *args: Any) -> Any:
        """Invoke *operation* remotely with positional arguments; a
        declared oneway operation goes out without waiting for a reply."""
        return self._orb.invoke(self._ior, operation, args,
                                self._is_oneway(operation))

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        oneway = self._is_oneway(name)
        orb, ior = self._orb, self._ior

        def remote_call(*args: Any) -> Any:
            return orb.invoke(ior, name, args, oneway)

        remote_call.__name__ = name
        self.__dict__[name] = remote_call
        return remote_call

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Proxy({self._ior.type_id}, via {self._orb.name})"


class Orb:
    """One Object Request Broker instance."""

    def __init__(self, name: str, transport: Optional[Transport] = None,
                 host: str = "localhost", port: Optional[int] = None,
                 product: str = "ReproORB", vendor: str = "repro",
                 language: str = "Python"):
        self.name = name
        self.host = host
        self.product = product
        self.vendor = vendor
        self.language = language
        self.transport = transport if transport is not None else InMemoryNetwork()
        # Duck-typed so wrappers (e.g. a fault-injecting transport) stay
        # drop-in: any fabric that pre-allocates ports is asked for one.
        allocate_port = getattr(self.transport, "allocate_port", None)
        if port is None and allocate_port is not None:
            port = allocate_port()
        if port is None:
            port = 0  # let a TCP transport pick
        self.interfaces = InterfaceRepository()
        self.stats = OrbStats()
        #: Object key -> (servant, interface, its operations' arities).
        self._servants: dict[bytes, tuple] = {}
        self._request_ids = _request_ids
        self._key_counter = itertools.count(1)
        self._lock = threading.RLock()
        #: Portable-interceptor analogues: callables invoked around the
        #: request path.  Client interceptors see outgoing
        #: RequestMessages; server interceptors see (request, reply)
        #: pairs after dispatch.  Exceptions inside interceptors
        #: propagate — they are part of the request path, as in CORBA.
        self._client_interceptors: list = []
        self._server_interceptors: list = []
        #: Every request leads with the product context, written once.
        self._contexts = context_octets([(ORB_PRODUCT_CONTEXT, product)])
        self.endpoint: Endpoint = self.transport.register(
            (host, port), self._handle_message)

    # ------------------------------------------------------------ server side --

    def activate(self, servant: object, interface: InterfaceDef,
                 object_name: Optional[str] = None) -> Ior:
        """Activate *servant* under *interface*; returns its IOR."""
        interface.validate_servant(servant)
        self.interfaces.register(interface)
        suffix = object_name or f"obj{next(self._key_counter)}"
        object_key = f"{self.name}/{interface.name}/{suffix}".encode("utf-8")
        with self._lock:
            if object_key in self._servants:
                raise OrbError(f"object key {object_key!r} already active")
            self._servants[object_key] = (servant, interface, {
                name: operation.arity
                for name, operation in interface.all_operations().items()})
        return make_ior(interface.repository_id, self.endpoint[0],
                        self.endpoint[1], object_key)

    def deactivate(self, ior: Ior) -> None:
        """Remove the servant designated by *ior*."""
        with self._lock:
            self._servants.pop(ior.primary.object_key, None)

    def _handle_message(self, data: "bytes | memoryview") -> Optional[bytes]:
        # *data* may be a zero-copy ``memoryview`` sliced out of the
        # event-loop transport's receive buffer; decoding works on the
        # view in place and only materialises the values produced.  The
        # type octet picks the path; the reader checks the whole frame.
        if len(data) <= 7 or data[7] != _REQUEST:
            message = decode_message(data)
            if not isinstance(message, LocateRequestMessage):
                raise MarshalError(
                    f"server cannot handle {type(message).__name__}")
            return encode_message(LocateReplyMessage(
                message.request_id, LocateStatus.OBJECT_HERE
                if message.object_key in self._servants
                else LocateStatus.UNKNOWN_OBJECT))
        fields = read_request(data)
        request_id, object_key, operation, arguments, response_expected, \
            service_context = fields
        cross_product = False
        for context_id, value in service_context:
            if context_id == ORB_PRODUCT_CONTEXT and value != self.product:
                cross_product = True
        self.stats.note_handled(cross_product)
        status, body = self._dispatch(object_key, operation, arguments)
        reply_context = ()
        if self._server_interceptors:
            # Interceptors see (and may amend) message objects.
            request, reply = RequestMessage(*fields), \
                ReplyMessage(request_id, status, body)
            for interceptor in self._server_interceptors:
                interceptor(request, reply)
            status, body, reply_context = \
                reply.status, reply.body, reply.service_context
        if not response_expected:
            return None
        try:
            return reply_frame(request_id, status, body, reply_context)
        except MarshalError as exc:
            # What the servant returned (or raised) is not a value the
            # codec carries.  That is the server's failure like any
            # other: the caller is told, the connection survives.
            return reply_frame(request_id, *_system_exception(exc))

    # -- interceptors -----------------------------------------------------------

    def add_client_interceptor(self, interceptor) -> None:
        """Register ``interceptor(request_message)`` to run before each
        outgoing request is marshalled."""
        self._client_interceptors.append(interceptor)

    def add_server_interceptor(self, interceptor) -> None:
        """Register ``interceptor(request_message, reply_message)`` to
        run after each dispatch, before the reply is marshalled."""
        self._server_interceptors.append(interceptor)

    def _dispatch(self, object_key: bytes, operation: str,
                  arguments: list[Any]) -> tuple[ReplyStatus, Any]:
        """The skeleton: ``(reply status, body)`` of one request."""
        entry = self._servants.get(object_key)
        if entry is None:
            return _system_exception(ObjectNotExist(
                f"no servant for key "
                f"{object_key.decode('utf-8', 'replace')!r}"))
        servant, interface, arities = entry
        try:
            arity = arities.get(operation)
            if arity is None:
                interface.operation(operation)  # raises BadOperation
            if len(arguments) != arity:
                raise BadOperation(
                    f"{interface.name}.{operation} expects "
                    f"{arity} arguments, got {len(arguments)}")
            return _NO_EXCEPTION, getattr(servant, operation)(*arguments)
        except ReproError as exc:
            return ReplyStatus.USER_EXCEPTION, {
                "exception": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 - server boundary
            return _system_exception(exc)

    # ------------------------------------------------------------ client side --

    def invoke(self, ior: Ior, operation: str, arguments: Sequence[Any],
               oneway: bool = False) -> Any:
        """Send one GIOP request to the object behind *ior*."""
        # Overload metadata rides in service contexts: the remaining
        # deadline budget (so a saturated server can refuse dead work
        # before dispatch) and any non-default traffic class (so it
        # sheds background housekeeping first).
        context = []
        policy = current_policy()
        if policy.deadline is not None:
            context.append((DEADLINE_BUDGET_CONTEXT,
                            f"{policy.deadline.remaining():.6f}"))
        if policy.traffic_class != INTERACTIVE:
            context.append((TRAFFIC_CLASS_CONTEXT, policy.traffic_class))
        request_id = self._next_id()
        target = ior.primary
        if self._client_interceptors:
            # Interceptors see (and may extend) a message object.
            request = RequestMessage(
                request_id, target.object_key, operation, list(arguments),
                not oneway, [(ORB_PRODUCT_CONTEXT, self.product), *context])
            for interceptor in self._client_interceptors:
                interceptor(request)
            request_id = request.request_id
            frame = encode_message(request)
        else:
            frame = request_frame(
                request_id, _request_tail(False, not oneway,
                                          target.object_key, operation,
                                          len(arguments)),
                arguments, context, self._contexts)
        self.stats.note_sent()
        endpoint = target.endpoint
        raw_reply = self.transport.send(endpoint, frame)
        if oneway:
            return None
        if not raw_reply:
            raise CommFailure(f"no reply from {endpoint!r}")
        reply_id, status, body, __ = read_reply(raw_reply)
        if reply_id != request_id:
            raise _cross_wired(endpoint, reply_id, operation, request_id)
        if status is _NO_EXCEPTION:
            return body
        if status is ReplyStatus.USER_EXCEPTION:
            raise _revive_user_exception(body)
        body = body if isinstance(body, dict) else {}
        if status is ReplyStatus.BUSY:
            if body.get("reason", "overload") == "deadline":
                # The server saw our budget already spent: surface the
                # same error the deadline itself would have raised, so
                # no retry machinery touches it.
                raise DeadlineExceeded(
                    f"{endpoint!r} refused {operation}: "
                    f"deadline budget exhausted before dispatch")
            raise ServerBusy(f"{endpoint!r} shed {operation} "
                             f"({body.get('reason', 'overload')})")
        if body.get("exception") == "ObjectNotExist":
            raise ObjectNotExist(body.get("message", ""))
        raise RemoteSystemError(body.get("exception", "Unknown"),
                                body.get("message", ""))

    def locate(self, ior: Ior) -> bool:
        """LocateRequest probe: is the object alive at its endpoint?"""
        message = LocateRequestMessage(request_id=self._next_id(),
                                       object_key=ior.primary.object_key)
        try:
            raw_reply = self.transport.send(ior.primary.endpoint,
                                            encode_message(message))
        except CommFailure:
            return False
        reply = decode_message(raw_reply)
        if not isinstance(reply, LocateReplyMessage):
            return False
        if reply.request_id != message.request_id:
            raise _cross_wired(ior.primary.endpoint, reply.request_id,
                               "locate", message.request_id)
        return reply.status is LocateStatus.OBJECT_HERE

    def _next_id(self) -> int:
        return next(self._request_ids) % 2**32

    def proxy(self, ior: Ior,
              interface: Optional[InterfaceDef] = None) -> Proxy:
        """A stub for the object behind *ior*."""
        if interface is None and ior.type_id in self.interfaces:
            interface = self.interfaces.lookup(ior.type_id)
        return Proxy(self, ior, interface)

    # -- CORBA-style string conversions ----------------------------------------

    def object_to_string(self, ior: Ior) -> str:
        """Stringify an object reference (CORBA ``object_to_string``)."""
        return ior.to_string()

    def string_to_object(self, text: str,
                         interface: Optional[InterfaceDef] = None) -> Proxy:
        """Parse an IOR string into a stub (CORBA ``string_to_object``)."""
        return self.proxy(Ior.from_string(text), interface)

    def shutdown(self) -> None:
        """Unbind from the transport and drop all servants."""
        self.transport.unregister(self.endpoint)
        with self._lock:
            self._servants.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Orb(name={self.name!r}, product={self.product!r}, "
                f"endpoint={self.endpoint!r}, servants={len(self._servants)})")


def _cross_wired(endpoint: Endpoint, reply_id: int, operation: str,
                 request_id: int) -> CommFailure:
    """Never a cross-wired reply: one that answers another request is a
    communication failure, whatever it carries."""
    return CommFailure(f"{endpoint!r} answered request {reply_id} "
                       f"to {operation} request {request_id}")


def _system_exception(exc: Exception) -> tuple[ReplyStatus, dict]:
    return ReplyStatus.SYSTEM_EXCEPTION, {
        "exception": type(exc).__name__, "message": str(exc)}


def _revive_user_exception(body: Any) -> ReproError:
    """Rebuild a USER_EXCEPTION as its original exception class."""
    if not isinstance(body, dict):
        return ReproError(str(body))
    exception_name = body.get("exception", "ReproError")
    message = body.get("message", "")
    exception_class = getattr(errors, exception_name, None)
    if isinstance(exception_class, type) and issubclass(exception_class,
                                                        ReproError):
        try:
            return exception_class(message)
        except TypeError:  # exception with a custom signature
            revived = ReproError(message)
            revived.__class__ = exception_class
            return revived
    return ReproError(f"{exception_name}: {message}")
