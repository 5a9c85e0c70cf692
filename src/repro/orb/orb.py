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
from typing import Any, Optional

from repro import errors
from repro.deadline import INTERACTIVE, current_policy
from repro.errors import (BadOperation, CommFailure, DeadlineExceeded,
                          MarshalError, ObjectNotExist, OrbError, ReproError,
                          ServerBusy)
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, ORB_PRODUCT_CONTEXT,
                            TRAFFIC_CLASS_CONTEXT, LocateReplyMessage,
                            LocateRequestMessage, LocateStatus, ReplyMessage,
                            ReplyStatus, RequestMessage, decode_message,
                            encode_message)
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
    declares (else :class:`BadOperation`), an untyped one every name.
    """

    def __init__(self, orb: "Orb", ior: Ior,
                 interface: Optional[InterfaceDef] = None):
        self._orb = orb
        self._ior = ior
        self._interface = interface

    @property
    def ior(self) -> Ior:
        return self._ior

    def invoke(self, operation: str, *args: Any) -> Any:
        """Invoke *operation* remotely with positional arguments; a
        declared oneway operation goes out without waiting for a reply."""
        oneway = False
        if self._interface is not None:
            # Raises BadOperation early.
            oneway = self._interface.operation(operation).oneway
        return self._orb.invoke(self._ior, operation, list(args),
                                oneway=oneway)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if self._interface is not None:
            self._interface.operation(name)

        def remote_call(*args: Any) -> Any:
            return self.invoke(name, *args)

        remote_call.__name__ = name
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
        self._servants: dict[bytes, tuple[object, InterfaceDef]] = {}
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
            self._servants[object_key] = (servant, interface)
        return make_ior(interface.repository_id, self.endpoint[0],
                        self.endpoint[1], object_key)

    def deactivate(self, ior: Ior) -> None:
        """Remove the servant designated by *ior*."""
        with self._lock:
            self._servants.pop(ior.primary.object_key, None)

    def _handle_message(self, data: "bytes | memoryview") -> Optional[bytes]:
        # *data* may be a zero-copy ``memoryview`` sliced out of the
        # event-loop transport's receive buffer; decoding works on the
        # view in place and only materialises the values produced.
        message = decode_message(data)
        if isinstance(message, LocateRequestMessage):
            status = (LocateStatus.OBJECT_HERE
                      if message.object_key in self._servants
                      else LocateStatus.UNKNOWN_OBJECT)
            return encode_message(LocateReplyMessage(
                request_id=message.request_id, status=status))
        if not isinstance(message, RequestMessage):
            raise MarshalError(
                f"server cannot handle {type(message).__name__}")
        self.stats.note_handled(cross_product=any(
            context_id == ORB_PRODUCT_CONTEXT and value != self.product
            for context_id, value in message.service_context))
        reply = self._dispatch(message)
        for interceptor in self._server_interceptors:
            interceptor(message, reply)
        if not message.response_expected:
            return None
        try:
            return encode_message(reply)
        except MarshalError as exc:
            # What the servant returned (or raised) is not a value the
            # codec carries.  That is the server's failure like any
            # other: the caller is told, the connection survives.
            return encode_message(
                _system_exception(message.request_id, exc))

    # -- interceptors -----------------------------------------------------------

    def add_client_interceptor(self, interceptor) -> None:
        """Register ``interceptor(request_message)`` to run before each
        outgoing request is marshalled."""
        self._client_interceptors.append(interceptor)

    def add_server_interceptor(self, interceptor) -> None:
        """Register ``interceptor(request_message, reply_message)`` to
        run after each dispatch, before the reply is marshalled."""
        self._server_interceptors.append(interceptor)

    def _dispatch(self, request: RequestMessage) -> ReplyMessage:
        entry = self._servants.get(request.object_key)
        if entry is None:
            return _system_exception(request.request_id, ObjectNotExist(
                f"no servant for key "
                f"{request.object_key.decode('utf-8', 'replace')!r}"))
        servant, interface = entry
        try:
            operation = interface.operation(request.operation)
            if len(request.arguments) != operation.arity:
                raise BadOperation(
                    f"{interface.name}.{request.operation} expects "
                    f"{operation.arity} arguments, got {len(request.arguments)}")
            method = getattr(servant, request.operation)
            result = method(*request.arguments)
            return ReplyMessage(request_id=request.request_id,
                                status=ReplyStatus.NO_EXCEPTION, body=result)
        except ReproError as exc:
            return ReplyMessage(
                request_id=request.request_id,
                status=ReplyStatus.USER_EXCEPTION,
                body={"exception": type(exc).__name__, "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - server boundary
            return _system_exception(request.request_id, exc)

    # ------------------------------------------------------------ client side --

    def invoke(self, ior: Ior, operation: str, arguments: list[Any],
               oneway: bool = False) -> Any:
        """Send one GIOP request to the object behind *ior*."""
        # Overload metadata rides in service contexts: the remaining
        # deadline budget (so a saturated server can refuse dead work
        # before dispatch) and any non-default traffic class (so it
        # sheds background housekeeping first).
        service_context = [(ORB_PRODUCT_CONTEXT, self.product)]
        policy = current_policy()
        if policy.deadline is not None:
            service_context.append(
                (DEADLINE_BUDGET_CONTEXT,
                 f"{policy.deadline.remaining():.6f}"))
        if policy.traffic_class != INTERACTIVE:
            service_context.append(
                (TRAFFIC_CLASS_CONTEXT, policy.traffic_class))
        request = RequestMessage(
            request_id=self._next_id(),
            object_key=ior.primary.object_key,
            operation=operation,
            arguments=arguments,
            response_expected=not oneway,
            service_context=service_context)
        for interceptor in self._client_interceptors:
            interceptor(request)
        self.stats.note_sent()
        raw_reply = self.transport.send(ior.primary.endpoint,
                                        encode_message(request))
        if oneway:
            return None
        if not raw_reply:
            raise CommFailure(f"no reply from {ior.primary.endpoint!r}")
        reply = decode_message(raw_reply)
        if not isinstance(reply, ReplyMessage):
            raise MarshalError(f"expected Reply, got {type(reply).__name__}")
        _check_answers(reply, request.request_id, ior, operation)
        if reply.status is ReplyStatus.NO_EXCEPTION:
            return reply.body
        if reply.status is ReplyStatus.USER_EXCEPTION:
            raise _revive_user_exception(reply.body)
        if reply.status is ReplyStatus.BUSY:
            body = reply.body if isinstance(reply.body, dict) else {}
            reason = body.get("reason", "overload")
            if reason == "deadline":
                # The server saw our budget already spent: surface the
                # same error the deadline itself would have raised, so
                # no retry machinery touches it.
                raise DeadlineExceeded(
                    f"{ior.primary.endpoint!r} refused {operation}: "
                    f"deadline budget exhausted before dispatch")
            raise ServerBusy(
                f"{ior.primary.endpoint!r} shed {operation} ({reason})")
        body = reply.body if isinstance(reply.body, dict) else {}
        exception_type = body.get("exception", "Unknown")
        message = body.get("message", "")
        if exception_type == "ObjectNotExist":
            raise ObjectNotExist(message)
        raise RemoteSystemError(exception_type, message)

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
        _check_answers(reply, message.request_id, ior, "locate")
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


def _check_answers(reply: "ReplyMessage | LocateReplyMessage",
                   request_id: int, ior: Ior, operation: str) -> None:
    """Never a cross-wired reply: one that answers another request is a
    communication failure, whatever it carries."""
    if reply.request_id != request_id:
        raise CommFailure(
            f"{ior.primary.endpoint!r} answered request {reply.request_id} "
            f"to {operation} request {request_id}")


def _system_exception(request_id: int, exc: Exception) -> ReplyMessage:
    return ReplyMessage(
        request_id=request_id, status=ReplyStatus.SYSTEM_EXCEPTION,
        body={"exception": type(exc).__name__, "message": str(exc)})


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
