"""Transports carrying GIOP messages between ORBs.

Two interchangeable transports:

* :class:`InMemoryNetwork` — a process-local IIOP fabric.  Endpoints
  register handlers; requests are delivered synchronously as *bytes*
  (messages are genuinely marshalled, so the full encode/decode path is
  exercised) while message and byte counters accumulate for the
  scalability benchmarks.
* :class:`TcpTransport` — real IIOP-over-TCP on the loopback interface,
  framing messages with the GIOP header's size field.  Connections are
  kept alive and pooled per endpoint by default (CORBA 2.0 permits
  either connection reuse or per-call connections); pass
  ``pooled=False`` for the per-call behaviour benchmarks use as a
  baseline.

:class:`TcpTransport` runs in one of two I/O modes:

* **threaded** (the default) — a ``ThreadingTCPServer`` per endpoint,
  one handler thread per accepted connection serving one frame at a
  time, and the serial pooled client.  This is the paper's
  one-request-per-connection IIOP, and the path ``mixed_tcp`` measures;
* **event-loop** (``loop=True``, ``REPRO_TRANSPORT_LOOP=1``, or any
  pipelining mode) — a single ``selectors``-based reader/writer thread
  demultiplexes every server-side connection *and* every pipelined
  client channel.  Servant dispatch runs on a small bounded worker
  pool so application code never blocks the loop; replies are posted
  back to the loop for non-blocking, batched writes (small GIOP frames
  queued for the same connection coalesce into one ``send``).  GIOP
  request pipelining exists only here.  See ``docs/event-loop.md``.

Both expose the same two operations: ``register`` a server endpoint and
``send`` a request to an endpoint, returning the reply bytes.
"""

from __future__ import annotations

import heapq
import itertools
import os
import selectors
import socket
import socketserver
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.deadline import Deadline, current_policy
from repro.errors import CommFailure, DeadlineExceeded, MarshalError
from repro.orb.giop import (HEADER_SIZE, busy_reply, peek_frame_size,
                            peek_reply_id, peek_request,
                            peek_request_admission)
from repro.orb.overload import AdmissionController, OverloadPolicy

#: A server-side message handler: request bytes in, reply bytes out
#: (None for oneway messages).
Handler = Callable[[bytes], Optional[bytes]]

Endpoint = tuple[str, int]


@dataclass
class TransportMetrics:
    """Counters accumulated by a transport, consumed by benchmarks.

    Transports serve many client threads at once (``ThreadingTCPServer``
    on the server side, parallel discovery fan-out on the client side),
    so every update happens under one lock — unlocked ``+=`` on these
    counters loses increments under contention.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    per_endpoint: dict[Endpoint, int] = field(default_factory=dict)
    #: TCP connection accounting (always zero on the in-memory fabric).
    connections_opened: int = 0
    connections_reused: int = 0
    #: Pipelining accounting: requests submitted while at least one
    #: other request was already in flight on the same connection, the
    #: deepest in-flight depth any connection reached, callers that
    #: gave up waiting for a matched reply (stalls), and requests that
    #: found every stripe at its depth cap (overflows, served on a
    #: dedicated serial round-trip instead).
    requests_pipelined: int = 0
    max_in_flight: int = 0
    pipeline_stalls: int = 0
    pipeline_overflows: int = 0
    #: Event-loop write batching: flushes that coalesced more than one
    #: queued frame into a single ``send``, and how many frames rode
    #: along in them beyond the first.
    batch_flushes: int = 0
    frames_batched: int = 0
    #: ``pipelined="auto"`` endpoints promoted serial -> striped after
    #: concurrent in-flight demand was observed.
    auto_promotions: int = 0
    #: Admission control: requests shed under overload (queue cap,
    #: brownout, CoDel sojourn) and requests dropped because their
    #: caller's deadline budget was already spent — each answered with
    #: a BUSY reply instead of a servant dispatch.
    requests_shed: int = 0
    requests_expired: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, endpoint: Endpoint, request_size: int,
               reply_size: int) -> None:
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += request_size
            self.bytes_received += reply_size
            self.per_endpoint[endpoint] = \
                self.per_endpoint.get(endpoint, 0) + 1

    def record_connection(self, reused: bool) -> None:
        with self._lock:
            if reused:
                self.connections_reused += 1
            else:
                self.connections_opened += 1

    def record_pipeline(self, depth: int) -> None:
        with self._lock:
            if depth > 1:
                self.requests_pipelined += 1
            if depth > self.max_in_flight:
                self.max_in_flight = depth

    def record_stall(self) -> None:
        with self._lock:
            self.pipeline_stalls += 1

    def record_overflow(self) -> None:
        with self._lock:
            self.pipeline_overflows += 1

    def record_batch(self, frames: int) -> None:
        """One flush wrote *frames* coalesced frames in a single send.

        Called from the event-loop thread while worker threads are
        recording dispatch counters — the shared lock is what keeps
        mixed loop/worker updates coherent.
        """
        with self._lock:
            if frames > 1:
                self.batch_flushes += 1
                self.frames_batched += frames - 1

    def record_auto_promotion(self) -> None:
        with self._lock:
            self.auto_promotions += 1

    def record_shed(self, reason: str) -> None:
        with self._lock:
            if reason == "deadline":
                self.requests_expired += 1
            else:
                self.requests_shed += 1

    def snapshot(self) -> dict[str, int]:
        """All counters, read atomically under the lock.

        Field-by-field reads can tear across a concurrent update (the
        loop thread flushing while a worker records a dispatch);
        benchmarks and tests that compare related counters should read
        one snapshot instead.
        """
        with self._lock:
            return {
                "messages_sent": self.messages_sent,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "connections_opened": self.connections_opened,
                "connections_reused": self.connections_reused,
                "requests_pipelined": self.requests_pipelined,
                "max_in_flight": self.max_in_flight,
                "pipeline_stalls": self.pipeline_stalls,
                "pipeline_overflows": self.pipeline_overflows,
                "batch_flushes": self.batch_flushes,
                "frames_batched": self.frames_batched,
                "auto_promotions": self.auto_promotions,
                "requests_shed": self.requests_shed,
                "requests_expired": self.requests_expired,
                "per_endpoint": {f"{host}:{port}": count
                                 for (host, port), count
                                 in self.per_endpoint.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self.messages_sent = 0
            self.bytes_sent = 0
            self.bytes_received = 0
            self.per_endpoint.clear()
            self.connections_opened = 0
            self.connections_reused = 0
            self.requests_pipelined = 0
            self.max_in_flight = 0
            self.pipeline_stalls = 0
            self.pipeline_overflows = 0
            self.batch_flushes = 0
            self.frames_batched = 0
            self.auto_promotions = 0
            self.requests_shed = 0
            self.requests_expired = 0


class Transport:
    """Abstract transport interface."""

    def register(self, endpoint: Endpoint, handler: Handler) -> Endpoint:
        raise NotImplementedError  # pragma: no cover - interface

    def unregister(self, endpoint: Endpoint) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def send(self, endpoint: Endpoint, data: bytes) -> bytes:
        raise NotImplementedError  # pragma: no cover - interface


class InMemoryNetwork(Transport):
    """A synchronous, in-process network of GIOP endpoints."""

    def __init__(self) -> None:
        self._handlers: dict[Endpoint, Handler] = {}
        self._lock = threading.RLock()
        self.metrics = TransportMetrics()
        self._next_port = 20000

    def allocate_port(self) -> int:
        """Hand out a fresh port number for auto-assigned endpoints."""
        with self._lock:
            port = self._next_port
            self._next_port += 1
            return port

    def register(self, endpoint: Endpoint, handler: Handler) -> Endpoint:
        with self._lock:
            if endpoint in self._handlers:
                raise CommFailure(f"endpoint {endpoint!r} already bound")
            self._handlers[endpoint] = handler
        return endpoint

    def unregister(self, endpoint: Endpoint) -> None:
        with self._lock:
            self._handlers.pop(endpoint, None)

    def send(self, endpoint: Endpoint, data: bytes) -> bytes:
        # The lookup must happen under the lock: concurrent
        # register/unregister during parallel discovery must not let a
        # sender observe a torn view of the handler table.
        with self._lock:
            handler = self._handlers.get(endpoint)
        if handler is None:
            raise CommFailure(f"connection refused: {endpoint!r}")
        reply = handler(data)
        if reply is None:
            reply = b""
        self.metrics.record(endpoint, len(data), len(reply))
        return reply

    def endpoints(self) -> list[Endpoint]:
        """Currently bound endpoints."""
        with self._lock:
            return list(self._handlers)


def _read_exact(connection: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        try:
            chunk = connection.recv(remaining)
        except TimeoutError:
            raise  # deadline machinery upstack maps timeouts itself
        except OSError as exc:
            # A reset peer is the same condition as a closed one — the
            # counterpart died between (or mid) frames.
            raise CommFailure(f"connection reset mid-message: {exc}") \
                from exc
        if not chunk:
            raise CommFailure("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_giop_frame(connection: socket.socket) -> bytes:
    """Read one GIOP message (header + body) from a socket."""
    header = _read_exact(connection, HEADER_SIZE)
    little_endian = bool(header[6] & 1)
    size = int.from_bytes(header[8:12], "little" if little_endian else "big")
    body = _read_exact(connection, size) if size else b""
    return header + body


def _close_quietly(connection: socket.socket) -> None:
    try:
        connection.close()
    except OSError:  # pragma: no cover - close failures are ignorable
        pass


#: A frame sliced out of a receive buffer: ``bytes`` when it arrived in
#: (or spans) whole chunks, a zero-copy ``memoryview`` otherwise.
Frame = Union[bytes, memoryview]


class FrameBuffer:
    """Reassembles GIOP frames from an arbitrarily-chunked byte stream.

    ``feed`` whatever ``recv`` returned — one byte or a jumbo coalesced
    write — and ``next_frame`` slices complete frames back out.  The
    received chunks are kept immutable and *referenced*, never joined
    wholesale: a frame wholly inside one chunk comes back as a
    ``memoryview`` of it (or the chunk itself when they coincide —
    the common case once the peer batches one frame per send), and
    only a frame spanning chunk boundaries pays one join of exactly
    its own bytes.

    Not thread-safe: each connection's buffer is owned by one reader
    (the event loop).
    """

    __slots__ = ("_chunks", "_offset", "_size")

    def __init__(self) -> None:
        self._chunks: deque[bytes] = deque()
        self._offset = 0  # consumed prefix of _chunks[0]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def feed(self, data: bytes) -> None:
        if data:
            self._chunks.append(data)
            self._size += len(data)

    def next_frame(self) -> Optional[Frame]:
        """The next complete GIOP frame, or None until more bytes come.

        Raises :class:`~repro.errors.MarshalError` when the buffered
        header is not GIOP — the stream can never be resynchronised and
        the connection must be dropped.
        """
        if self._size < HEADER_SIZE:
            return None
        total = peek_frame_size(self._peek_header())
        if self._size < total:
            return None
        return self._take(total)

    # ------------------------------------------------------------ internals --

    def _peek_header(self) -> Frame:
        first = self._chunks[0]
        if len(first) - self._offset >= HEADER_SIZE:
            return memoryview(first)[self._offset:self._offset + HEADER_SIZE]
        parts: list[bytes] = []
        need = HEADER_SIZE
        offset = self._offset
        for chunk in self._chunks:
            take = min(len(chunk) - offset, need)
            parts.append(chunk[offset:offset + take])
            need -= take
            offset = 0
            if need == 0:
                break
        return b"".join(parts)

    def _take(self, count: int) -> Frame:
        first = self._chunks[0]
        available = len(first) - self._offset
        self._size -= count
        if available >= count:
            if self._offset == 0 and available == count:
                self._chunks.popleft()
                return first
            frame = memoryview(first)[self._offset:self._offset + count]
            self._offset += count
            if self._offset == len(first):
                self._chunks.popleft()
                self._offset = 0
            return frame
        parts = []
        remaining = count
        while remaining:
            chunk = self._chunks[0]
            take = min(len(chunk) - self._offset, remaining)
            parts.append(memoryview(chunk)[self._offset:self._offset + take])
            remaining -= take
            self._offset += take
            if self._offset == len(chunk):
                self._chunks.popleft()
                self._offset = 0
        return b"".join(parts)


class _GiopRequestHandler(socketserver.BaseRequestHandler):
    """Serves one client connection for its lifetime, a frame at a time.

    Frames keep arriving on the same socket until the peer closes it
    (keep-alive IIOP) — pooled clients amortise the TCP handshake over
    many requests, per-call clients simply close after one frame.  Each
    frame is admitted, dispatched and answered on this connection's
    thread before the next is read, so a peer that writes requests back
    to back (another transport's pipelined channel) is served serially
    and in request order.  Returning closes the connection.
    """

    def handle(self) -> None:
        transport: TcpTransport = self.server.transport  # type: ignore[attr-defined]
        endpoint = self.server.server_address  # type: ignore[attr-defined]
        admission = transport.admission
        while True:
            try:
                data = read_giop_frame(self.request)
            except CommFailure:
                return  # peer closed (or died) between frames
            handler = transport.handler_for((endpoint[0], endpoint[1]))
            if handler is None:
                return
            reason = None
            if admission.enabled:
                # Nothing queues in-process here (the kernel's socket
                # buffer is the queue), so the ticket is picked up at
                # once: the same two checks the loop server makes, with
                # no sojourn in between.
                ticket, reason = admission.enqueue(
                    *peek_request_admission(data))
                if reason is None:
                    reason = admission.dequeue(ticket)
            if reason is not None:
                # A BUSY reply is cheap — no servant dispatch, no
                # modelled latency: shedding must cost less than
                # serving, or it cannot protect anything.  None for a
                # oneway or unattributable frame: shed silently.
                transport.metrics.record_shed(reason)
                reply = busy_reply(data, reason)
            else:
                if transport.latency > 0:
                    time.sleep(transport.latency)
                try:
                    reply = handler(data)
                except Exception:  # noqa: BLE001 - undecodable frame:
                    return  # the stream is poisoned, drop it
            if reply:
                try:
                    self.request.sendall(reply)
                except OSError:
                    return


#: How long transport teardown waits for in-flight servant dispatches
#: before giving up on them: long enough for a journal group commit,
#: short enough that closing a transport never hangs a test run.
_DRAIN_TIMEOUT = 2.0


class _GiopServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # Parallel discovery fan-out opens bursts of simultaneous
    # connections; the socketserver default backlog of 5 drops the
    # overflow SYNs, stalling clients on kernel retransmit timers.
    request_queue_size = 64


class _ConnectionPool:
    """Idle keep-alive connections, bounded per endpoint.

    ``checkout`` hands an idle connection to exactly one caller (or
    None); ``checkin`` returns it, closing it instead when the endpoint
    already holds ``max_idle`` spares or the pool is closed.
    """

    def __init__(self, max_idle: int = 8):
        self.max_idle = max_idle
        self._idle: dict[Endpoint, deque[socket.socket]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def checkout(self, endpoint: Endpoint) -> Optional[socket.socket]:
        with self._lock:
            spares = self._idle.get(endpoint)
            if spares:
                return spares.popleft()
        return None

    def checkin(self, endpoint: Endpoint,
                connection: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                spares = self._idle.setdefault(endpoint, deque())
                if len(spares) < self.max_idle:
                    spares.append(connection)
                    return
        _close_quietly(connection)

    def idle_count(self, endpoint: Optional[Endpoint] = None) -> int:
        with self._lock:
            if endpoint is not None:
                return len(self._idle.get(endpoint, ()))
            return sum(len(spares) for spares in self._idle.values())

    def discard(self, endpoint: Endpoint) -> None:
        """Drop (and close) every idle connection to *endpoint*."""
        with self._lock:
            spares = self._idle.pop(endpoint, None)
        for connection in spares or ():
            _close_quietly(connection)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            spares = [connection for queue in self._idle.values()
                      for connection in queue]
            self._idle.clear()
        for connection in spares:
            _close_quietly(connection)


#: How much one recv pulls off a socket on the framed read paths.
_RECV_SIZE = 256 * 1024


def _as_bytes(frame: Frame) -> bytes:
    return frame if isinstance(frame, bytes) else bytes(frame)


class _ChannelDead(Exception):
    """The pipelined connection died before this request was sent."""

    def __init__(self, cause: Exception):
        super().__init__(str(cause))
        self.cause = cause


class _RequestIdBusy(Exception):
    """This request id is already in flight on the chosen connection."""


class _PendingReply:
    """One caller's wait slot: filled by the loop, or failed."""

    __slots__ = ("event", "frame", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.frame: Optional[Frame] = None
        self.error: Optional[Exception] = None


#: Listen backlog for event-loop endpoints.  The loop drains accepts in
#: a tight non-blocking burst, so a storm of connecting clients queues
#: here instead of hitting kernel SYN retransmit timers.
_LOOP_BACKLOG = 512

#: Most queued bytes one flush coalesces into a single ``send``.
_BATCH_FLUSH = 64 * 1024

#: Concurrent senders to one endpoint that promote it in
#: ``pipelined="auto"`` mode: the first time any overlap is observed.
_AUTO_PROMOTE_AT = 2


def _loop_default() -> bool:
    """Process-wide default for ``TcpTransport(loop=...)``: CI's
    transport-mode matrix flips whole suites to the event loop by
    exporting ``REPRO_TRANSPORT_LOOP=1`` without touching any test."""
    return os.environ.get("REPRO_TRANSPORT_LOOP", "").lower() in (
        "1", "true", "yes", "event-loop", "eventloop")


def _shed_default() -> bool:
    """Process-wide default for ``TcpTransport(overload=...)``: CI's
    overload matrix turns admission control on for whole suites by
    exporting ``REPRO_SHEDDING=1``.  Off unless asked for — shedding
    changes observable behaviour (BUSY replies) and must never
    surprise a test that queues deliberately."""
    return os.environ.get("REPRO_SHEDDING", "").lower() in (
        "1", "true", "yes", "on")


class _EventLoop:
    """One ``selectors`` thread demultiplexing every socket the
    transport owns: listeners, accepted server connections, and
    pipelined client channels.

    Everything that touches the selector or a stream's write queue runs
    on the loop thread; other threads get in via :meth:`call_soon`
    (append a callback, wake the selector through a socketpair) or
    :meth:`call_later` (a monotonic timer heap — how the modelled WAN
    ``latency`` delays replies without parking a worker thread).  Each
    iteration drains ready I/O, then callbacks, then due timers, and
    only then flushes connections with queued output — that final flush
    is the frame-batching window: every frame enqueued for the same
    connection during the iteration leaves in one ``send``.
    """

    def __init__(self, batch_flush: int, metrics: TransportMetrics,
                 name: str = "giop-loop"):
        self.batch_flush = batch_flush
        self.metrics = metrics
        self._selector = selectors.DefaultSelector()
        wake_recv, wake_send = socket.socketpair()
        wake_recv.setblocking(False)
        wake_send.setblocking(False)
        self._wake_recv, self._wake_send = wake_recv, wake_send
        self._selector.register(wake_recv, selectors.EVENT_READ,
                                self._drain_wakeups)
        self._callbacks: deque[tuple[Callable, tuple]] = deque()
        self._callback_lock = threading.Lock()
        self._timers: list[tuple[float, int, Callable, tuple]] = []
        self._timer_seq = itertools.count()
        self._dirty: set["_LoopStream"] = set()
        self._running = True
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    @property
    def running(self) -> bool:
        return self._running

    def on_loop_thread(self) -> bool:
        return threading.current_thread() is self._thread

    # ------------------------------------------------- cross-thread entry --

    def call_soon(self, fn: Callable, *args: Any) -> None:
        with self._callback_lock:
            self._callbacks.append((fn, args))
        self._wake()

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        due = time.monotonic() + delay
        with self._callback_lock:
            heapq.heappush(self._timers,
                           (due, next(self._timer_seq), fn, args))
        self._wake()

    def call_soon_sync(self, fn: Callable, *args: Any,
                       timeout: float = 5.0) -> Any:
        """Run *fn* on the loop thread and wait for its result.  Falls
        back to running inline when the loop is already stopped (then
        nothing else touches the selector concurrently)."""
        if self.on_loop_thread() or not self._running:
            return fn(*args)
        done = threading.Event()
        box: dict[str, Any] = {}

        def runner() -> None:
            try:
                box["result"] = fn(*args)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc
            finally:
                done.set()

        self.call_soon(runner)
        done.wait(timeout)
        if "error" in box:
            raise box["error"]
        return box.get("result")

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wake()
        if not self.on_loop_thread():
            self._thread.join(timeout=5.0)

    # ------------------------------------------------- loop-thread only --

    def register_stream(self, sock: socket.socket, events: int,
                        callback: Callable[[int], None]) -> None:
        self._selector.register(sock, events, callback)

    def modify_stream(self, sock: socket.socket, events: int,
                      callback: Callable[[int], None]) -> None:
        self._selector.modify(sock, events, callback)

    def unregister_stream(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    def mark_dirty(self, stream: "_LoopStream") -> None:
        self._dirty.add(stream)

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # a wakeup is already pending (or the loop is gone)

    def _drain_wakeups(self, mask: int) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _run(self) -> None:
        while self._running:
            with self._callback_lock:
                have_callbacks = bool(self._callbacks)
                next_due = self._timers[0][0] if self._timers else None
            if have_callbacks:
                timeout: Optional[float] = 0.0
            elif next_due is not None:
                timeout = max(0.0, next_due - time.monotonic())
            else:
                timeout = None
            try:
                events = self._selector.select(timeout)
            except OSError:  # pragma: no cover - fd closed mid-select
                events = []
            for key, mask in events:
                try:
                    key.data(mask)
                except Exception:  # noqa: BLE001 - a broken stream
                    pass  # must never take the whole loop down
            self._run_callbacks()
            self._run_timers()
            self._flush_dirty()
        self._teardown()

    def _run_callbacks(self) -> None:
        while True:
            with self._callback_lock:
                if not self._callbacks:
                    return
                fn, args = self._callbacks.popleft()
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - see _run
                pass

    def _run_timers(self) -> None:
        while True:
            with self._callback_lock:
                if not self._timers \
                        or self._timers[0][0] > time.monotonic():
                    return
                __, __, fn, args = heapq.heappop(self._timers)
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - see _run
                pass

    def _flush_dirty(self) -> None:
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, set()
        for stream in dirty:
            stream.flush()

    def _teardown(self) -> None:
        for key in list(self._selector.get_map().values()):
            if key.fileobj not in (self._wake_recv, self._wake_send):
                _close_quietly(key.fileobj)  # type: ignore[arg-type]
        self._selector.close()
        _close_quietly(self._wake_recv)
        _close_quietly(self._wake_send)


class _LoopStream:
    """A non-blocking socket driven by the event loop: reads are sliced
    into GIOP frames for :meth:`on_frame`, and a write queue's flush
    coalesces queued frames into batched sends.  Anything that ends the
    stream — a read or write error, the peer closing, a header that is
    not GIOP — goes to :meth:`on_broken`."""

    def __init__(self, loop: _EventLoop, sock: socket.socket):
        self.loop = loop
        self.sock = sock
        self.buffer = FrameBuffer()
        self._out: deque[Frame] = deque()
        self._out_view: Optional[memoryview] = None
        self._write_interest = False
        self._stream_closed = False

    # Loop-thread only from here down.

    def register(self) -> None:
        if self._stream_closed:
            return
        self.loop.register_stream(self.sock, selectors.EVENT_READ,
                                  self._on_event)

    def _on_event(self, mask: int) -> None:
        if self._stream_closed:
            return
        if mask & selectors.EVENT_READ:
            self.on_readable()
        if mask & selectors.EVENT_WRITE and not self._stream_closed:
            self.flush()

    def on_readable(self) -> None:
        while True:
            try:
                chunk = self.sock.recv(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self.on_broken(exc)
                return
            if not chunk:
                self.on_broken(CommFailure("connection closed by peer"))
                return
            self.buffer.feed(chunk)
            if len(chunk) < _RECV_SIZE:
                break
        while not self._stream_closed:
            try:
                frame = self.buffer.next_frame()
            except MarshalError as exc:
                # Not a GIOP stream (or desynchronised): poisoned.
                self.on_broken(exc)
                return
            if frame is None:
                return
            self.on_frame(frame)

    def on_frame(self, frame: Frame) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def on_broken(self, cause: Exception) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def enqueue(self, data: Frame) -> None:
        if self._stream_closed:
            return
        self._out.append(data)
        self.loop.mark_dirty(self)

    def flush(self) -> None:
        """Write as much queued output as the socket accepts, frames
        batched: everything enqueued since the last flush leaves in as
        few ``send`` calls as ``batch_flush`` allows."""
        if self._stream_closed:
            return
        try:
            while True:
                if self._out_view is None:
                    if not self._out:
                        break
                    self._out_view = memoryview(self._next_batch())
                sent = self.sock.send(self._out_view)
                if sent == len(self._out_view):
                    self._out_view = None
                else:
                    # Kernel buffer full: keep the remainder for the
                    # next writability event.
                    self._out_view = self._out_view[sent:]
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError as exc:
            self.on_broken(exc)
            return
        self._set_write_interest(self._out_view is not None
                                 or bool(self._out))

    def _next_batch(self) -> bytes:
        if len(self._out) == 1:
            return _as_bytes(self._out.popleft())
        batch: list[bytes] = []
        size = 0
        while self._out and size < self.loop.batch_flush:
            piece = self._out.popleft()
            batch.append(_as_bytes(piece))
            size += len(piece)
        if len(batch) == 1:
            return batch[0]
        self.loop.metrics.record_batch(len(batch))
        return b"".join(batch)

    def _set_write_interest(self, want: bool) -> None:
        if want == self._write_interest or self._stream_closed:
            return
        self._write_interest = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        try:
            self.loop.modify_stream(self.sock, events, self._on_event)
        except (KeyError, ValueError, OSError):  # pragma: no cover
            pass

    def close_stream(self) -> None:
        if self._stream_closed:
            return
        self._stream_closed = True
        self.loop.unregister_stream(self.sock)
        _close_quietly(self.sock)
        self._out.clear()
        self._out_view = None


class _LoopServerConnection(_LoopStream):
    """One accepted server-side connection: each frame read is
    dispatched to the transport's worker pool; replies are posted back
    by the workers and leave through the batched flush."""

    def __init__(self, loop: _EventLoop, transport: "TcpTransport",
                 listener: "_LoopListener", sock: socket.socket):
        super().__init__(loop, sock)
        self.transport = transport
        self.listener = listener
        self.endpoint = listener.endpoint

    def on_frame(self, frame: Frame) -> None:
        self.transport._dispatch_loop_frame(self, frame)

    def on_broken(self, cause: Exception) -> None:
        self.close()

    def close(self) -> None:
        self.listener.connections.discard(self)
        self.close_stream()


class _LoopListener:
    """A non-blocking listening socket: accepts drain in one burst and
    each accepted connection joins the loop — no thread per client."""

    def __init__(self, loop: _EventLoop, transport: "TcpTransport",
                 endpoint: Endpoint, sock: socket.socket):
        self.loop = loop
        self.transport = transport
        self.endpoint = endpoint
        self.sock = sock
        self.connections: set[_LoopServerConnection] = set()
        self._closed = False

    def register(self) -> None:
        if not self._closed:
            self.loop.register_stream(self.sock, selectors.EVENT_READ,
                                      self._on_event)

    def _on_event(self, mask: int) -> None:
        while not self._closed:
            try:
                conn_sock, __ = self.sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            conn_sock.setblocking(False)
            try:
                conn_sock.setsockopt(socket.IPPROTO_TCP,
                                     socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - not fatal
                pass
            connection = _LoopServerConnection(self.loop, self.transport,
                                               self, conn_sock)
            self.connections.add(connection)
            connection.register()

    def close(self) -> None:
        """Loop-thread only (via call_soon_sync from unregister)."""
        if self._closed:
            return
        self._closed = True
        self.loop.unregister_stream(self.sock)
        _close_quietly(self.sock)
        for connection in list(self.connections):
            connection.close()
        self.connections.clear()


class _LoopChannel(_LoopStream):
    """One GIOP connection carrying multiple in-flight requests,
    multiplexed on the event loop.

    Callers ``submit`` a frame and receive a wait slot; the loop writes
    it, reads reply frames as they arrive — in whatever order the
    server finished them — and delivers each to the slot whose
    ``request_id`` it answers.  A read or write error, peer close, or
    unattributable frame kills the channel: every pending caller is
    failed with the same cause through its slot (their replies can no
    longer arrive on this stream), and the owning transport discards
    only this stripe.
    """

    def __init__(self, loop: _EventLoop, endpoint: Endpoint,
                 sock: socket.socket):
        super().__init__(loop, sock)
        self.endpoint = endpoint
        self._state_lock = threading.Lock()
        self._pending: dict[int, _PendingReply] = {}
        self._dead_cause: Optional[Exception] = None
        loop.call_soon(self.register)

    # ----------------------------------------------- channel API (any thread) --

    @property
    def dead(self) -> bool:
        return self._dead_cause is not None

    def in_flight(self) -> int:
        with self._state_lock:
            return len(self._pending)

    def submit(self, request_id: int,
               data: bytes) -> tuple[_PendingReply, int]:
        """Register *request_id* and queue *data* for the loop to send;
        returns the wait slot and the in-flight depth at submission
        (for metrics)."""
        slot = _PendingReply()
        with self._state_lock:
            if self._dead_cause is not None:
                raise _ChannelDead(self._dead_cause)
            if request_id in self._pending:
                raise _RequestIdBusy(request_id)
            self._pending[request_id] = slot
            depth = len(self._pending)
        self.loop.call_soon(self.enqueue, data)
        return slot, depth

    def cancel(self, request_id: int) -> None:
        """Stop waiting for *request_id* (stall timeout): a late reply
        for it will be read and dropped, keeping the stream in sync."""
        with self._state_lock:
            self._pending.pop(request_id, None)

    def close(self) -> None:
        self._kill(CommFailure(
            f"pipelined connection to {self.endpoint!r} closed"))

    def _kill(self, cause: Exception) -> None:
        """Any thread: fail every pending caller *now* (so checkout
        sees ``dead`` immediately), then tear the socket down on the
        loop thread where the selector lives."""
        with self._state_lock:
            if self._dead_cause is None:
                self._dead_cause = cause
            doomed = list(self._pending.values())
            self._pending.clear()
        for slot in doomed:
            slot.error = cause
            slot.event.set()
        if self.loop.running:
            self.loop.call_soon(self.close_stream)
        else:
            self.close_stream()

    # ------------------------------------------------------- loop thread --

    def on_frame(self, frame: Frame) -> None:
        request_id = peek_reply_id(frame)
        if request_id is None:
            self._kill(CommFailure(
                f"unattributable frame on pipelined connection to "
                f"{self.endpoint!r}"))
            return
        with self._state_lock:
            slot = self._pending.pop(request_id, None)
        if slot is not None:
            slot.frame = frame
            slot.event.set()
        # No slot: cancelled caller's late reply (or a frame behind the
        # one that killed us) — drop it.

    def on_broken(self, cause: Exception) -> None:
        self._kill(CommFailure(
            f"pipelined connection to {self.endpoint!r} broke: {cause}"))


class TcpTransport(Transport):
    """Real IIOP-over-TCP on localhost.

    Each registered endpoint gets its own threaded TCP server.  By
    default clients keep connections alive in a per-endpoint pool of at
    most *pool_size* spares: a request checks a connection out, does its
    round-trip, and checks it back in, so the steady state costs zero
    TCP handshakes.  A pooled connection that has gone stale (the server
    restarted, the peer dropped it) is discarded — and the request is
    retried once on a fresh connection **only when the current call is
    flagged idempotent** (see :mod:`repro.deadline`): once bytes went
    out on a connection, the server may already have applied the
    request, so a blind resend could execute it twice.  Non-idempotent
    calls surface the failure instead.  ``pooled=False`` restores the
    connect-per-call behaviour, which benches use as the baseline.

    The constructor's *timeout* is only the default: each ``send``
    bounds its socket timeout by the remaining budget of the calling
    thread's :class:`~repro.deadline.Deadline`, so a discovery query's
    total budget propagates down to every socket operation.

    ``loop=True`` (or ``REPRO_TRANSPORT_LOOP=1``) selects the
    event-loop I/O mode — every endpoint served from one loop thread
    instead of a server and a thread per connection; ``loop_workers``
    bounds the servant dispatch pool they share.  See
    ``docs/event-loop.md``.

    With ``pipelined=True`` the client side switches from one
    round-trip per checked-out connection to **GIOP request
    pipelining**: concurrent callers share *stripes* connections per
    endpoint, each carrying up to *pipeline_depth* requests in flight
    at once, with replies matched back to callers by ``request_id``
    (out-of-order reply delivery is allowed — a loop server dispatches
    concurrently and answers as it finishes).  Pipelined channels live
    on the event loop, so any pipelining mode is a loop transport and
    ``loop=False`` beside it is a ``ValueError``.  Requests that find
    every stripe at its depth cap overflow onto a dedicated serial
    round-trip rather than queueing.  A connection that dies
    mid-pipeline fails exactly the requests that were in flight *on
    it* — each caller gets its own failure, the idempotence gate
    decides per caller whether a resend is safe, and only the dead
    stripe is discarded (healthy sibling stripes keep their traffic).
    See ``docs/pipelining.md``.

    ``pipelined="auto"`` starts every endpoint serial and promotes it
    to striped pipelining permanently the first time two callers are
    observed in ``send`` to the same endpoint at once — the signal that
    a shared multiplexed connection beats per-caller round-trips.
    ``stripes``/``pipeline_depth`` then act as tuning hints for the
    promoted regime (``stripes`` defaults to 4 in auto mode).
    """

    _instance_seq = itertools.count(1)

    def __init__(self, host: str = "127.0.0.1", timeout: float = 5.0,
                 pooled: bool = True, pool_size: int = 8,
                 latency: float = 0.0,
                 pipelined: Union[bool, str] = False,
                 stripes: Optional[int] = None, pipeline_depth: int = 32,
                 loop: Optional[bool] = None, loop_workers: int = 6,
                 overload: Optional[OverloadPolicy] = None):
        if pipelined not in (False, True, "auto"):
            raise ValueError(
                f"pipelined must be False, True, or 'auto', "
                f"got {pipelined!r}")
        if pipelined and loop is not None and not loop:
            raise ValueError(
                f"pipelined={pipelined!r} needs the event loop (pipelined "
                f"channels live on it); loop=False only goes with "
                f"pipelined=False")
        self.host = host
        self.timeout = timeout
        self.pooled = pooled
        self.pipelined = pipelined
        #: Pipelined connections per endpoint; concurrent callers are
        #: spread across stripes by least-loaded choice, and a new
        #: stripe is only opened when every existing one is busy.
        #: Unset, it defaults to 1 — except in auto mode, where a
        #: promoted endpoint goes straight to 4-way striping.
        if stripes is None:
            stripes = 4 if pipelined == "auto" else 1
        self.stripes = max(1, int(stripes))
        #: Max requests in flight per pipelined connection.
        self.pipeline_depth = max(1, int(pipeline_depth))
        #: Simulated one-way WAN delay (seconds) applied server-side to
        #: every request.  The paper's federation spans Internet sites;
        #: loopback is the degenerate zero-latency case, so benches set
        #: this to model realistic inter-site RTTs.  In threaded mode
        #: the connection's handler sleeps (releasing the GIL, so other
        #: connections overlap the delay); in event-loop mode the reply
        #: is delayed on the loop's timer heap instead, so the wait
        #: occupies no worker thread at all.
        self.latency = latency
        #: Event-loop mode: always for a pipelining transport, else
        #: as asked, defaulting from ``REPRO_TRANSPORT_LOOP``.
        self.loop_enabled = bool(pipelined) or (
            _loop_default() if loop is None else bool(loop))
        self.loop_workers = max(1, int(loop_workers))
        #: Server-side admission control, defaulting from
        #: ``REPRO_SHEDDING``.  Disabled, the controller is never
        #: consulted and the dispatch paths are byte-identical to a
        #: transport built before it existed.
        if overload is None:
            overload = OverloadPolicy(shed=_shed_default())
        self.admission = AdmissionController(overload)
        self._pool = _ConnectionPool(max_idle=pool_size) if pooled else None
        self._channels: dict[Endpoint, list[_LoopChannel]] = {}
        self._channels_lock = threading.Lock()
        self._servers: dict[Endpoint, _GiopServer] = {}
        self._listeners: dict[Endpoint, _LoopListener] = {}
        self._handlers: dict[Endpoint, Handler] = {}
        self._lock = threading.RLock()
        self._auto_lock = threading.Lock()
        self._auto_inflight: dict[Endpoint, int] = {}
        self._auto_promoted: set[Endpoint] = set()
        self._seq = next(TcpTransport._instance_seq)
        self._loop_name = f"giop-loop-{self._seq}"
        self._worker_prefix = f"giop-exec-{self._seq}"
        self._event_loop: Optional[_EventLoop] = None
        self._workers: Optional[ThreadPoolExecutor] = None
        #: In-flight loop-worker dispatches, so close() can drain them
        #: with a bounded timeout instead of abandoning them mid-write.
        self._loop_futures: set[Future] = set()
        self._loop_lock = threading.Lock()
        self.metrics = TransportMetrics()

    def _ensure_loop(self) -> _EventLoop:
        with self._loop_lock:
            if self._event_loop is None or not self._event_loop.running:
                self._event_loop = _EventLoop(_BATCH_FLUSH, self.metrics,
                                              name=self._loop_name)
                self._workers = ThreadPoolExecutor(
                    max_workers=self.loop_workers,
                    thread_name_prefix=self._worker_prefix)
            return self._event_loop

    def register(self, endpoint: Endpoint, handler: Handler) -> Endpoint:
        # Logical hostnames ("dba.icis.qut.edu.au") are DNS names the
        # 1999 deployment resolved; on one machine every endpoint binds
        # the transport's local interface, and the OS-assigned port
        # keeps endpoints (and therefore IORs) distinct.
        __, port = endpoint
        if self.loop_enabled:
            return self._register_loop(port, handler)
        try:
            server = _GiopServer((self.host, port), _GiopRequestHandler)
        except OSError as exc:
            raise CommFailure(
                f"cannot bind {(self.host, port)!r}: {exc}") from exc
        server.transport = self  # type: ignore[attr-defined]
        bound = (self.host, server.server_address[1])
        with self._lock:
            self._servers[bound] = server
            self._handlers[bound] = handler
        thread = threading.Thread(target=server.serve_forever,
                                  name=f"giop-{bound[1]}", daemon=True)
        thread.start()
        return bound

    def _register_loop(self, port: int, handler: Handler) -> Endpoint:
        # Bind synchronously (so the OS-assigned port is known before
        # returning), then hand the listener to the loop to accept on.
        loop = self._ensure_loop()
        try:
            sock = socket.create_server((self.host, port),
                                        backlog=_LOOP_BACKLOG)
        except OSError as exc:
            raise CommFailure(
                f"cannot bind {(self.host, port)!r}: {exc}") from exc
        sock.setblocking(False)
        bound = (self.host, sock.getsockname()[1])
        listener = _LoopListener(loop, self, bound, sock)
        with self._lock:
            self._listeners[bound] = listener
            self._handlers[bound] = handler
        loop.call_soon(listener.register)
        return bound

    def handler_for(self, endpoint: Endpoint) -> Optional[Handler]:
        with self._lock:
            return self._handlers.get(endpoint)

    def unregister(self, endpoint: Endpoint) -> None:
        with self._lock:
            server = self._servers.pop(endpoint, None)
            listener = self._listeners.pop(endpoint, None)
            self._handlers.pop(endpoint, None)
        if self._pool is not None:
            self._pool.discard(endpoint)
        with self._channels_lock:
            channels = self._channels.pop(endpoint, [])
        for channel in channels:
            channel.close()
        if server is not None:
            server.shutdown()
            server.server_close()
        if listener is not None and self._event_loop is not None:
            self._event_loop.call_soon_sync(listener.close)

    # ---------------------------------------------------- event-loop server --

    def _dispatch_loop_frame(self, connection: _LoopServerConnection,
                             frame: Frame) -> None:
        """Loop thread: hand one decoded-off-the-wire frame to the
        worker pool.  The loop never runs servant code itself — and
        admission control runs *here*, so shed requests cost the loop a
        service-context peek instead of a worker-pool slot."""
        handler = self.handler_for(connection.endpoint)
        if handler is None or self._workers is None:
            connection.close()
            return
        ticket = None
        if self.admission.enabled:
            budget, traffic_class = peek_request_admission(frame)
            ticket, reason = self.admission.enqueue(budget, traffic_class)
            if reason is not None:
                self.metrics.record_shed(reason)
                shed_reply = busy_reply(frame, reason)
                if shed_reply is not None:
                    connection.enqueue(shed_reply)
                return
        try:
            future = self._workers.submit(self._serve_loop_frame,
                                          connection, handler, frame,
                                          ticket)
        except RuntimeError:  # pool shut down mid-close
            if ticket is not None:
                self.admission.abandon(ticket)
            connection.close()
            return
        self._loop_futures.add(future)

        # A future cancelled by ``close()``'s
        # shutdown(cancel_futures=True) never reaches
        # ``_serve_loop_frame``, so its admission slot must be released
        # here — in the callback, not in a sweep after shutdown, which
        # would race this very discard — or it leaks on the shared
        # controller.
        def _settle(f: Future, t=ticket) -> None:
            self._loop_futures.discard(f)
            if t is not None and f.cancelled():
                self.admission.abandon(t)

        future.add_done_callback(_settle)

    def _serve_loop_frame(self, connection: _LoopServerConnection,
                          handler: Handler, frame: Frame,
                          ticket=None) -> None:
        """Worker thread: run the servant, post the reply back to the
        loop.  The modelled WAN ``latency`` is applied as a timer delay
        on the reply rather than a worker sleep — a storm of delayed
        requests parks on the loop's heap, not on scarce threads."""
        loop = self._event_loop
        if ticket is not None:
            reason = self.admission.dequeue(ticket)
            if reason is not None:
                self.metrics.record_shed(reason)
                shed_reply = busy_reply(frame, reason)
                if shed_reply is not None and loop is not None:
                    loop.call_soon(connection.enqueue, shed_reply)
                return
        try:
            reply = handler(frame)
        except Exception:  # noqa: BLE001 - undecodable frame: the
            if loop is not None:  # stream is poisoned, drop it
                loop.call_soon(connection.close)
            return
        if reply and loop is not None:
            if self.latency > 0:
                loop.call_later(self.latency, connection.enqueue, reply)
            else:
                loop.call_soon(connection.enqueue, reply)

    def server_thread_count(self) -> int:
        """OS threads this transport's event-loop server side is using
        (the loop plus started workers) — what the storm bench bounds."""
        return sum(1 for thread in threading.enumerate()
                   if thread.name == self._loop_name
                   or thread.name.startswith(self._worker_prefix))

    def _roundtrip(self, connection: socket.socket, data: bytes) -> bytes:
        connection.sendall(data)
        return read_giop_frame(connection)

    def _effective_timeout(self) -> tuple[float, Optional[Deadline]]:
        """Socket timeout for this call: the constructor default,
        tightened to the calling thread's remaining deadline budget."""
        deadline = current_policy().deadline
        if deadline is None:
            return self.timeout, None
        return min(self.timeout, deadline.require("IIOP request")), deadline

    def send(self, endpoint: Endpoint, data: bytes) -> bytes:
        timeout, deadline = self._effective_timeout()
        # First attempts refill the caller's retry budget per endpoint;
        # transparent resends (stale pool, dead stripe) draw it down.
        # A send re-entered by a policy-level retry (attempt > 1) is
        # itself a retry, not a first attempt: refilling for it would
        # let retry-heavy traffic mint the tokens funding its own
        # retries, overstating the ratio cap.
        policy = current_policy()
        budget = policy.retry_budget
        if budget is not None and policy.attempt == 1:
            budget.note_attempt(f"{endpoint[0]}:{endpoint[1]}")
        use_pipeline = self.pipelined is True
        tracking_auto = False
        if self.pipelined == "auto":
            use_pipeline, tracking_auto = self._auto_enter(endpoint)
        try:
            if use_pipeline:
                request_id, response_expected = peek_request(data)
                if request_id is not None:
                    return self._send_pipelined(endpoint, data, request_id,
                                                response_expected, timeout,
                                                deadline)
                # Frames without a request id cannot be matched to a
                # reply: give them a dedicated serial round-trip.
            return self._send_serial(endpoint, data, timeout, deadline)
        finally:
            if tracking_auto:
                self._auto_leave(endpoint)

    def _auto_enter(self, endpoint: Endpoint) -> tuple[bool, bool]:
        """Auto mode, on the way into ``send``: returns
        ``(use_pipeline, tracking)``.  An endpoint not yet promoted has
        its concurrent-sender count bumped; reaching the threshold
        promotes it permanently (including for this very call)."""
        with self._auto_lock:
            if endpoint in self._auto_promoted:
                return True, False
            depth = self._auto_inflight.get(endpoint, 0) + 1
            self._auto_inflight[endpoint] = depth
            if depth < _AUTO_PROMOTE_AT:
                return False, True
            self._auto_promoted.add(endpoint)
        self.metrics.record_auto_promotion()
        return True, True

    def _auto_leave(self, endpoint: Endpoint) -> None:
        with self._auto_lock:
            remaining = self._auto_inflight.get(endpoint, 0) - 1
            if remaining > 0:
                self._auto_inflight[endpoint] = remaining
            else:
                self._auto_inflight.pop(endpoint, None)

    def pipelining_active(self, endpoint: Endpoint) -> bool:
        """Whether requests to *endpoint* currently pipeline (always in
        ``pipelined=True`` mode; in auto mode, once promoted)."""
        if self.pipelined is True:
            return True
        if self.pipelined != "auto":
            return False
        with self._auto_lock:
            return endpoint in self._auto_promoted

    def _send_serial(self, endpoint: Endpoint, data: bytes,
                     timeout: float, deadline: Optional[Deadline]) -> bytes:
        if self._pool is not None:
            pooled = self._pool.checkout(endpoint)
            if pooled is not None:
                try:
                    pooled.settimeout(timeout)
                    reply = self._roundtrip(pooled, data)
                except (OSError, CommFailure) as exc:
                    # Stale keep-alive connection.  The request may
                    # already have gone out on it — the server could
                    # have applied it and only the reply been lost —
                    # so resending on a fresh connection is gated on
                    # the caller having declared this call idempotent
                    # (the metadata reads of the discovery hot path).
                    _close_quietly(pooled)
                    self._gate_resend(endpoint, exc, deadline)
                else:
                    self._pool.checkin(endpoint, pooled)
                    self.metrics.record_connection(reused=True)
                    self.metrics.record(endpoint, len(data), len(reply))
                    return reply
        try:
            connection = socket.create_connection(endpoint,
                                                  timeout=timeout)
        except OSError as exc:
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"IIOP connect to {endpoint!r} overran its deadline: "
                    f"{exc}") from exc
            raise CommFailure(
                f"IIOP connect to {endpoint!r} failed: {exc}") from exc
        try:
            reply = self._roundtrip(connection, data)
        except (OSError, CommFailure) as exc:
            _close_quietly(connection)
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"IIOP request to {endpoint!r} overran its deadline: "
                    f"{exc}") from exc
            raise CommFailure(
                f"IIOP send to {endpoint!r} failed: {exc}") from exc
        if self._pool is not None:
            self._pool.checkin(endpoint, connection)
        else:
            _close_quietly(connection)
        self.metrics.record_connection(reused=False)
        self.metrics.record(endpoint, len(data), len(reply))
        return reply

    # ------------------------------------------------------- pipelined client --

    def _send_pipelined(self, endpoint: Endpoint, data: bytes,
                        request_id: int, response_expected: bool,
                        timeout: float,
                        deadline: Optional[Deadline]) -> bytes:
        """One request through a shared pipelined connection.

        Mirrors the serial path's resend contract: a failure *after*
        the request's bytes may have gone out is only retried (once, on
        a fresh serial connection) when the caller declared the call
        idempotent; a failure *before* anything was sent is freely
        retried on a sibling stripe.
        """
        attempts = 0
        while True:
            attempts += 1
            channel, opened = self._checkout_channel(endpoint, timeout,
                                                     deadline)
            if channel is None:
                # Every stripe is at its depth cap: overflow to a
                # dedicated serial round-trip instead of queueing.
                self.metrics.record_overflow()
                return self._send_serial(endpoint, data, timeout, deadline)
            try:
                slot, depth = channel.submit(request_id, data)
            except _RequestIdBusy:
                # Another caller already has this id in flight here
                # (hand-crafted frames can collide); never cross wires.
                return self._send_serial(endpoint, data, timeout, deadline)
            except _ChannelDead as exc:
                # Died before our bytes went out: a sibling (or fresh)
                # stripe is always safe to try.
                self._drop_channel(endpoint, channel)
                if attempts <= self.stripes + 1:
                    continue
                raise CommFailure(
                    f"no live pipelined connection to {endpoint!r}: "
                    f"{exc.cause}") from exc.cause
            break
        self.metrics.record_connection(reused=not opened)
        self.metrics.record_pipeline(depth)
        if not response_expected:
            self.metrics.record(endpoint, len(data), 0)
            return b""
        if not slot.event.wait(timeout):
            channel.cancel(request_id)
            if slot.frame is not None:  # delivered in the cancel race
                self.metrics.record(endpoint, len(data), len(slot.frame))
                return _as_bytes(slot.frame)
            self.metrics.record_stall()
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"pipelined IIOP request {request_id} to {endpoint!r} "
                    f"overran its deadline (no matching reply within "
                    f"{timeout:.3f}s)")
            raise CommFailure(
                f"pipeline stall: no reply for request {request_id} from "
                f"{endpoint!r} within {timeout:.3f}s")
        if slot.error is not None:
            # The connection died with our request in flight.  Only
            # this stripe is discarded; whether a resend is safe is the
            # caller's (idempotence) call, exactly as for a stale
            # pooled connection.
            self._drop_channel(endpoint, channel)
            self._gate_resend(endpoint, slot.error, deadline)
            return self._send_serial(endpoint, data, timeout, deadline)
        reply = _as_bytes(slot.frame) if slot.frame is not None else b""
        self.metrics.record(endpoint, len(data), len(reply))
        return reply

    def _checkout_channel(self, endpoint: Endpoint, timeout: float,
                          deadline: Optional[Deadline]
                          ) -> tuple[Optional[_LoopChannel], bool]:
        """The least-loaded live stripe for *endpoint* (opening a new
        one while under the stripe cap and all existing stripes are
        busy), as ``(channel, opened)``.  ``(None, False)`` means every
        stripe is at :attr:`pipeline_depth` (overflow)."""
        with self._channels_lock:
            channels = [channel
                        for channel in self._channels.get(endpoint, ())
                        if not channel.dead]
            self._channels[endpoint] = channels
            best = min(channels, key=lambda channel: channel.in_flight(),
                       default=None)
            if best is not None:
                load = best.in_flight()
                if load == 0 or len(channels) >= self.stripes:
                    if load >= self.pipeline_depth:
                        return None, False
                    return best, False
            try:
                connection = socket.create_connection(endpoint,
                                                      timeout=timeout)
            except OSError as exc:
                if deadline is not None and deadline.expired:
                    raise DeadlineExceeded(
                        f"IIOP connect to {endpoint!r} overran its "
                        f"deadline: {exc}") from exc
                raise CommFailure(
                    f"IIOP connect to {endpoint!r} failed: {exc}") from exc
            connection.setblocking(False)
            try:
                connection.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - not fatal
                pass
            channel = _LoopChannel(self._ensure_loop(), endpoint,
                                   connection)
            channels.append(channel)
            return channel, True

    def _drop_channel(self, endpoint: Endpoint,
                      channel: _LoopChannel) -> None:
        """Discard one dead stripe.  Healthy sibling stripes — and the
        requests in flight on them — are untouched."""
        with self._channels_lock:
            channels = self._channels.get(endpoint)
            if channels and channel in channels:
                channels.remove(channel)
        channel.close()

    def _gate_resend(self, endpoint: Endpoint, cause: Exception,
                     deadline: Optional[Deadline]) -> None:
        """Raise unless the current call may be resent: the request may
        already have executed server-side, so only an idempotence vouch
        (see :mod:`repro.deadline`) permits a second copy — and it
        costs one retry token: even "free" transport retries must stay
        inside the caller's retry budget, or a busy endpoint sees its
        offered load multiply exactly when it can least afford it."""
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"IIOP request to {endpoint!r} overran its deadline: "
                f"{cause}") from cause
        policy = current_policy()
        if not policy.idempotent:
            raise CommFailure(
                f"IIOP send to {endpoint!r} failed on a connection "
                f"already written to; not resending a non-idempotent "
                f"request ({cause})") from cause
        budget = policy.retry_budget
        if budget is not None \
                and not budget.try_acquire(f"{endpoint[0]}:{endpoint[1]}"):
            raise CommFailure(
                f"retry budget exhausted for {endpoint!r}; not resending "
                f"({cause})") from cause

    def stripe_count(self, endpoint: Endpoint) -> int:
        """Live pipelined connections to *endpoint* (tests, tuning)."""
        with self._channels_lock:
            return sum(1 for channel in self._channels.get(endpoint, ())
                       if not channel.dead)

    def pipeline_in_flight(self, endpoint: Endpoint) -> int:
        """Requests currently in flight across *endpoint*'s stripes."""
        with self._channels_lock:
            return sum(channel.in_flight()
                       for channel in self._channels.get(endpoint, ())
                       if not channel.dead)

    def idle_connections(self, endpoint: Optional[Endpoint] = None) -> int:
        """Spare pooled connections (for tests and pool tuning)."""
        if self._pool is None:
            return 0
        return self._pool.idle_count(endpoint)

    def close(self) -> None:
        """Shut down every server this transport started."""
        if self._pool is not None:
            self._pool.close()
        with self._channels_lock:
            channels = [channel for stripes in self._channels.values()
                        for channel in stripes]
            self._channels.clear()
        for channel in channels:
            channel.close()
        for endpoint in list(self._servers) + list(self._listeners):
            self.unregister(endpoint)
        with self._loop_lock:
            loop, self._event_loop = self._event_loop, None
            workers, self._workers = self._workers, None
        if workers is not None:
            # Drain, don't abandon: a dispatch already running may
            # hold servant-side locks (journal group commit, the
            # registry lock) — give it a bounded window to finish.
            # Queued-but-unstarted frames are cancelled: their callers'
            # connections are gone, the work is dead, and each one's
            # done-callback hands its admission ticket back.
            workers.shutdown(wait=False, cancel_futures=True)
            pending = [future for future in list(self._loop_futures)
                       if not future.done()]
            if pending:
                _wait_futures(pending, timeout=_DRAIN_TIMEOUT)
        if loop is not None:
            loop.stop()
