"""Transports carrying GIOP messages between ORBs.

Two interchangeable transports:

* :class:`InMemoryNetwork` — a process-local IIOP fabric.  Endpoints
  register handlers; requests are delivered synchronously as *bytes*
  (messages are genuinely marshalled, so the full encode/decode path is
  exercised) while message and byte counters accumulate for
  ``system.metrics()`` and the budget benchmark's in-memory workloads.
* :class:`TcpTransport` — real IIOP-over-TCP on the loopback interface,
  framing messages with the GIOP header's size field.  A client sends
  one request at a time on a connection it checks out of a per-endpoint
  keep-alive pool (CORBA 2.0 permits either connection reuse or
  per-call connections).  Every endpoint is served by one event loop
  (:class:`_EventLoop`, ``docs/event-loop.md``): frames arriving on one
  connection — a foreign client may write several back to back — are
  dispatched concurrently and answered as they finish, since GIOP
  matches a reply to its request by id.

Both expose the same two operations: ``register`` a server endpoint and
``send`` a request to an endpoint, returning the reply bytes.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Union

from repro.deadline import Deadline, current_policy
from repro.errors import CommFailure, DeadlineExceeded, MarshalError
from repro.orb.giop import (HEADER_SIZE, busy_reply, peek_frame_size,
                            peek_request, peek_request_admission)
from repro.orb.overload import (AdmissionController, AdmissionTicket,
                                OverloadPolicy)

#: A server-side message handler: request bytes in, reply bytes out
#: (None for oneway messages).
Handler = Callable[[bytes], Optional[bytes]]

Endpoint = tuple[str, int]


@dataclass
class TransportMetrics:
    """Counters accumulated by a transport, consumed by benchmarks.

    Transports serve many client threads at once (the event loop's
    threads on the server side, concurrent sessions on the client
    side), so every update happens under one lock — unlocked ``+=`` on
    these counters loses increments under contention.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    per_endpoint: dict[Endpoint, int] = field(default_factory=dict)
    #: TCP connection accounting (always zero on the in-memory fabric).
    connections_opened: int = 0
    connections_reused: int = 0
    #: Admission control: requests shed under overload (queue cap,
    #: brownout, CoDel sojourn) and requests dropped because their
    #: caller's deadline budget was already spent — each answered with
    #: a BUSY reply instead of a servant dispatch.
    requests_shed: int = 0
    requests_expired: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, endpoint: Endpoint, request_size: int,
               reply_size: int, reused: Optional[bool] = None) -> None:
        """One message exchanged; *reused* (TCP only) says whether it
        went out on a pooled connection or a freshly opened one."""
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += request_size
            self.bytes_received += reply_size
            self.per_endpoint[endpoint] = \
                self.per_endpoint.get(endpoint, 0) + 1
            if reused is not None:
                if reused:
                    self.connections_reused += 1
                else:
                    self.connections_opened += 1

    def record_shed(self, reason: str) -> None:
        with self._lock:
            if reason == "deadline":
                self.requests_expired += 1
            else:
                self.requests_shed += 1

    def snapshot(self) -> dict[str, Any]:
        """All counters, read atomically under the lock.

        Field-by-field reads can tear across a concurrent update (the
        poller recording a shed while a client records a message);
        benchmarks and tests that compare related counters should read
        one snapshot instead.
        """
        with self._lock:
            snapshot: dict[str, Any] = {
                name: getattr(self, name) for name in _COUNTERS}
            snapshot["per_endpoint"] = {
                f"{host}:{port}": count
                for (host, port), count in self.per_endpoint.items()}
            return snapshot

    def reset(self) -> None:
        with self._lock:
            for name in _COUNTERS:
                setattr(self, name, 0)
            self.per_endpoint.clear()


#: The integer counters of :class:`TransportMetrics`, in declaration order.
_COUNTERS = tuple(spec.name for spec in fields(TransportMetrics)
                  if spec.type == "int")


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
        #: Copy-on-write: ``register`` / ``unregister`` swap in a new
        #: table under the lock, so ``send`` reads whichever whole table
        #: is current without taking it.
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
            self._handlers = {**self._handlers, endpoint: handler}
        return endpoint

    def unregister(self, endpoint: Endpoint) -> None:
        with self._lock:
            handlers = dict(self._handlers)
            handlers.pop(endpoint, None)
            self._handlers = handlers

    def send(self, endpoint: Endpoint, data: bytes) -> bytes:
        handler = self._handlers.get(endpoint)
        if handler is None:
            raise CommFailure(f"connection refused: {endpoint!r}")
        reply = handler(data)
        if reply is None:
            reply = b""
        self.metrics.record(endpoint, len(data), len(reply))
        return reply


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


def read_giop_frame(connection: socket.socket,
                    received: bytes = b"") -> bytes:
    """Read one GIOP message (header + body) from a socket.

    *received* holds the frame's first octets when the caller already
    read them; only what is missing is read.  A header that is not GIOP
    (bad magic, a body over ``MAX_FRAME_BODY``) and octets past the
    frame are a ``CommFailure``: a serial client has exactly one frame
    due, so either means the stream is desynchronised.
    """
    header = received
    if len(header) < HEADER_SIZE:
        header += _read_exact(connection, HEADER_SIZE - len(header))
    try:
        missing = peek_frame_size(header) - len(header)
    except MarshalError as exc:
        raise CommFailure(f"not a GIOP reply: {exc}") from exc
    if missing > 0:
        return header + _read_exact(connection, missing)
    if missing < 0:
        raise CommFailure(f"{-missing} octets past the GIOP frame")
    return header


def _close_quietly(connection: socket.socket) -> None:
    try:
        connection.close()
    except OSError:  # pragma: no cover - close failures are ignorable
        pass


def _connect(endpoint: Endpoint, timeout: float,
             deadline: Optional[Deadline]) -> socket.socket:
    """A fresh client connection; a failure is ``DeadlineExceeded`` once
    the caller's budget is spent, ``CommFailure`` otherwise."""
    try:
        return socket.create_connection(endpoint, timeout=timeout)
    except OSError as exc:
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"IIOP connect to {endpoint!r} overran its deadline: "
                f"{exc}") from exc
        raise CommFailure(
            f"IIOP connect to {endpoint!r} failed: {exc}") from exc


def _make_nonblocking(connection: socket.socket) -> None:
    """Ready a socket for the event loop: non-blocking, and
    ``TCP_NODELAY`` (each reply goes out in one ``send``, so Nagle
    could only delay it)."""
    connection.setblocking(False)
    try:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - not fatal
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


#: How long transport teardown waits for in-flight servant dispatches
#: before giving up on them: long enough for a journal group commit,
#: short enough that closing a transport never hangs a test run.
_DRAIN_TIMEOUT = 2.0

#: Lazy promotion (:class:`_EventLoop`): how long a servant may run
#: inline on the thread that read its request, the selector unattended,
#: before a spare takes the selector over.  It bounds how late another
#: connection's request is read while a servant blocks, and is the
#: watching spare's timed-wait period.
_WATCH_INTERVAL = 0.010

#: How long after the last inline dispatch a spare keeps watching with
#: timed waits.  Past it the spare waits untimed, so an idle loop makes
#: no periodic wakeups; the next inline dispatch notifies it once.
_WATCH_LINGER = 0.100


class _ConnectionPool:
    """Idle keep-alive connections, bounded per endpoint.

    ``checkout`` hands an idle connection to exactly one caller (or
    None); ``checkin`` returns it, closing it instead when the endpoint
    already holds ``max_idle`` spares or the pool is closed.
    """

    def __init__(self, max_idle: int):
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


#: How much one recv pulls off a socket on the framed read paths.  Kept
#: under glibc's initial 128 KiB mmap threshold: ``recv`` allocates a
#: ``bytes`` of this size up front, and a larger one is an mmap/munmap
#: pair per call (≈ 15 µs) until the process happens to free a block
#: that large and the threshold rises.
_RECV_SIZE = 64 * 1024


#: Listen backlog for every endpoint.  The loop drains accepts in a
#: tight non-blocking burst, so a storm of connecting clients (many
#: concurrent sessions) queues here instead of hitting kernel SYN
#: retransmit timers.
_LOOP_BACKLOG = 512

#: Idle keep-alive connections a client keeps per endpoint.  More
#: concurrent callers than this still each get a connection; only this
#: many are kept for reuse once they finish.
_POOL_SIZE = 8


#: One servant dispatch waiting for a thread: ``(run, cancel)``, where
#: *cancel* hands back whatever the dispatch held if it is dropped
#: unrun.
_Job = tuple[Callable[[], None], Callable[[], None]]


class _LoopThread(threading.Thread):
    """A thread of one :class:`_EventLoop`.  It knows its loop, so a
    servant that calls out through any ``TcpTransport`` can hand the
    selector on before it blocks (:meth:`_EventLoop.release_selector`)."""

    def __init__(self, loop: "_EventLoop", name: str):
        super().__init__(target=loop._serve, name=name, daemon=True)
        self.loop = loop


class _EventLoop:
    """One ``selectors`` selector demultiplexing every server socket the
    transport owns — listeners and accepted connections — served by
    threads in the *leader/followers* pattern with lazy promotion.
    Client connections stay off it: a caller writes its request and
    reads the reply on its own blocking socket.

    One thread at a time, the **poller** (``_poller``), owns the
    selector.  A request frame it reads becomes a servant *job*; the
    poller takes the job, leaves the selector unattended (``_inline``)
    and runs the servant itself, waking nobody.  When the servant is
    done the same thread takes the selector back — no context switch
    between a request and the next ``select``.  A **spare** thread
    watches an unattended selector with timed waits of
    ``_WATCH_INTERVAL`` and takes it over once a servant has run that
    long, so a blocked servant delays another connection's request by
    at most that interval; a servant about to block in an outbound call
    hands the selector on at once.  At most *servants* jobs run at once
    (more wait in a FIFO that finishing threads drain), and the pool
    grows lazily to ``servants + 1`` threads, so a spare always exists.

    Other threads reach the poller through :meth:`call_soon` (a callback
    plus a socketpair wakeup); every selector change is made on the
    poller.  Each poller iteration handles ready I/O, then callbacks.
    """

    def __init__(self, name: str = "giop-loop", servants: int = 1):
        self._selector = selectors.DefaultSelector()
        wake_recv, wake_send = socket.socketpair()
        wake_recv.setblocking(False)
        wake_send.setblocking(False)
        self._wake_recv, self._wake_send = wake_recv, wake_send
        self._selector.register(wake_recv, selectors.EVENT_READ,
                                self._drain_wakeups)
        #: Appended by any thread, popped by the poller alone (deque
        #: appends and pops are atomic, so no lock).
        self._callbacks: deque[tuple[Callable, tuple]] = deque()
        self._running = True
        self._name = name
        self._servants = max(1, servants)
        #: Guards the job FIFO, the selector roles and the thread
        #: accounting below.  Spares wait on ``_spares``, ``drain`` on
        #: ``_drained``: one shared condition would wake the spare at
        #: every job's end.
        self._lock = threading.Lock()
        self._spares = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        #: The thread in or around ``select`` (None while unattended).
        self._poller: Optional[threading.Thread] = None
        #: The thread serving inline that will take the selector back
        #: when its servant is done, and when it left the selector.
        self._inline: Optional[threading.Thread] = None
        self._inline_since = -_WATCH_LINGER
        #: The one spare making timed waits (the others wait untimed).
        self._watcher: Optional[threading.Thread] = None
        self._jobs: deque[_Job] = deque()
        self._threads: list[threading.Thread] = []
        self._working: set[threading.Thread] = set()
        self._torn_down = False
        with self._lock:
            self._spawn()

    @property
    def running(self) -> bool:
        return self._running

    def on_loop_thread(self) -> bool:
        """Whether the calling thread is the current poller."""
        return threading.current_thread() is self._poller

    def thread_count(self) -> int:
        with self._lock:
            return len(self._threads)

    # ------------------------------------------------- cross-thread entry --

    def call_soon(self, fn: Callable, *args: Any) -> None:
        self._callbacks.append((fn, args))
        self._wake()
        if self._poller is None:
            self._free_selector()  # nobody is in select to run it

    def call_soon_sync(self, fn: Callable, *args: Any,
                       timeout: float = 5.0) -> Any:
        """Run *fn* on the poller and wait for its result.  Falls back
        to running inline when the loop is already stopped (then nothing
        else touches the selector concurrently)."""
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

    def release_selector(self, thread: threading.Thread) -> None:
        """*thread*, a loop thread, is about to block in an outbound
        call: if it left the selector to serve inline, a spare takes
        the selector now instead of ``_WATCH_INTERVAL`` later — a
        nested call into this same loop must never wait that out."""
        if self._inline is thread:
            self._free_selector()

    def cancel_jobs(self) -> None:
        """Drop every job still waiting for a thread, running each one's
        *cancel* (running jobs are untouched)."""
        with self._lock:
            doomed, self._jobs = self._jobs, deque()
        for __, cancel in doomed:
            cancel()

    def drain(self, timeout: float) -> None:
        """Wait up to *timeout* seconds for running jobs to finish."""
        with self._lock:
            self._drained.wait_for(lambda: not self._working, timeout)

    def stop(self) -> None:
        """Stop polling and tear the selector down.  Threads still inside
        a servant are not waited for: they find their streams closed."""
        if not self._running:
            return
        self._running = False
        self._wake()
        with self._lock:
            self._spares.notify_all()
            if threading.current_thread() in self._threads:
                return  # the last thread out tears down (see _serve)
            idle = [thread for thread in self._threads
                    if thread not in self._working]
        for thread in idle:
            thread.join(timeout=5.0)
        self._teardown()

    # ---------------------------------------------------- poller only --

    def dispatch(self, run: Callable[[], None],
                 cancel: Callable[[], None]) -> None:
        """Queue one servant job; the poller takes it at the end of its
        iteration, or a finishing thread or the watching spare soon
        after (nobody is woken for it)."""
        with self._lock:
            self._jobs.append((run, cancel))

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

    # ------------------------------------------------------- internals --

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

    def _spawn(self) -> None:
        """Start one more thread (under ``_lock``); it begins as a
        spare."""
        thread = _LoopThread(self, f"{self._name}_{len(self._threads)}")
        self._threads.append(thread)
        thread.start()

    def _free_selector(self) -> None:
        """Give up an inline thread's claim on an unattended selector
        and wake a spare to take it."""
        with self._lock:
            if self._poller is None:
                self._inline = None
                self._spares.notify()

    def _serve(self) -> None:
        me = threading.current_thread()
        with self._lock:
            polling = self._stand_by(me)
        while polling:
            job = self._poll_until_job(me)
            if job is None:
                break  # stopped
            while job is not None:
                try:
                    job[0]()
                except Exception:  # noqa: BLE001 - see _poll
                    pass
                with self._lock:
                    job = self._finish_job(me)
                    if job is None:
                        polling = self._stand_by(me)
        with self._lock:
            self._threads.remove(me)
            if self._poller is me:
                self._poller = None
            last = not self._threads
        if last:
            self._teardown()

    def _poll_until_job(self, me: threading.Thread) -> Optional[_Job]:
        """Own the selector until a job can be served on this thread:
        return it, the selector left unattended, or None once the loop
        stops."""
        while self._running:
            if self._jobs:
                job = self._take_job(me)
                if job is not None:
                    return job
            self._poll()
        return None

    def _take_job(self, me: threading.Thread) -> Optional[_Job]:
        """Poller: claim the next job if a servant slot is free, leaving
        the selector to a spare only if this thread is slow to return."""
        with self._lock:
            if not self._jobs or len(self._working) >= self._servants \
                    or not self._running:
                return None
            self._working.add(me)
            self._poller = None
            self._inline = me
            self._inline_since = time.monotonic()
            if len(self._working) == len(self._threads):
                self._spawn()  # nobody left to watch: grow
            elif self._watcher is None:
                self._spares.notify()
            return self._jobs.popleft()

    def _finish_job(self, me: threading.Thread) -> Optional[_Job]:
        """Under ``_lock``: the next queued job for *me*, or None with
        *me* no longer counted as working."""
        if self._jobs and self._running:
            return self._jobs.popleft()
        self._working.discard(me)
        if not self._working:
            self._drained.notify_all()
        return None

    def _stand_by(self, me: threading.Thread) -> bool:
        """Under ``_lock``: wait as a spare until *me* takes the
        selector (True) or the loop stops (False).

        The selector is *me*'s when nobody polls and nobody is serving
        inline, when *me* itself left it to serve inline, or when the
        inline servant has run ``_WATCH_INTERVAL``.  One spare — the
        watcher — checks with timed waits while the loop has served
        inline within ``_WATCH_LINGER``; past that it, like every other
        spare, waits untimed until :meth:`_take_job` or
        :meth:`_free_selector` notifies it."""
        while self._running:
            now = time.monotonic()
            inline = self._inline
            if self._poller is None and (
                    inline is None or inline is me
                    or now - self._inline_since >= _WATCH_INTERVAL):
                self._poller, self._inline = me, None
                if self._watcher is me:
                    self._watcher = None
                return True
            hot = inline is not None \
                or now - self._inline_since < _WATCH_LINGER
            if self._watcher is None and hot:
                self._watcher = me
            if self._watcher is not me:
                self._spares.wait()
            elif inline is not None:
                self._spares.wait(
                    self._inline_since + _WATCH_INTERVAL - now)
            elif hot:
                self._spares.wait(_WATCH_INTERVAL)
            else:
                self._watcher = None
                self._spares.wait()
        if self._watcher is me:
            self._watcher = None
        return False

    def _poll(self) -> None:
        """One poller iteration: ready I/O, then callbacks.  A callback
        appended after the peek at the queue has written a wakeup, so
        ``select`` returns for it."""
        timeout = 0.0 if self._callbacks else None
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

    def _run_callbacks(self) -> None:
        while self._callbacks:
            fn, args = self._callbacks.popleft()
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - see _poll
                pass

    def _teardown(self) -> None:
        with self._lock:
            if self._torn_down:
                return
            self._torn_down = True
        for key in list(self._selector.get_map().values()):
            if key.fileobj not in (self._wake_recv, self._wake_send):
                _close_quietly(key.fileobj)  # type: ignore[arg-type]
        self._selector.close()
        _close_quietly(self._wake_recv)
        _close_quietly(self._wake_send)


class _LoopServerConnection:
    """One accepted server-side connection, a non-blocking socket on the
    event loop.  The poller slices its reads into GIOP frames, and each
    frame becomes a servant job; the thread that runs the job writes
    the reply itself (:meth:`write`; ``_write_lock`` keeps whole frames
    whole when replies to back-to-back requests race).  What the socket
    does not take goes into ``_pending``, the connection's one output
    queue, which the poller sends as the socket drains — a servant
    never waits on a slow peer.  Anything that ends the stream — a read
    or write error, the peer closing, a header that is not GIOP —
    closes the connection."""

    def __init__(self, listener: "_LoopListener", sock: socket.socket):
        self.listener = listener
        self.loop = listener.loop
        self.sock = sock
        self.buffer = FrameBuffer()
        self._pending = bytearray()
        self._write_interest = False
        self._closed = False
        self._write_lock = threading.Lock()

    def write(self, data: bytes) -> None:
        """Any thread: send *data* now unless output is pending, in
        which case it queues behind; whatever the socket did not take
        waits for the poller's next writability event."""
        with self._write_lock:
            if self._closed:
                return
            if self._pending:
                self._pending += data
                return
            try:
                sent = self.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self.loop.call_soon(self.close)
                return
            if sent == len(data):
                return
            self._pending += memoryview(data)[sent:]
        self.loop.call_soon(self._send_pending)

    # Poller only from here down.

    def register(self) -> None:
        if not self._closed:
            self.loop.register_stream(self.sock, selectors.EVENT_READ,
                                      self._on_event)

    def _on_event(self, mask: int) -> None:
        if mask & selectors.EVENT_READ:
            self.on_readable()
        if mask & selectors.EVENT_WRITE:
            self._send_pending()

    def on_readable(self) -> None:
        while True:
            try:
                chunk = self.sock.recv(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.close()
                return
            if not chunk:
                self.close()  # closed by the peer
                return
            self.buffer.feed(chunk)
            if len(chunk) < _RECV_SIZE:
                break
        transport = self.listener.transport
        while not self._closed:
            try:
                frame = self.buffer.next_frame()
            except MarshalError:
                # Not a GIOP stream (or desynchronised): poisoned.
                self.close()
                return
            if frame is None:
                return
            transport._dispatch_loop_frame(self, frame)

    def _send_pending(self) -> None:
        """Send what the socket takes of ``_pending``, and watch for
        writability exactly while some is left."""
        broken = False
        with self._write_lock:
            if self._closed:
                return
            try:
                del self._pending[:self.sock.send(self._pending)]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                broken = True
            want = bool(self._pending)
            if not broken and want != self._write_interest:
                self._write_interest = want
                events = selectors.EVENT_READ
                if want:
                    events |= selectors.EVENT_WRITE
                self.loop.modify_stream(self.sock, events, self._on_event)
        if broken:
            self.close()

    def close(self) -> None:
        self.listener.connections.discard(self)
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            self._pending.clear()
        self.loop.unregister_stream(self.sock)
        _close_quietly(self.sock)


class _LoopListener:
    """A non-blocking listening socket: accepts drain in one burst and
    each accepted connection joins the loop — no thread per client."""

    def __init__(self, loop: _EventLoop, transport: "TcpTransport",
                 sock: socket.socket, handler: Handler):
        self.loop = loop
        self.transport = transport
        self.sock = sock
        self.handler = handler
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
            _make_nonblocking(conn_sock)
            connection = _LoopServerConnection(self, conn_sock)
            self.connections.add(connection)
            connection.register()

    def close(self) -> None:
        """Poller only (via call_soon_sync from unregister)."""
        if self._closed:
            return
        self._closed = True
        self.loop.unregister_stream(self.sock)
        _close_quietly(self.sock)
        for connection in list(self.connections):
            connection.close()
        self.connections.clear()


class TcpTransport(Transport):
    """Real IIOP-over-TCP on localhost.

    Every registered endpoint is a listener on the transport's one event
    loop; ``loop_workers`` bounds how many servants it runs at once.

    A client sends one request at a time on a connection checked out of
    a per-endpoint keep-alive pool that keeps at most ``_POOL_SIZE``
    spares, so the steady state costs zero TCP handshakes.  A oneway
    request (no response expected) is written and not waited for.  A
    pooled connection that has gone stale (the server restarted, the
    peer dropped it) is discarded, and the request is retried once on a
    fresh connection **only when the current call is flagged
    idempotent** (see :mod:`repro.deadline`): the server may already
    have applied it.  Each ``send`` bounds its socket timeout by the
    calling thread's remaining :class:`~repro.deadline.Deadline`
    (*timeout* is only the default).
    """

    _instance_seq = itertools.count(1)

    def __init__(self, host: str = "127.0.0.1", timeout: float = 5.0,
                 loop_workers: int = 6,
                 overload: Optional[OverloadPolicy] = None):
        self.host = host
        self.timeout = timeout
        self.loop_workers = max(1, int(loop_workers))
        #: Server-side admission control: every request this transport
        #: serves is admitted, queued and dequeued through it.
        self.admission = AdmissionController(overload or OverloadPolicy())
        self._pool = _ConnectionPool(max_idle=_POOL_SIZE)
        self._listeners: dict[Endpoint, _LoopListener] = {}
        self._lock = threading.Lock()
        self._loop_name = f"giop-loop-{next(TcpTransport._instance_seq)}"
        self._event_loop: Optional[_EventLoop] = None
        self._loop_lock = threading.Lock()
        self.metrics = TransportMetrics()

    def _ensure_loop(self) -> _EventLoop:
        with self._loop_lock:
            if self._event_loop is None or not self._event_loop.running:
                self._event_loop = _EventLoop(name=self._loop_name,
                                              servants=self.loop_workers)
            return self._event_loop

    def register(self, endpoint: Endpoint, handler: Handler) -> Endpoint:
        # Logical hostnames ("dba.icis.qut.edu.au") were DNS names in
        # 1999; here every endpoint binds the local interface and the
        # OS-assigned port keeps endpoints (and IORs) distinct.
        __, port = endpoint
        loop = self._ensure_loop()
        try:
            sock = socket.create_server((self.host, port),
                                        backlog=_LOOP_BACKLOG)
        except OSError as exc:
            raise CommFailure(
                f"cannot bind {(self.host, port)!r}: {exc}") from exc
        sock.setblocking(False)
        bound = (self.host, sock.getsockname()[1])
        listener = _LoopListener(loop, self, sock, handler)
        with self._lock:
            self._listeners[bound] = listener
        loop.call_soon(listener.register)
        return bound

    def unregister(self, endpoint: Endpoint) -> None:
        with self._lock:
            listener = self._listeners.pop(endpoint, None)
        self._pool.discard(endpoint)
        if listener is not None and self._event_loop is not None:
            self._event_loop.call_soon_sync(listener.close)

    # --------------------------------------------------------------- server --

    def _dispatch_loop_frame(self, connection: _LoopServerConnection,
                             frame: Frame) -> None:
        """Poller: turn one frame read off the wire into a servant job.
        Admission control runs *here*, so a shed request costs the
        poller a service-context peek and a BUSY reply instead of a
        servant slot."""
        ticket, reason = self.admission.enqueue(
            *peek_request_admission(frame))
        if reason is not None:
            self._shed(connection, frame, reason)
            return
        # A job that ``close()`` cancels before any thread runs it never
        # reaches ``_serve_loop_frame``, so its admission slot is handed
        # back by the cancel hook — or it leaks on the shared controller.
        connection.loop.dispatch(
            lambda: self._serve_loop_frame(connection, frame, ticket),
            lambda: self.admission.abandon(ticket))

    def _serve_loop_frame(self, connection: _LoopServerConnection,
                          frame: Frame, ticket: AdmissionTicket) -> None:
        """Loop thread, off the selector: run the servant and write
        the reply straight back."""
        reason = self.admission.dequeue(ticket)
        if reason is not None:
            self._shed(connection, frame, reason)
            return
        try:
            reply = connection.listener.handler(frame)
        except Exception:  # noqa: BLE001 - undecodable frame: the
            # stream is poisoned, drop it
            connection.loop.call_soon(connection.close)
            return
        if reply:
            connection.write(reply)

    def _shed(self, connection: _LoopServerConnection, frame: Frame,
              reason: str) -> None:
        """Answer *frame* BUSY instead of serving it (a oneway or
        unattributable frame is shed silently)."""
        self.metrics.record_shed(reason)
        reply = busy_reply(frame, reason)
        if reply is not None:
            connection.write(reply)

    def server_thread_count(self) -> int:
        """OS threads this transport's event loop is using: at most
        ``loop_workers + 1`` (``tests/orb/test_eventloop.py``)."""
        loop = self._event_loop
        return 0 if loop is None else loop.thread_count()

    # --------------------------------------------------------------- client --

    def _roundtrip(self, connection: socket.socket, data: bytes,
                   response_expected: bool) -> bytes:
        """Write the request; read the reply in one ``recv`` when it
        arrives whole, completing a split one with exact reads."""
        connection.sendall(data)
        if not response_expected:
            return b""
        received = connection.recv(_RECV_SIZE)
        if not received:
            raise CommFailure("connection closed mid-message")
        return read_giop_frame(connection, received)

    def send(self, endpoint: Endpoint, data: bytes) -> bytes:
        policy = current_policy()
        deadline = policy.deadline
        # The socket timeout: the constructor default, tightened to the
        # calling thread's remaining deadline budget.
        timeout = self.timeout if deadline is None \
            else min(self.timeout, deadline.require("IIOP request"))
        # First attempts refill the caller's retry budget per endpoint;
        # a transparent resend (stale pool) draws it down.  A
        # policy-level retry (attempt > 1) refills nothing, or retries
        # would mint the tokens funding themselves.
        budget = policy.retry_budget
        if budget is not None and policy.attempt == 1:
            budget.note_attempt(f"{endpoint[0]}:{endpoint[1]}")
        # The server writes nothing back for a oneway request: reading
        # for a reply would wait out the socket timeout.
        __, response_expected = peek_request(data)
        # A servant calling out hands its loop's selector on first.
        thread = threading.current_thread()
        if type(thread) is _LoopThread:
            thread.loop.release_selector(thread)
        connection = self._pool.checkout(endpoint)
        if connection is not None:
            try:
                if connection.gettimeout() != timeout:
                    connection.settimeout(timeout)
                reply = self._roundtrip(connection, data, response_expected)
            except (OSError, CommFailure) as exc:
                # Stale keep-alive connection.  The server may have
                # applied the request and only the reply been lost, so
                # a resend is gated on the caller's idempotence vouch.
                _close_quietly(connection)
                self._gate_resend(endpoint, exc, deadline)
                connection = None
        reused = connection is not None
        if connection is None:
            connection = _connect(endpoint, timeout, deadline)
            try:
                reply = self._roundtrip(connection, data, response_expected)
            except (OSError, CommFailure) as exc:
                _close_quietly(connection)
                if deadline is not None and deadline.expired:
                    raise DeadlineExceeded(
                        f"IIOP request to {endpoint!r} overran its "
                        f"deadline: {exc}") from exc
                raise CommFailure(
                    f"IIOP send to {endpoint!r} failed: {exc}") from exc
        self._pool.checkin(endpoint, connection)
        self.metrics.record(endpoint, len(data), len(reply), reused=reused)
        return reply

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

    def idle_connections(self, endpoint: Optional[Endpoint] = None) -> int:
        """Spare pooled connections (for tests and pool tuning)."""
        return self._pool.idle_count(endpoint)

    def close(self) -> None:
        """Shut down every listener and connection this transport
        opened."""
        self._pool.close()
        for endpoint in list(self._listeners):
            self.unregister(endpoint)
        with self._loop_lock:
            loop, self._event_loop = self._event_loop, None
        if loop is not None:
            # Drain, don't abandon: a dispatch already running may hold
            # servant-side locks (journal group commit, the registry
            # lock) — give it a bounded window to finish.  Jobs still
            # waiting for a thread are cancelled: their callers'
            # connections are gone, the work is dead, and each one's
            # cancel hook hands its admission ticket back.
            loop.cancel_jobs()
            loop.drain(_DRAIN_TIMEOUT)
            loop.stop()
