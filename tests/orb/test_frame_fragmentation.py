"""Frame reassembly under arbitrary chunking.

TCP is a byte stream: one ``recv`` can return a single byte of a
header, three and a half frames, or anything between.  The
:class:`~repro.orb.transport.FrameBuffer` the event loop slices frames
from must therefore be insensitive to chunk boundaries — no
frame cross-wired, lost, duplicated, or corrupted, however the stream
is split.  Hypothesis draws the splits: from a 1-byte dribble through
jumbo coalesced writes, including boundaries that land mid-header and
mid-body.  The client's side of the same property: a pooled client
reads its reply in one ``recv`` when it arrives whole and completes it
with exact reads when it is split anywhere.
"""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommFailure, MarshalError
from repro.orb import InterfaceBuilder, TcpTransport, create_orb, ORBIX
from repro.orb.giop import (HEADER_SIZE, MAX_FRAME_BODY, ReplyMessage,
                            ReplyStatus, RequestMessage, decode_message,
                            encode_message)
from repro.orb.transport import FrameBuffer, read_giop_frame

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()

#: The wire tests run against the one server a TcpTransport has; the
#: id names it.
ON_THE_WIRE = pytest.mark.parametrize("server", ["event-loop"])


def _frames(ids, little_endian=False):
    """A mixed request/reply stream with identifiable frames."""
    out = []
    for index, request_id in enumerate(ids):
        if index % 2 == 0:
            message = RequestMessage(request_id=request_id,
                                     object_key=b"echo",
                                     operation="echo",
                                     arguments=[request_id])
        else:
            message = ReplyMessage(request_id=request_id,
                                   status=ReplyStatus.NO_EXCEPTION,
                                   body=request_id)
        out.append(encode_message(message, little_endian=little_endian))
    return out


def _split(stream, cuts):
    """Split *stream* at the (deduplicated, sorted) cut offsets."""
    bounds = sorted({min(cut, len(stream)) for cut in cuts})
    chunks, start = [], 0
    for bound in bounds:
        if bound > start:
            chunks.append(stream[start:bound])
            start = bound
    chunks.append(stream[start:])
    return [chunk for chunk in chunks if chunk]


@given(ids=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=1, max_size=8, unique=True),
       cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=40),
       little_endian=st.booleans())
@settings(max_examples=120, deadline=None)
def test_any_chunking_yields_exactly_the_original_frames(
        ids, cuts, little_endian):
    """Feed the concatenated stream in arbitrary pieces: the buffer
    must hand back exactly the original frames, in order, bit-equal."""
    frames = _frames(ids, little_endian)
    stream = b"".join(frames)
    buffer = FrameBuffer()
    recovered = []
    for chunk in _split(stream, cuts):
        buffer.feed(chunk)
        while True:
            frame = buffer.next_frame()
            if frame is None:
                break
            recovered.append(bytes(frame))
    assert recovered == frames
    assert len(buffer) == 0


@given(ids=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=1, max_size=4, unique=True))
@settings(max_examples=25, deadline=None)
def test_one_byte_dribble(ids):
    """The pathological split: every chunk is a single byte."""
    frames = _frames(ids)
    buffer = FrameBuffer()
    recovered = []
    for byte_index in b"".join(frames):
        buffer.feed(bytes([byte_index]))
        frame = buffer.next_frame()
        if frame is not None:
            recovered.append(bytes(frame))
    assert recovered == frames


def test_single_chunk_frame_is_returned_without_copy():
    """The common case — peer batched exactly one frame per send —
    comes back as the fed object itself, not a copy."""
    [frame] = _frames([7])
    buffer = FrameBuffer()
    buffer.feed(frame)
    assert buffer.next_frame() is frame


def test_coalesced_chunk_yields_views_not_copies():
    """Frames inside one jumbo chunk come back as zero-copy views."""
    frames = _frames([1, 2, 3, 4])
    buffer = FrameBuffer()
    buffer.feed(b"".join(frames))
    for expected in frames:
        got = buffer.next_frame()
        assert isinstance(got, memoryview)
        assert bytes(got) == expected
    assert buffer.next_frame() is None


@given(noise=st.binary(min_size=12, max_size=64).filter(
    lambda raw: raw[:4] != b"GIOP"))
@settings(max_examples=60, deadline=None)
def test_non_giop_stream_poisons_instead_of_misframing(noise):
    """A desynchronised stream raises (connection must drop) rather
    than slicing garbage frames forever."""
    buffer = FrameBuffer()
    buffer.feed(noise)
    with pytest.raises(MarshalError):
        buffer.next_frame()


@ON_THE_WIRE
def test_server_survives_dribbled_request_on_the_wire(server):
    """End-to-end: a request trickled onto a live server socket a few
    bytes at a time still gets exactly its reply."""

    class Echo:
        def echo(self, value):
            return value

    transport = TcpTransport()
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        orb.activate(Echo(), ECHO, object_name="echo")
        request = encode_message(RequestMessage(
            request_id=99, object_key=b"obj:echo", operation="echo",
            arguments=["dribble"]))
        with socket.create_connection(orb.endpoint, timeout=5.0) as sock:
            for start in range(0, len(request), 3):
                sock.sendall(request[start:start + 3])
                time.sleep(0.001)
            sock.settimeout(5.0)
            reply = read_giop_frame(sock)
        assert decode_message(reply).request_id == 99
    finally:
        transport.close()


@ON_THE_WIRE
def test_interleaved_dribblers_are_not_cross_wired(server):
    """Several clients dribbling concurrently: each one's reply
    carries its own request id."""

    class Echo:
        def echo(self, value):
            return value

    transport = TcpTransport()
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    results = {}
    try:
        orb.activate(Echo(), ECHO, object_name="echo")
        barrier = threading.Barrier(4)

        def dribbler(request_id):
            request = encode_message(RequestMessage(
                request_id=request_id, object_key=b"obj:echo",
                operation="echo", arguments=[request_id]))
            barrier.wait()
            with socket.create_connection(orb.endpoint,
                                          timeout=5.0) as sock:
                for start in range(0, len(request), 5):
                    sock.sendall(request[start:start + 5])
                sock.settimeout(5.0)
                results[request_id] = \
                    decode_message(read_giop_frame(sock)).request_id

        threads = [threading.Thread(target=dribbler, args=(100 + index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {100 + index: 100 + index for index in range(4)}
    finally:
        transport.close()


# ------------------------------------------------- the client's reply read --
#
# A pooled client reads its one due reply with a single ``recv`` when
# the reply arrives whole, and completes a split one with exact reads.

_REQUEST = encode_message(RequestMessage(
    request_id=7, object_key=b"obj:echo", operation="echo",
    arguments=["x"]))


def _reply(little_endian=False):
    return encode_message(ReplyMessage(
        request_id=7, status=ReplyStatus.NO_EXCEPTION,
        body="a reply long enough to split"), little_endian=little_endian)


class _ScriptedSocket:
    """A client connection whose peer answers in scripted chunks: each
    ``recv`` returns at most its size of the next chunk, then b""."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.sent = b""
        self.recvs = 0

    def sendall(self, data):
        self.sent += data

    def recv(self, size):
        self.recvs += 1
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
        return chunk[:size]


def _roundtrip(sock):
    return TcpTransport()._roundtrip(sock, _REQUEST, True)


def test_client_reads_a_whole_reply_in_one_recv():
    reply = _reply()
    sock = _ScriptedSocket([reply])
    assert _roundtrip(sock) == reply
    assert sock.sent == _REQUEST
    assert sock.recvs == 1


@pytest.mark.parametrize("little_endian", [False, True])
def test_client_completes_a_reply_split_at_every_offset(little_endian):
    """Every cut — inside the 12-octet header or inside the body —
    yields the same frame."""
    reply = _reply(little_endian)
    for cut in range(1, len(reply)):
        assert _roundtrip(_ScriptedSocket([reply[:cut], reply[cut:]])) \
            == reply, cut


@given(cuts=st.lists(st.integers(min_value=0, max_value=64), max_size=12))
@settings(max_examples=60, deadline=None)
def test_client_completes_a_reply_in_any_pieces(cuts):
    reply = _reply()
    assert _roundtrip(_ScriptedSocket(_split(reply, cuts))) == reply


def test_client_refuses_octets_past_the_reply_frame():
    with pytest.raises(CommFailure, match="past the GIOP frame"):
        _roundtrip(_ScriptedSocket([_reply() + b"GIOP"]))


@pytest.mark.parametrize("cut", [0, 5, HEADER_SIZE, HEADER_SIZE + 3, -1])
def test_client_fails_a_reply_the_peer_cuts_short(cut):
    reply = _reply()
    with pytest.raises(CommFailure, match="closed mid-message"):
        _roundtrip(_ScriptedSocket([reply[:cut]] if cut else []))


def _one_shot_server(answer):
    """A raw server: accept one connection, read one request, write
    ``answer(request)`` in one ``sendall`` and close."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, __ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                conn.sendall(answer(read_giop_frame(conn)))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[:2], thread


@pytest.mark.parametrize("answer, error", [
    (lambda request: _reply() + b"GIOP\x01\x00", "past the GIOP frame"),
    (lambda request: _reply()[:HEADER_SIZE + 3], "closed mid-message"),
    (lambda request: b"HTTP\x01\x00\x00\x00\xff\xff\xff\xf0" + bytes(64),
     "bad GIOP magic"),
    (lambda request: b"GIOP\x01\x00\x00\x01"
     + (MAX_FRAME_BODY + 1).to_bytes(4, "big") + bytes(64),
     "implausible GIOP body size")])
def test_a_broken_reply_fails_the_call_and_is_not_pooled(answer, error):
    """Octets past the reply frame, a peer that closes mid-reply, a
    header that is not GIOP or announces a body over
    ``MAX_FRAME_BODY``: the call fails with ``CommFailure`` well inside
    its socket timeout, and the connection is closed, never checked
    back into the pool."""
    endpoint, server = _one_shot_server(answer)
    transport = TcpTransport(timeout=5.0)
    try:
        started = time.monotonic()
        with pytest.raises(CommFailure, match=error):
            transport.send(endpoint, _REQUEST)
        assert time.monotonic() - started < 1.0
        assert transport.idle_connections(endpoint) == 0
        assert transport.idle_connections() == 0
    finally:
        server.join(timeout=5.0)
        transport.close()
