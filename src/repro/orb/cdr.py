"""Common Data Representation (CDR) marshalling.

CORBA's GIOP transfers all values in CDR: primitives are aligned to
their natural size and encoded big- or little-endian as announced by
the message flags.  This module implements a faithful subset:

* aligned primitives — octet, boolean, short, long, long long, double;
* strings — unsigned long length (including NUL), UTF-8 bytes, NUL;
* sequences — unsigned long count then elements, and *arrays* of one
  primitive type packed and unpacked in a single call — *packed
  strings* among them: many strings as one length array and one UTF-8
  blob, the form value types use for their string fields;
* a tagged ``any`` encoding that lets the RPC layer ship Python
  values (None, bool, int, float, str, bytes, date, list, tuple, dict)
  without a compiled IDL type for each;
* and *value types* — CORBA's ``valuetype``: a class registered with
  :func:`register_value` crosses the wire as itself (``TAG_VALUE``,
  its type id, then whatever its write hook puts on the stream), so the
  codec is the one place that knows how a model object crosses the wire.

Encoders and decoders track absolute stream position so alignment
padding matches on both sides.  Both boundaries are closed: whatever
the decoder is fed it returns a value or raises :class:`MarshalError`,
and whatever the encoder is handed it writes or raises
:class:`MarshalError` — a string UTF-8 cannot carry and an integer too
wide for its primitive included.
"""

from __future__ import annotations

import datetime
import itertools
import struct
from typing import Any, Callable, Optional, Sequence

from repro.errors import MarshalError

# Type tags for the `any` encoding (one octet each).
TAG_NULL = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_LONG = 3          # 32-bit signed
TAG_LONGLONG = 4      # 64-bit signed
TAG_DOUBLE = 5
TAG_STRING = 6
TAG_BYTES = 7
TAG_DATE = 8          # days since epoch, as long
TAG_SEQUENCE = 9
TAG_STRUCT = 10       # string-keyed map
TAG_BIGINT = 11       # arbitrary precision: sign octet + byte count + bytes
TAG_VALUE = 12        # registered value type: type id string + its wire form

#: Containers (sequence, struct, value) one ``any`` may nest.  The
#: deepest legitimate value — a row in a result in a struct in a reply —
#: is 4; the bound only has to stay well under the interpreter's
#: recursion limit, so that deeper input (a hostile frame, a list that
#: contains itself) is a MarshalError, not a RecursionError.  Encoder and
#: decoder count in ``_depth`` on entering a container and restore it on
#: leaving — not when a nested call raises: that object is finished.
MAX_NESTING = 64
_TOO_DEEP = "CDR value nested too deeply"

_INT32_MIN, _INT32_MAX = -2**31, 2**31 - 1
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()
_PAD = tuple(bytes(count) for count in range(8))
#: Octets per element of each array code (``struct`` format characters).
_SIZES = {"?": 1, "B": 1, "h": 2, "H": 2, "i": 4, "I": 4, "q": 8, "d": 8}
_UNPACKABLE = (struct.error, OverflowError)


class _Order:
    """Every ``struct.Struct`` one byte order needs, compiled once.

    ``pack[code]`` / ``unpack[code]`` move one primitive;
    ``tagged[code][position & 7]`` writes an ``any`` tag octet, the
    padding that position calls for and the primitive in one call.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.pack, self.unpack, self.tagged = {}, {}, {}
        for code in "hHiIqd":
            compiled = struct.Struct(prefix + code)
            self.pack[code] = compiled.pack
            self.unpack[code] = compiled.unpack_from
            self.tagged[code] = tuple(
                struct.Struct(
                    f"{prefix}B{-(at + 1) & (_SIZES[code] - 1)}x{code}").pack
                for at in range(8))


_BIG, _LITTLE = _Order(">"), _Order("<")


def _enter(codec: "CdrEncoder | CdrDecoder") -> int:
    """One container deeper; the new depth (see :data:`MAX_NESTING`)."""
    depth = codec._depth = codec._depth + 1
    if depth > MAX_NESTING:
        raise MarshalError(_TOO_DEEP)
    return depth


def _not_utf8(value: str, exc: UnicodeEncodeError) -> MarshalError:
    return MarshalError(f"cannot marshal {value!r} as a CDR string: {exc}")


def _writer(code: str) -> Callable[["CdrEncoder", Any], None]:
    """``write_<primitive>``: pad to the primitive's size, pack it."""
    mask = _SIZES[code] - 1

    def write(self: "CdrEncoder", value: Any) -> None:
        buf = self._buf
        buf += _PAD[-len(buf) & mask]
        try:
            buf += self._pack[code](value)
        except _UNPACKABLE as exc:
            raise MarshalError(
                f"cannot marshal {value!r} as CDR {code!r}: {exc}") from exc
    return write


class CdrEncoder:
    """Appends CDR-encoded values to one growing ``bytearray``.

    A framer that has already written the head of a message body hands
    that ``bytearray`` in as *buffer*; the encoder appends behind it and
    aligns relative to the buffer's first octet.
    """

    def __init__(self, little_endian: bool = False,
                 buffer: Optional[bytearray] = None):
        self.little_endian = little_endian
        order = _LITTLE if little_endian else _BIG
        self._prefix, self._pack, self._tagged = \
            order.prefix, order.pack, order.tagged
        self._buf = bytearray() if buffer is None else buffer
        self._depth = 0

    # -- low level ------------------------------------------------------------

    def write_octet(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_boolean(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    write_short, write_ushort = _writer("h"), _writer("H")
    write_long, write_ulong = _writer("i"), _writer("I")
    write_longlong, write_double = _writer("q"), _writer("d")

    def write_string(self, value: str) -> None:
        try:
            encoded = value.encode()
        except UnicodeEncodeError as exc:
            raise _not_utf8(value, exc) from exc
        self.write_ulong(len(encoded) + 1)  # CDR counts the trailing NUL
        self._buf += encoded
        self._buf.append(0)

    def write_octets(self, value: bytes) -> None:
        self.write_ulong(len(value))
        self._buf += value

    def write_array(self, code: str, values: Sequence) -> None:
        """Every element of *values* as the primitive *code*, aligned
        once and packed in one call; the reader is told the count."""
        try:
            octets = self.pack_array(code, values)
        except _UNPACKABLE as exc:
            raise MarshalError(
                f"cannot marshal a CDR {code!r} array: {exc}") from exc
        self.write_packed(code, octets)

    def pack_array(self, code: str, values: Sequence) -> bytes:
        """The octets :meth:`write_array` appends behind its padding,
        not written: ``struct.error`` when a value has no packing as
        *code*.  A caller that picks a packing by whether the values
        fit packs once and writes with :meth:`write_packed`."""
        return struct.pack(f"{self._prefix}{len(values)}{code}", *values)

    def write_packed(self, code: str, octets: bytes) -> None:
        """*octets* from :meth:`pack_array`, aligned for *code*."""
        buf = self._buf
        buf += _PAD[-len(buf) & (_SIZES[code] - 1)]
        buf += octets

    def write_strings(self, values: Sequence[str]) -> None:
        """Several strings, packed: their **character** lengths as one
        ulong array (the reader is told the count), then all the text as
        one UTF-8 octet sequence — no NUL, no per-string header.  The
        sequence's octet count rides in the same pack as the lengths."""
        try:
            blob = "".join(values).encode()
        except (TypeError, UnicodeEncodeError) as exc:
            raise MarshalError(
                f"cannot marshal packed CDR strings: {exc}") from exc
        self.write_array("I", [*map(len, values), len(blob)])
        self._buf += blob

    # -- any ---------------------------------------------------------------------

    def _any(self, value: Any) -> None:
        (_WRITERS.get(type(value)) or _subclass_writer(value))(self, value)

    #: Encode an arbitrary supported Python value with a type tag.  The
    #: framer calls this once per argument / body; what a value nests
    #: goes through ``_any``, so a tool that wraps ``write_any`` sees
    #: one call per top-level value.
    write_any = _any

    def _any_int(self, value: int) -> None:
        buf = self._buf
        if _INT32_MIN <= value <= _INT32_MAX:
            buf += self._tagged["i"][len(buf) & 7](TAG_LONG, value)
        elif _INT64_MIN <= value <= _INT64_MAX:
            buf += self._tagged["q"][len(buf) & 7](TAG_LONGLONG, value)
        else:
            magnitude = abs(value)
            buf.append(TAG_BIGINT)
            buf.append(0 if value >= 0 else 1)
            self.write_octets(magnitude.to_bytes(
                (magnitude.bit_length() + 7) // 8 or 1, "big"))

    def _any_double(self, value: float) -> None:
        buf = self._buf
        buf += self._tagged["d"][len(buf) & 7](TAG_DOUBLE, value)

    def _any_string(self, value: str) -> None:
        try:
            encoded = value.encode()
        except UnicodeEncodeError as exc:
            raise _not_utf8(value, exc) from exc
        buf = self._buf
        buf += self._tagged["I"][len(buf) & 7](TAG_STRING, len(encoded) + 1)
        buf += encoded
        buf.append(0)

    def _any_bytes(self, value: bytes) -> None:
        buf = self._buf
        buf += self._tagged["I"][len(buf) & 7](TAG_BYTES, len(value))
        buf += value

    def _any_date(self, value: datetime.date) -> None:
        buf = self._buf
        buf += self._tagged["i"][len(buf) & 7](
            TAG_DATE, value.toordinal() - _EPOCH_ORDINAL)

    def _any_sequence(self, value: Sequence) -> None:
        depth = _enter(self)
        buf = self._buf
        buf += self._tagged["I"][len(buf) & 7](TAG_SEQUENCE, len(value))
        writers = _WRITERS
        for item in value:
            (writers.get(type(item)) or _subclass_writer(item))(self, item)
        self._depth = depth - 1

    def _any_struct(self, value: dict) -> None:
        depth = _enter(self)
        buf = self._buf
        buf += self._tagged["I"][len(buf) & 7](TAG_STRUCT, len(value))
        writers, ulong = _WRITERS, self._pack["I"]
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError(f"struct keys must be strings, got {key!r}")
            try:
                encoded = key.encode()
            except UnicodeEncodeError as exc:
                raise _not_utf8(key, exc) from exc
            buf += _PAD[-len(buf) & 3]
            buf += ulong(len(encoded) + 1)
            buf += encoded
            buf.append(0)
            (writers.get(type(item)) or _subclass_writer(item))(self, item)
        self._depth = depth - 1

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


#: ``write_any`` dispatches on the exact type through this one table
#: (registered value types are added to it).  An instance of a subclass
#: — an ``IntEnum``, a ``str`` subclass, a named tuple — misses it and
#: walks ``_LADDER``, the ``isinstance`` order the encoder always had;
#: a ``datetime`` is a ``date`` nothing here carries.
_WRITERS: dict[type, Callable[[CdrEncoder, Any], None]] = {
    type(None): lambda encoder, value: encoder._buf.append(TAG_NULL),
    bool: lambda encoder, value: encoder._buf.append(
        TAG_TRUE if value else TAG_FALSE),
    int: CdrEncoder._any_int, float: CdrEncoder._any_double,
    str: CdrEncoder._any_string, bytes: CdrEncoder._any_bytes,
    datetime.date: CdrEncoder._any_date, list: CdrEncoder._any_sequence,
    tuple: CdrEncoder._any_sequence, dict: CdrEncoder._any_struct,
}
_LADDER = tuple((base, _WRITERS.get(base)) for base in (
    int, float, str, bytes, datetime.datetime, datetime.date, list, tuple,
    dict))


def _subclass_writer(value: Any) -> Callable[[CdrEncoder, Any], None]:
    for base, writer in _LADDER:
        if isinstance(value, base):
            if writer is not None:
                return writer
            break
    raise MarshalError(
        f"cannot marshal {type(value).__name__} value {value!r}")


def _reader(code: str) -> Callable[["CdrDecoder"], Any]:
    """``read_<primitive>``: skip the padding, check, unpack in place."""
    size = _SIZES[code]

    def read(self: "CdrDecoder") -> Any:
        start = self._pos + (-self._pos & (size - 1))
        if start + size > self._end:
            raise self._underflow(size, start)
        self._pos = start + size
        return self._unpack[code](self._data, start)[0]
    return read


class CdrDecoder:
    """Reads CDR-encoded values from a byte buffer.

    Accepts ``bytes`` or a ``memoryview`` without copying: the
    event-loop transport slices request frames straight out of its
    receive buffer, and every read here unpacks from that buffer in
    place at a tracked offset, bounds-checked first.  Values that escape
    the decoder — octet sequences, strings, arrays — are materialised,
    so nothing decoded keeps a view (or the frame) alive.  A framer that
    has already read the head of a message body passes *start*, the
    offset its fields end at.
    """

    def __init__(self, data: bytes | bytearray | memoryview,
                 little_endian: bool = False, start: int = 0):
        self._data = data
        self._end = len(data)
        self._pos = start
        self.little_endian = little_endian
        order = _LITTLE if little_endian else _BIG
        self._prefix, self._unpack = order.prefix, order.unpack
        self._depth = 0

    # -- low level -----------------------------------------------------------

    def _underflow(self, count: int, start: int) -> MarshalError:
        return MarshalError(f"CDR underflow: need {count} bytes at {start}, "
                            f"have {self._end}")

    def _take(self, count: int) -> int:
        """Where the next *count* octets start; moves past them."""
        start = self._pos
        if start + count > self._end:
            raise self._underflow(count, start)
        self._pos = start + count
        return start

    def read_octet(self) -> int:
        start = self._pos
        if start >= self._end:
            raise self._underflow(1, start)
        self._pos = start + 1
        return self._data[start]

    def read_boolean(self) -> bool:
        return self._data[self._take(1)] != 0

    read_short, read_ushort = _reader("h"), _reader("H")
    read_long, read_ulong = _reader("i"), _reader("I")
    read_longlong, read_double = _reader("q"), _reader("d")

    def read_string(self) -> str:
        data = self._data
        start = self._pos + (-self._pos & 3) + 4  # behind the length
        if start > self._end:
            raise self._underflow(4, start - 4)
        end = start + self._unpack["I"](data, start - 4)[0]
        if end == start:
            raise MarshalError("CDR string with zero length (missing NUL)")
        if end > self._end:
            raise self._underflow(end - start, start)
        if data[end - 1] != 0:
            raise MarshalError("CDR string not NUL-terminated")
        self._pos = end
        try:
            return str(data[start:end - 1], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"CDR string is not valid UTF-8: {exc}") \
                from exc

    def read_octets(self) -> bytes:
        start = self._take(self.read_ulong())
        return bytes(self._data[start:self._pos])

    def read_text(self) -> str:
        """An octet sequence read as UTF-8 where it lies in the frame,
        not copied out as ``bytes`` first."""
        data = self._data
        start = self._pos + (-self._pos & 3) + 4  # behind the length
        if start > self._end:
            raise self._underflow(4, start - 4)
        end = start + self._unpack["I"](data, start - 4)[0]
        if end > self._end:
            raise self._underflow(end - start, start)
        self._pos = end
        try:
            return str(data[start:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"CDR text is not valid UTF-8: {exc}") \
                from exc

    def read_array(self, code: str, count: int) -> tuple:
        """*count* primitives of type *code* in one unpack; the size is
        checked against what is left before anything is built."""
        size = _SIZES[code]
        self._pos += -self._pos & (size - 1)
        start = self._take(count * size)
        return struct.unpack_from(f"{self._prefix}{count}{code}",
                                  self._data, start)

    def read_strings(self, count: int) -> list[str]:
        """*count* strings :meth:`CdrEncoder.write_strings` packed; the
        lengths are checked against what is left before any is built,
        and must add up to the text exactly."""
        *lengths, size = self.read_array("I", count + 1)
        start = self._take(size)
        try:
            text = str(self._data[start:self._pos], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(
                f"packed CDR strings are not valid UTF-8: {exc}") from exc
        ends = list(itertools.accumulate(lengths))
        if (ends[-1] if ends else 0) != len(text):
            raise MarshalError("string lengths do not add up to the text")
        return [text[begin:end] for begin, end in zip([0, *ends], ends)]

    # -- any -------------------------------------------------------------------

    def _any(self) -> Any:
        start = self._pos
        if start >= self._end:
            raise self._underflow(1, start)
        self._pos = start + 1
        try:
            reader = _READERS[self._data[start]]
        except IndexError:
            raise MarshalError(
                f"unknown CDR any tag {self._data[start]}") from None
        return reader(self)

    #: Decode one tagged value; nested values go through ``_any`` (see
    #: :attr:`CdrEncoder.write_any`).
    read_any = _any

    def _any_bigint(self) -> int:
        negative = self._data[self._take(1)] == 1
        magnitude = int.from_bytes(self.read_octets(), "big")
        return -magnitude if negative else magnitude

    def _any_date(self) -> datetime.date:
        try:
            return datetime.date.fromordinal(
                self.read_long() + _EPOCH_ORDINAL)
        except (ValueError, OverflowError) as exc:
            raise MarshalError("CDR date out of range") from exc

    def _any_sequence(self) -> list:
        depth = _enter(self)
        read = self._any
        value = [read() for _ in range(self.read_ulong())]
        self._depth = depth - 1
        return value

    def _any_struct(self) -> dict:
        depth = _enter(self)
        value, read_key, read = {}, self.read_string, self._any
        for _ in range(self.read_ulong()):
            key = read_key()
            value[key] = read()
        self._depth = depth - 1
        return value

    def _any_value(self) -> Any:
        depth = _enter(self)
        type_id = self.read_octets()
        registered = _VALUES_BY_ID.get(type_id)
        if registered is None:
            raise MarshalError(f"unknown CDR value type {type_id!r}")
        value = _hooked("malformed", *registered, self)
        self._depth = depth - 1
        return value

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return self._end - self._pos


#: ``read_any`` dispatches on the tag octet; the index is the tag.
_READERS: tuple[Callable[[CdrDecoder], Any], ...] = (
    lambda decoder: None, lambda decoder: False, lambda decoder: True,
    CdrDecoder.read_long, CdrDecoder.read_longlong, CdrDecoder.read_double,
    CdrDecoder.read_string, CdrDecoder.read_octets, CdrDecoder._any_date,
    CdrDecoder._any_sequence, CdrDecoder._any_struct, CdrDecoder._any_bigint,
    CdrDecoder._any_value)

# ------------------------------------------------------------ value types --

#: Registered value types for the decoder, by type id.  The id travels
#: as a CDR string; both sides keep it as that string's octets, NUL
#: included, and move it as an octet sequence (the same bytes) — no
#: UTF-8 round trip per value.  The encoder finds them in ``_WRITERS``.
_VALUES_BY_ID: dict[bytes, tuple[type, Callable[[CdrDecoder], Any]]] = {}


def _hooked(verb: str, cls: type, hook: Callable, *args: Any) -> Any:
    """Run a value type's hook.  It is the owning module's code, run on
    the caller's object or on outside input: whatever it raises is a
    marshalling fault naming the class (cause chained), not the caller's
    AttributeError."""
    try:
        return hook(*args)
    except Exception as exc:  # noqa: BLE001 - codec boundary
        raise MarshalError(f"{verb} {cls.__name__} value: {exc}") from exc


def register_value(type_id: str, cls: type,
                   write: Callable[[CdrEncoder, Any], None],
                   read: Callable[[CdrDecoder], Any]) -> None:
    """Make instances of exactly *cls* marshal as themselves.

    ``write(encoder, instance)`` puts the instance on the stream with
    the encoder's own primitives and ``read(decoder)`` takes exactly
    that back off and returns the rebuilt instance; the codec frames
    the pair with ``TAG_VALUE`` and the type id and counts the value as
    one level of nesting.  Called at import time by the module that owns
    *cls*: both ends agree on the wire form by importing the class.
    """
    octets = type_id.encode("utf-8") + b"\x00"
    if _VALUES_BY_ID.get(octets, (cls,))[0] is not cls:
        raise MarshalError(f"value type id {type_id!r} is already taken")

    def write_value(encoder: CdrEncoder, value: Any) -> None:
        depth = _enter(encoder)
        encoder._buf.append(TAG_VALUE)
        encoder.write_octets(octets)
        _hooked("cannot marshal", cls, write, encoder, value)
        encoder._depth = depth - 1

    _WRITERS[cls] = write_value
    _VALUES_BY_ID[octets] = (cls, read)


def struct_value(to_wire: Callable[[Any], Any],
                 from_wire: Callable[[Any], Any]) -> tuple[Callable, Callable]:
    """The ``(write, read)`` hooks of a value type whose wire form is
    the one ``any`` (typically a struct) that *to_wire* returns."""
    return (lambda encoder, value: encoder._any(to_wire(value)),
            lambda decoder: from_wire(decoder._any()))


def encode_any(value: Any, little_endian: bool = False) -> bytes:
    """Encode one value to standalone CDR bytes."""
    encoder = CdrEncoder(little_endian)
    encoder.write_any(value)
    return encoder.getvalue()


def decode_any(data: bytes, little_endian: bool = False) -> Any:
    """Decode one value from standalone CDR bytes."""
    return CdrDecoder(data, little_endian).read_any()
