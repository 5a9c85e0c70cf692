"""Common Data Representation (CDR) marshalling.

CORBA's GIOP transfers all values in CDR: primitives are aligned to
their natural size and encoded big- or little-endian as announced by
the message flags.  This module implements a faithful subset:

* aligned primitives — octet, boolean, short, long, long long, double;
* strings — unsigned long length (including NUL), UTF-8 bytes, NUL;
* sequences — unsigned long count then elements;
* a tagged ``any`` encoding that lets the RPC layer ship Python
  values (None, bool, int, float, str, bytes, date, list, tuple, dict)
  without a compiled IDL type for each;
* and *value types* — CORBA's ``valuetype``: a class registered with
  :func:`register_value` crosses the wire as itself (``TAG_VALUE``,
  its type id, then its registered wire form), so the codec is the
  one place that knows how a model object crosses the wire.

Encoders and decoders track absolute stream position so alignment
padding matches on both sides.
"""

from __future__ import annotations

import datetime
import struct
from typing import Any, Callable

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
_EPOCH = datetime.date(1970, 1, 1)

#: Registered value types, for the encoder by class and for the decoder
#: by type id.  The id travels as a CDR string; both sides keep it as
#: that string's octets, NUL included, and move it as an octet sequence
#: (the same bytes) — no UTF-8 round trip per value.
_VALUES_BY_CLASS: dict[type, tuple[bytes, Callable[[Any], Any]]] = {}
_VALUES_BY_ID: dict[bytes, tuple[type, Callable[[Any], Any]]] = {}


def register_value(type_id: str, cls: type,
                   to_wire: Callable[[Any], Any],
                   from_wire: Callable[[Any], Any]) -> None:
    """Make instances of exactly *cls* marshal as themselves.

    ``to_wire(instance)`` produces a value the ``any`` encoding already
    carries (typically a struct) and ``from_wire`` rebuilds the instance
    from it.  Called at import time by the module that owns *cls*: both
    ends agree on the wire form by importing the class.  The encoder
    consults the registry only for values nothing else in the ``any``
    ladder claims — a plain struct is just a struct.
    """
    octets = type_id.encode("utf-8") + b"\x00"
    if _VALUES_BY_ID.get(octets, (cls,))[0] is not cls:
        raise MarshalError(f"value type id {type_id!r} is already taken")
    _VALUES_BY_CLASS[cls] = (octets, to_wire)
    _VALUES_BY_ID[octets] = (cls, from_wire)


class CdrEncoder:
    """Appends CDR-encoded values to a growing buffer."""

    def __init__(self, little_endian: bool = False):
        self.little_endian = little_endian
        self._chunks: list[bytes] = []
        self._size = 0
        self._joined: bytes | None = None
        self._fmt = "<" if little_endian else ">"
        self._depth = 0

    # -- low level ------------------------------------------------------------

    def _append(self, data: bytes) -> None:
        self._chunks.append(data)
        self._size += len(data)
        self._joined = None

    def align(self, boundary: int) -> None:
        """Pad with zero octets to the next *boundary* multiple."""
        remainder = self._size % boundary
        if remainder:
            self._append(b"\x00" * (boundary - remainder))

    def write_octet(self, value: int) -> None:
        self._append(struct.pack("B", value & 0xFF))

    def write_boolean(self, value: bool) -> None:
        self.write_octet(1 if value else 0)

    def write_short(self, value: int) -> None:
        self.align(2)
        self._append(struct.pack(self._fmt + "h", value))

    def write_ushort(self, value: int) -> None:
        self.align(2)
        self._append(struct.pack(self._fmt + "H", value))

    def write_long(self, value: int) -> None:
        self.align(4)
        self._append(struct.pack(self._fmt + "i", value))

    def write_ulong(self, value: int) -> None:
        self.align(4)
        self._append(struct.pack(self._fmt + "I", value))

    def write_longlong(self, value: int) -> None:
        self.align(8)
        self._append(struct.pack(self._fmt + "q", value))

    def write_double(self, value: float) -> None:
        self.align(8)
        self._append(struct.pack(self._fmt + "d", value))

    def write_string(self, value: str) -> None:
        encoded = value.encode("utf-8")
        self.write_ulong(len(encoded) + 1)  # CDR counts the trailing NUL
        self._append(encoded)
        self._append(b"\x00")

    def write_octets(self, value: bytes) -> None:
        self.write_ulong(len(value))
        self._append(value)

    # -- any ---------------------------------------------------------------------

    def write_any(self, value: Any) -> None:
        """Encode an arbitrary supported Python value with a type tag."""
        if value is None:
            self.write_octet(TAG_NULL)
        elif value is True:
            self.write_octet(TAG_TRUE)
        elif value is False:
            self.write_octet(TAG_FALSE)
        elif isinstance(value, int):
            if _INT32_MIN <= value <= _INT32_MAX:
                self.write_octet(TAG_LONG)
                self.write_long(value)
            elif _INT64_MIN <= value <= _INT64_MAX:
                self.write_octet(TAG_LONGLONG)
                self.write_longlong(value)
            else:
                self.write_octet(TAG_BIGINT)
                magnitude = abs(value)
                raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1,
                                         "big")
                self.write_octet(0 if value >= 0 else 1)
                self.write_octets(raw)
        elif isinstance(value, float):
            self.write_octet(TAG_DOUBLE)
            self.write_double(value)
        elif isinstance(value, str):
            self.write_octet(TAG_STRING)
            self.write_string(value)
        elif isinstance(value, bytes):
            self.write_octet(TAG_BYTES)
            self.write_octets(value)
        elif isinstance(value, datetime.date) and not isinstance(
                value, datetime.datetime):
            self.write_octet(TAG_DATE)
            self.write_long((value - _EPOCH).days)
        else:
            depth = self._depth = self._depth + 1
            if depth > MAX_NESTING:
                raise MarshalError(_TOO_DEEP)
            if isinstance(value, (list, tuple)):
                self.write_octet(TAG_SEQUENCE)
                self.write_ulong(len(value))
                for item in value:
                    self.write_any(item)
            elif isinstance(value, dict):
                self.write_octet(TAG_STRUCT)
                self.write_ulong(len(value))
                for key, item in value.items():
                    if not isinstance(key, str):
                        raise MarshalError(
                            f"struct keys must be strings, got {key!r}")
                    self.write_string(key)
                    self.write_any(item)
            else:
                # Last resort, never a pre-check: every value the ladder
                # above claims keeps the bytes it always had.
                registered = _VALUES_BY_CLASS.get(type(value))
                if registered is None:
                    raise MarshalError(
                        f"cannot marshal {type(value).__name__} "
                        f"value {value!r}")
                self.write_octet(TAG_VALUE)
                self.write_octets(registered[0])
                self.write_any(registered[1](value))
            self._depth = depth - 1

    def getvalue(self) -> bytes:
        # The GIOP framer calls this twice per message (once for the
        # header's size field, once for the payload), so the join is
        # cached and the chunk list collapsed to it; any later append
        # invalidates the cache.
        if self._joined is None:
            self._joined = b"".join(self._chunks)
            self._chunks = [self._joined] if self._joined else []
        return self._joined

    def __len__(self) -> int:
        return self._size


class CdrDecoder:
    """Reads CDR-encoded values from a byte buffer.

    Accepts ``bytes`` or a ``memoryview`` without copying: the
    event-loop transport slices request frames straight out of its
    receive buffer, and every read here works on that view in place
    (``struct.unpack``/``int.from_bytes`` consume buffers directly).
    Values that escape the decoder — octet sequences, strings — are
    materialised at the last moment, so decoding a view allocates only
    for the values actually produced.
    """

    def __init__(self, data: bytes | bytearray | memoryview,
                 little_endian: bool = False, offset: int = 0):
        self._data = data if isinstance(data, memoryview) \
            else memoryview(data)
        self._pos = offset
        self.little_endian = little_endian
        self._fmt = "<" if little_endian else ">"
        self._depth = 0

    # -- low level -----------------------------------------------------------

    def align(self, boundary: int) -> None:
        remainder = self._pos % boundary
        if remainder:
            self._pos += boundary - remainder

    def _take(self, count: int) -> memoryview:
        if self._pos + count > len(self._data):
            raise MarshalError(
                f"CDR underflow: need {count} bytes at {self._pos}, "
                f"have {len(self._data)}")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def read_octet(self) -> int:
        return self._take(1)[0]

    def read_boolean(self) -> bool:
        return self.read_octet() != 0

    def read_short(self) -> int:
        self.align(2)
        return struct.unpack(self._fmt + "h", self._take(2))[0]

    def read_ushort(self) -> int:
        self.align(2)
        return struct.unpack(self._fmt + "H", self._take(2))[0]

    def read_long(self) -> int:
        self.align(4)
        return struct.unpack(self._fmt + "i", self._take(4))[0]

    def read_ulong(self) -> int:
        self.align(4)
        return struct.unpack(self._fmt + "I", self._take(4))[0]

    def read_longlong(self) -> int:
        self.align(8)
        return struct.unpack(self._fmt + "q", self._take(8))[0]

    def read_double(self) -> float:
        self.align(8)
        return struct.unpack(self._fmt + "d", self._take(8))[0]

    def read_string(self) -> str:
        length = self.read_ulong()
        if length == 0:
            raise MarshalError("CDR string with zero length (missing NUL)")
        raw = self._take(length)
        if raw[-1] != 0:
            raise MarshalError("CDR string not NUL-terminated")
        try:
            # str(buffer, encoding) decodes a memoryview slice without
            # an intermediate bytes copy.
            return str(raw[:-1], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"CDR string is not valid UTF-8: {exc}") \
                from exc

    def read_octets(self) -> bytes:
        return bytes(self._take(self.read_ulong()))

    # -- any -------------------------------------------------------------------

    def read_any(self) -> Any:
        tag = self.read_octet()
        if tag == TAG_NULL:
            return None
        if tag == TAG_TRUE:
            return True
        if tag == TAG_FALSE:
            return False
        if tag == TAG_LONG:
            return self.read_long()
        if tag == TAG_LONGLONG:
            return self.read_longlong()
        if tag == TAG_BIGINT:
            negative = self.read_octet() == 1
            magnitude = int.from_bytes(self.read_octets(), "big")
            return -magnitude if negative else magnitude
        if tag == TAG_DOUBLE:
            return self.read_double()
        if tag == TAG_STRING:
            return self.read_string()
        if tag == TAG_BYTES:
            return self.read_octets()
        if tag == TAG_DATE:
            try:
                return _EPOCH + datetime.timedelta(days=self.read_long())
            except OverflowError as exc:
                raise MarshalError("CDR date out of range") from exc
        if tag == TAG_SEQUENCE or tag == TAG_STRUCT or tag == TAG_VALUE:
            depth = self._depth = self._depth + 1
            if depth > MAX_NESTING:
                raise MarshalError(_TOO_DEEP)
            if tag == TAG_SEQUENCE:
                value = [self.read_any() for _ in range(self.read_ulong())]
            elif tag == TAG_STRUCT:
                value = {}
                for _ in range(self.read_ulong()):
                    key = self.read_string()
                    value[key] = self.read_any()
            else:
                value = self._read_value()
            self._depth = depth - 1
            return value
        raise MarshalError(f"unknown CDR any tag {tag}")

    def _read_value(self) -> Any:
        type_id = self.read_octets()
        registered = _VALUES_BY_ID.get(type_id)
        if registered is None:
            raise MarshalError(f"unknown CDR value type {type_id!r}")
        payload = self.read_any()
        try:
            return registered[1](payload)
        except Exception as exc:  # noqa: BLE001 - decode boundary
            # The rebuild hook is the owning module's code run on
            # outside input: whatever a payload of the wrong shape makes
            # it raise is a marshalling fault (cause chained), not the
            # caller's AttributeError.
            raise MarshalError(
                f"malformed {registered[0].__name__} value: {exc}") from exc

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos


def encode_any(value: Any, little_endian: bool = False) -> bytes:
    """Encode one value to standalone CDR bytes."""
    encoder = CdrEncoder(little_endian)
    encoder.write_any(value)
    return encoder.getvalue()


def decode_any(data: bytes, little_endian: bool = False) -> Any:
    """Decode one value from standalone CDR bytes."""
    return CdrDecoder(data, little_endian).read_any()
