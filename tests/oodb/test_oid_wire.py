"""An object reference crosses the wire as itself (``Oid/1``)."""

import pytest

from repro.errors import MarshalError
from repro.oodb import Oid
from repro.orb import decode_any, encode_any


@pytest.mark.parametrize("value", [
    Oid(1), Oid(2**63 - 1), [Oid(3), None, Oid(4)],
    {"station": Oid(7), "_oid": 9, "visits": [Oid(1), Oid(2)]},
])
def test_a_reference_round_trips_as_an_equal_oid(value):
    decoded = decode_any(encode_any(value))
    assert decoded == value
    assert repr(decoded) == repr(value)  # Oid(n), never the integer n


def test_the_wire_form_is_the_type_id_then_a_long_long():
    for little in (True, False):
        octets = encode_any(Oid(5), little_endian=little)
        assert octets.endswith((5).to_bytes(8, "little" if little else "big"))
        assert b"Oid/1\x00" in octets


@pytest.mark.parametrize("value", [Oid("5"), Oid(2**63), Oid(None)])
def test_a_reference_without_an_integer_is_a_marshal_error(value):
    with pytest.raises(MarshalError, match="Oid"):
        encode_any(value)


def test_a_truncated_reference_is_a_marshal_error():
    octets = encode_any(Oid(5))
    for end in range(len(octets)):
        with pytest.raises(MarshalError):
            decode_any(octets[:end])
