"""Golden byte vectors: the codec's bytes, pinned across its mechanics.

``cdr_golden.json`` holds value -> hex, both byte orders, for every
``any`` tag at its extremes, containers at every alignment offset, the
model value types, subclasses of ``int`` / ``str``, and whole GIOP
frames.  Those sections were generated by ``gen_cdr_golden.py`` running
on the codec of commit ``eb762ab`` — the encoder has to write exactly
those bytes and the decoder has to read them back.  The
``result_sets``, ``descriptions``, ``service_links`` and
``consult_answers`` sections pin the column-packed ``ResultSet/4`` and
the positional ``SourceDescription/2``, ``ServiceLink/2`` and
``ConsultAnswer/1`` the same way for the next change; the ``retired``
section keeps the forms they replaced (the nine-key
``SourceDescription``, the seven-key ``ServiceLink``, ``ResultSet/2``,
``ResultSet/3``), which must now be refused.
"""

import json

import pytest

from repro.errors import MarshalError
from repro.orb.cdr import decode_any, encode_any
from repro.orb.giop import decode_message, encode_message
from repro.sql.result import ResultSet
from tests.orb import gen_cdr_golden as gen

GOLDEN = json.loads(gen.GOLDEN.read_text())
ORDERS = pytest.mark.parametrize("little", [False, True],
                                 ids=["big", "little"])


def plain(value):
    """A comparable form: ``repr`` tells ``-0.0`` from ``0.0``, ``True``
    from ``1`` and ``nan`` from nothing; a ResultSet's is its fields."""
    if isinstance(value, ResultSet):
        return repr(("ResultSet", value.columns, value.kinds, value.rowcount,
                     [[plain(cell) for cell in row] for row in value.rows]))
    return repr(value)


#: Section of the JSON file -> the values its vectors encode.
SECTIONS = {"values": gen.VALUES, "result_sets": gen.RESULT_SETS,
            "descriptions": gen.DESCRIPTIONS,
            "service_links": gen.SERVICE_LINKS,
            "consult_answers": gen.consult_answers()}
PINNED = [(section, name) for section, values in SECTIONS.items()
          for name in values]


def test_every_vector_has_a_value_and_every_value_a_vector():
    for section, values in SECTIONS.items():
        assert set(GOLDEN[section]) == set(values)
    assert set(GOLDEN["retired"]) == set(gen.RETIRED)
    assert set(GOLDEN["frames"]) == set(gen.frames())


@ORDERS
@pytest.mark.parametrize("section, name", PINNED,
                         ids=[name for __, name in PINNED])
def test_a_value_is_written_as_and_read_back_from_its_pinned_bytes(
        section, name, little):
    value = SECTIONS[section][name]
    data = bytes.fromhex(GOLDEN[section][name][little])
    assert encode_any(value, little).hex() == data.hex()
    decoded = decode_any(data, little)
    assert plain(decoded) == plain(gen.DECODES_AS.get(name, value))
    assert encode_any(decoded, little) == data
    assert plain(decode_any(memoryview(data), little)) == plain(decoded)


@ORDERS
@pytest.mark.parametrize("name", sorted(GOLDEN["retired"]))
def test_a_retired_wire_form_is_refused_as_an_unknown_value_type(
        name, little):
    """A stale peer's bytes fail on their type id, never misparse."""
    data = bytes.fromhex(GOLDEN["retired"][name][little])
    assert encode_any(gen.RETIRED[name], little) != data
    with pytest.raises(MarshalError, match="unknown CDR value type"):
        decode_any(data, little)


@ORDERS
@pytest.mark.parametrize("name", sorted(GOLDEN["frames"]))
def test_a_frame_is_written_as_and_read_back_from_its_pinned_bytes(
        name, little):
    data = bytes.fromhex(GOLDEN["frames"][name][little])
    assert gen.frames()[name][little] == data.hex()
    assert encode_message(decode_message(data), little) == data
    assert encode_message(decode_message(memoryview(data)), little) == data
