"""The day table behind a ``ResultSet/4`` DATE column.

A packed DATE column arrives as ordinals; the decoder reads each date
out of ``bridge._DAYS`` (ordinal -> ``date``), makes the days it lacks
once per column, and never lets the table grow past
``bridge._DAYS_HELD``.  Every decoded column must equal
``date.fromordinal`` cell for cell, however the table stood before; an
ordinal no date has is a ``MarshalError`` and never enters the table.
"""

import datetime
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.sql import result as bridge
from repro.orb.cdr import decode_any, encode_any
from repro.sql.result import ResultSet
from repro.sql.types import SqlType
from tests.orb.test_cdr_properties import header, hostile

CI_PROFILE = settings.default is settings.get_profile("ci")
SETTINGS = settings.default if CI_PROFILE \
    else settings(derandomize=True, deadline=None)

MIN, MAX = datetime.date.min.toordinal(), datetime.date.max.toordinal()


@pytest.fixture(autouse=True)
def fresh_table(monkeypatch):
    """Each test starts from an empty table of its own."""
    monkeypatch.setattr(bridge, "_DAYS", {})


def round_trip(cells, little_endian=False):
    result = ResultSet.from_columns(["d"], [cells], len(cells),
                                    [SqlType.DATE])
    return decode_any(encode_any(result, little_endian),
                      little_endian).column("d")


def decoded(ordinals):
    return list(bridge._dates(ordinals))


def date_column(ordinals):
    """A frame of one DATE column holding *ordinals* as packed."""
    return hostile(lambda e: (header(e, ["d"], len(ordinals)),
                              e.write_octet(0x40 | bridge._DATE),
                              e.write_ulong(0),
                              e.write_array("i", ordinals)))


@given(cells=st.lists(st.dates() | st.none(), max_size=60),
       warm=st.lists(st.dates(), max_size=20),
       little_endian=st.booleans())
@SETTINGS
def test_a_decoded_column_equals_fromordinal_cell_for_cell(
        cells, warm, little_endian):
    bridge._DAYS.clear()
    round_trip(warm)  # some of the days may already be in the table
    arrived = round_trip(cells, little_endian)
    assert arrived == cells
    assert all(type(cell) is (datetime.date if expected is not None
                              else type(None))
               for cell, expected in zip(arrived, cells))
    ordinals = [cell.toordinal() for cell in cells if cell is not None]
    assert decoded(ordinals) == list(
        map(datetime.date.fromordinal, ordinals))


def test_a_known_day_is_the_shared_date():
    """A date is immutable: a second column reads the same object."""
    first = round_trip([datetime.date(1999, 3, 23)])
    second = round_trip([datetime.date(1999, 3, 23), None])
    assert first[0] is second[0]
    assert set(bridge._DAYS) == {datetime.date(1999, 3, 23).toordinal(),
                                 MIN}  # a NULL cell travels as date.min


def test_more_days_than_the_table_holds_keep_it_at_its_bound(monkeypatch):
    monkeypatch.setattr(bridge, "_DAYS_HELD", 64)
    start = datetime.date(1990, 1, 1).toordinal()
    for offset in range(0, 400, 24):
        # 48 days a column, half of them new: the table overflows and
        # starts again many times over.
        ordinals = list(range(start + offset, start + offset + 48))
        assert decoded(ordinals) == list(
            map(datetime.date.fromordinal, ordinals))
        assert len(bridge._DAYS) <= 64
    # A column of more distinct days than the table holds is answered
    # in full, and the table stays within its bound.
    ordinals = list(range(start, start + 100)) * 2
    assert decoded(ordinals) == list(
        map(datetime.date.fromordinal, ordinals))
    assert len(bridge._DAYS) <= 64


def test_the_real_bound_holds_over_a_column_wider_than_it():
    held = bridge._DAYS_HELD
    cells = [datetime.date.fromordinal(MIN + day) for day in range(held + 9)]
    round_trip(cells[:100])
    assert round_trip(cells) == cells
    assert len(bridge._DAYS) <= held
    assert round_trip(cells[-50:]) == cells[-50:]
    assert len(bridge._DAYS) <= held


@pytest.mark.parametrize("ordinal", [0, MAX + 1, -1, -2**31, 2**31 - 1])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_an_ordinal_no_date_has_is_refused_and_never_kept(ordinal, warm):
    if warm:
        bridge._dates([MIN, MAX, 730000])
    before = dict(bridge._DAYS)
    for ordinals in ([ordinal], [MIN, ordinal, 730000], [ordinal] * 3):
        with pytest.raises(MarshalError, match="date"):
            decode_any(date_column(ordinals))
        assert ordinal not in bridge._DAYS
        assert set(bridge._DAYS) <= set(before) | {MIN, 730000}
    with pytest.raises(MarshalError):
        bridge._dates([ordinal])
    assert ordinal not in bridge._DAYS


def test_threads_that_overflow_the_table_together_get_every_day(monkeypatch):
    """Decoders on several threads fill and clear one table: none sees
    a day go missing between its fill and its lookup."""
    monkeypatch.setattr(bridge, "_DAYS_HELD", 40)
    start = datetime.date(1990, 1, 1).toordinal()
    wrong = []

    def decode(thread):
        for turn in range(1000):
            first = start + (thread * 7 + turn * 13) % 500
            ordinals = list(range(first, first + 30))
            try:
                right = decoded(ordinals) == list(
                    map(datetime.date.fromordinal, ordinals))
            except Exception as exc:  # noqa: BLE001 - reported below
                right = exc
            if right is not True:
                wrong.append((thread, turn, right))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode, args=(thread,))
                   for thread in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [] and len(bridge._DAYS) <= 40
