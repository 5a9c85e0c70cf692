"""The ``ResultSet`` CDR value type (``repro.sql.result`` registers it)."""

import datetime

from repro.orb import decode_any, encode_any
from repro.sql.result import ResultSet


class TestWireFormat:
    def test_result_roundtrip(self):
        result = ResultSet(columns=["a", "b"],
                           rows=[(1, "x"), (None, datetime.date(1998, 1, 1))])
        revived = decode_any(encode_any(result))
        assert revived.columns == result.columns
        assert revived.rows == result.rows
        assert revived.rowcount == result.rowcount

    def test_empty_result_roundtrip(self):
        revived = decode_any(encode_any(ResultSet.empty(5)))
        assert revived.rowcount == 5
        assert revived.rows == []
