"""``ResultSet/4`` against ``golden/result_set_corpus.json``.

The corpus was written by an earlier encoder (see
``golden/generate_result_sets.py``).  Every result in it, rebuilt from
the file alone, must encode to exactly the recorded bytes in both byte
orders, and the recorded bytes must decode to an equal result: every
name, kind and rowcount, every cell of the same exact type (floats bit
for bit), read from bytes and from a ``memoryview`` alike.
"""

import json
import pathlib

import pytest

from repro.orb.cdr import decode_any, encode_any
from tests.gateway.golden.generate_result_sets import rebuild
from tests.gateway.test_result_set_wire import same_result

CORPUS = json.loads((pathlib.Path(__file__).parent / "golden"
                     / "result_set_corpus.json").read_text())["results"]
ORDERS = pytest.mark.parametrize("order", ["big", "little"])


def test_the_corpus_is_the_size_it_was_written_at():
    assert len(CORPUS) == 86
    counts = {entry["result"]["count"] for entry in CORPUS.values()}
    assert {0, 1, 2, 500} <= counts


@ORDERS
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_a_result_is_written_as_and_read_back_from_its_recorded_bytes(
        name, order):
    entry = CORPUS[name]
    little = order == "little"
    value = rebuild(entry["result"])
    data = bytes.fromhex(entry[order])
    assert encode_any(value, little).hex() == entry[order]
    assert same_result(value, decode_any(data, little))
    assert same_result(value, decode_any(memoryview(data), little))
