"""Generator for ``cdr_golden.json``: value -> hex in both byte orders.

``VALUES`` and ``frames()`` were encoded by the codec of commit
``eb762ab`` (the chunk-list encoder), so they pin the *bytes* across any
change of mechanics::

    PYTHONPATH=<checkout of eb762ab>/src python tests/orb/gen_cdr_golden.py

``RESULT_SETS`` are in the column-packed form, which did not exist at
that commit; ``--result-sets`` rewrites only that section from the
working tree and leaves the pinned ones as they are.  ``test_cdr_golden``
reads the values from here and the bytes from the JSON file.
"""

import datetime
import enum
import json
import pathlib
import sys

import repro.gateway.bridge  # noqa: F401  (registers ResultSet)
from repro.core.coalition import Coalition
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.orb.cdr import encode_any
from repro.orb.giop import (DEADLINE_BUDGET_CONTEXT, ORB_PRODUCT_CONTEXT,
                            TRAFFIC_CLASS_CONTEXT, LocateReplyMessage,
                            LocateRequestMessage, LocateStatus, ReplyMessage,
                            ReplyStatus, RequestMessage, busy_reply,
                            encode_message)
from repro.sql.result import ResultSet

GOLDEN = pathlib.Path(__file__).with_name("cdr_golden.json")


class Colour(enum.IntEnum):
    RED = 1
    DEEP = 2**40


class Label(str):
    pass


LINK = ServiceLink(EndpointKind.DATABASE, "ATO", EndpointKind.COALITION,
                   "Medical", "tax records", "ATO to Medical", contact="RBH")
DAY = datetime.date(1999, 3, 23)

VALUES = {
    "null": None, "true": True, "false": False,
    "longs": [0, -1, 1, -2**31, 2**31 - 1],
    "longlongs": [2**31, -2**31 - 1, 2**63 - 1, -2**63],
    "bigints": [2**63, -2**63 - 1, 2**64, 2**200, -2**200],
    "doubles": [0.0, -0.0, 1.5, float("inf"), float("-inf"), float("nan"),
                5e-324, 1.7976931348623157e308],
    "strings": ["", "a", "hé", "\x00", "𝄞 astral 😀", "x" * 300],
    "octets": [b"", b"\x00\xff", bytes(range(256))],
    "dates": [datetime.date.min, datetime.date.max,
              datetime.date(1970, 1, 1), DAY],
    "empty_containers": [[], {}, [[]], {"": {}}],
    "struct": {"name": "codb", "blob": b"xyz", "n": 7, "": None},
    "tuple": (1, "two", (3.0, None)),
    "int_enum": [Colour.RED, Colour.DEEP],
    "str_subclass": [Label("tagged"), {Label("key"): Label("")}],
    "endpoint_kind": [EndpointKind.COALITION, EndpointKind.DATABASE],
    "service_link": LINK,
    "coalition": Coalition("Medical", "medical research", "Health", "doc",
                           ["RBH", "QUT Research"]),
    "coalition_no_parent": Coalition("C", "t"),
    "source_description": SourceDescription(
        "RBH", "hospital", "http://rbh/doc", "dba.icis.qut.edu.au",
        "dba.icis.qut.edu.au/WebTassiliOracle", ["Patient", "History"],
        "Oracle", "VisiBroker", ["Patient.Name", "Funding"]),
    "values_in_containers": {"links": [LINK, LINK], "kind": (
        EndpointKind.DATABASE,), "nested": Coalition("C", "t", members=[
            LINK, [Coalition("D", "u")]])},
    # A string of k characters in front moves everything behind it
    # through every alignment offset 0-7.
    **{f"aligned_{k}": ["x" * k, 1, 2**40, 1.5, "s", b"o", DAY, True, -2**70,
                        {"k" * k: [2**40, {"d": 2.5, "l": [DAY, 7]}]}]
       for k in range(8)},
}

#: The tuple and the subclasses arrive as their plain base types.
DECODES_AS = {
    "tuple": [1, "two", [3.0, None]],
    "int_enum": [1, 2**40],
    "str_subclass": ["tagged", {"key": ""}],
    "values_in_containers": dict(VALUES["values_in_containers"],
                                 kind=[EndpointKind.DATABASE]),
}

RESULT_SETS = {
    "point": ResultSet(["PatientId", "Name"], [(7, "Ann")]),
    "every_kind": ResultSet(
        ["long", "longlong", "double", "date", "boolean", "string", "any"],
        [(1, 2**40, 1.5, DAY, True, "hé", b"\x00"),
         (-2**31, -2**63, -0.0, datetime.date.min, False, "", [1, "x"]),
         (None, None, None, None, None, None, None),
         (2**31 - 1, 7, float("inf"), datetime.date.max, True, "𝄞\x00", 2**70)]),
    "fallbacks": ResultSet(["true_among_ints", "bigint", "mixed"],
                           [(1, 2**63, 1), (True, 0, "one"), (2, -1, 1.0)]),
    "all_null_column": ResultSet(["a", "b"], [(None, 1), (None, None)]),
    "dml": ResultSet.empty(2**40),
    "no_rows": ResultSet(["a", "b", "c"], []),
    "no_columns": ResultSet([], [(), (), ()]),
    "nested": ResultSet(["cell"], [(ResultSet(["x"], [(1,)]),), (LINK,)]),
}


def frames():
    contexts = [(ORB_PRODUCT_CONTEXT, "OrbixWeb"),
                (DEADLINE_BUDGET_CONTEXT, "0.250000"),
                (TRAFFIC_CLASS_CONTEXT, "background")]
    request = RequestMessage(
        request_id=2**32 - 1, object_key=b"orb/CoDatabase/RBH",
        operation="find_coalitions", arguments=["medical research", LINK, 7],
        service_context=contexts)
    messages = {
        "request": request,
        "request_oneway_no_arguments": RequestMessage(
            request_id=1, object_key=b"", operation="ping",
            response_expected=False),
        "reply": ReplyMessage(request_id=9, status=ReplyStatus.NO_EXCEPTION,
                              body=VALUES["aligned_3"],
                              service_context=contexts),
        "reply_user_exception": ReplyMessage(
            request_id=9, status=ReplyStatus.USER_EXCEPTION,
            body={"exception": "UnknownDatabase", "message": "no such: 'X'"}),
        "locate_request": LocateRequestMessage(request_id=5,
                                               object_key=b"orb/X/obj1"),
        "locate_reply": LocateReplyMessage(request_id=5,
                                           status=LocateStatus.OBJECT_HERE),
    }
    out = {name: [encode_message(message, little).hex()
                  for little in (False, True)]
           for name, message in messages.items()}
    out["busy"] = [busy_reply(encode_message(request, little), "queue-full",
                              little_endian=little).hex()
                   for little in (False, True)]
    return out


def encode_all(values):
    return {name: [encode_any(value, little).hex() for little in (False, True)]
            for name, value in values.items()}


if __name__ == "__main__":
    if "--result-sets" in sys.argv:
        golden = json.loads(GOLDEN.read_text())
    else:
        golden = {"values": encode_all(VALUES), "frames": frames()}
    golden["result_sets"] = encode_all(RESULT_SETS)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
