"""Generator for ``cdr_golden.json``: value -> hex in both byte orders.

The *pinned* sections — ``values`` (``VALUES``), ``frames``
(``frames()``) and the ``RETIRED_AT_EB762AB`` entries of ``retired`` —
were encoded by the codec of commit ``eb762ab`` (the chunk-list
encoder), so they pin the *bytes* across any change of mechanics::

    PYTHONPATH=<checkout of eb762ab>/src python tests/orb/gen_cdr_golden.py

``retired`` holds wire forms this codec no longer reads, written by
four commits: decoding one must be a ``MarshalError`` for an unknown
value type, never a misparse.  The ``eb762ab`` entries are the
nine-key struct ``SourceDescription`` and the seven-key struct
``ServiceLink`` (the last two were the ``service_link`` and
``values_in_containers`` vectors of ``values``, moved over byte for
byte when ``ServiceLink/2`` replaced that struct).  The
``result_set_2_*`` entries (``RETIRED_RESULT_SET_2``) are the
``result_sets`` section of commit ``353b5d5`` — ``ResultSet/2``, whose
string columns carried a character-length array — moved over byte for
byte when ``ResultSet/3`` replaced it, and ``result_set_3_nested``
(``RETIRED_AT_7FD89D0``) is the ``nested`` vector of ``7fd89d0``'s
``result_sets``, whose cell holds a struct ``ServiceLink``.  The other
``result_set_3_*`` entries (``RETIRED_RESULT_SET_3``) are the
``result_sets`` section of commit ``011c70a`` — ``ResultSet/3``, which
carried no declared column kinds — moved over byte for byte when
``ResultSet/4`` replaced it (its ``nested`` vector, whose cell holds a
``ServiceLink/2``, as ``result_set_3_nested_link_2``); nothing here
rewrites those.

The *working-tree* sections — ``result_sets`` (``RESULT_SETS``, the
column-packed ``ResultSet/4``, undeclared and declared columns),
``descriptions`` (``DESCRIPTIONS``, the positional
``SourceDescription/2``), ``service_links``
(``SERVICE_LINKS``, the positional ``ServiceLink/2``) and
``consult_answers`` (``consult_answers()``, ``ConsultAnswer/1``) — are
forms that did not exist at ``eb762ab``; ``--working-tree`` rewrites
only those sections from the working tree and leaves the pinned ones as
they are.  Run it only when one of those wire forms changes on purpose
(a new type id), after moving the section's old bytes into ``retired``.
``test_cdr_golden`` reads the values from here and the bytes from the
JSON file.
"""

import datetime
import enum
import json
import pathlib
import sys

import repro.sql.result  # noqa: F401  (registers ResultSet)
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
from repro.sql.types import SqlType

GOLDEN = pathlib.Path(__file__).with_name("cdr_golden.json")


class Colour(enum.IntEnum):
    RED = 1
    DEEP = 2**40


class Label(str):
    pass


LINK = ServiceLink(EndpointKind.DATABASE, "ATO", EndpointKind.COALITION,
                   "Medical", "tax records", "ATO to Medical", contact="RBH")
DAY = datetime.date(1999, 3, 23)
DESCRIPTION = SourceDescription(
    "RBH", "hospital", "http://rbh/doc", "dba.icis.qut.edu.au",
    "dba.icis.qut.edu.au/WebTassiliOracle", ["Patient", "History"],
    "Oracle", "VisiBroker", ["Patient.Name", "Funding"])

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
    "coalition": Coalition("Medical", "medical research", "Health", "doc",
                           ["RBH", "QUT Research"]),
    "coalition_no_parent": Coalition("C", "t"),
    # A string of k characters in front moves everything behind it
    # through every alignment offset 0-7.
    **{f"aligned_{k}": ["x" * k, 1, 2**40, 1.5, "s", b"o", DAY, True, -2**70,
                        {"k" * k: [2**40, {"d": 2.5, "l": [DAY, 7]}]}]
       for k in range(8)},
}

#: Value types inside containers inside value types.
IN_CONTAINERS = {"links": [LINK, LINK], "kind": (EndpointKind.DATABASE,),
                 "nested": Coalition("C", "t", members=[
                     LINK, [Coalition("D", "u")]])}

#: The tuple and the subclasses arrive as their plain base types.
DECODES_AS = {
    "tuple": [1, "two", [3.0, None]],
    "int_enum": [1, 2**40],
    "str_subclass": ["tagged", {"key": ""}],
    "values_in_containers": dict(IN_CONTAINERS, kind=[EndpointKind.DATABASE]),
}

#: The struct forms of ``SourceDescription`` (type id
#: ``SourceDescription``, replaced by ``SourceDescription/2``) and of
#: ``ServiceLink`` (type id ``ServiceLink``, replaced by
#: ``ServiceLink/2``).
RETIRED_AT_EB762AB = {"source_description": DESCRIPTION,
                      "service_link": LINK,
                      "values_in_containers": IN_CONTAINERS}

SERVICE_LINKS = {
    "service_link": LINK,
    "service_link_empty_strings": ServiceLink(
        EndpointKind.COALITION, "", EndpointKind.COALITION, ""),
    "service_link_astral": ServiceLink(
        EndpointKind.COALITION, "𝄞 Clinic", EndpointKind.DATABASE, "a\x00b",
        "pædiatrics 😀", "", contact="Ωmega"),
    "values_in_containers": IN_CONTAINERS,
    # A string of k characters in front moves the link through every
    # alignment offset 0-7.
    **{f"service_link_aligned_{k}": ["x" * k, LINK] for k in range(8)},
}

DESCRIPTIONS = {
    "description": DESCRIPTION,
    "description_empty_lists": SourceDescription("Solo", "t"),
    "description_empty_strings": SourceDescription(
        "", "", "", "", "", [""], "", "", ["", ""]),
    "description_astral": SourceDescription(
        "𝄞 Clinic", "pædiatrics 😀", "http://x/\x00", interface=["Ωmega"],
        structure=["𝄞.Name", "Δ"]),
    # A string of k characters in front moves the description through
    # every alignment offset 0-7.
    **{f"description_aligned_{k}": ["x" * k, DESCRIPTION] for k in range(8)},
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
    "nul_in_a_string": ResultSet(["packed", "per_cell"],
                                 [("hé 𝄞", "a\x00b"), (None, None), ("", "")]),
    # Declared kinds, as the engine hands them out: each column packed
    # by its kind, unsniffed, with the fallbacks a kind still has.
    "declared": ResultSet.from_columns(
        ["long", "longlong", "bigint", "double", "text", "nul", "date",
         "boolean", "holes"],
        [(1, None, -2**31), (2**40, -2**63, None), (2**63, 0, None),
         (1.5, -0.0, None), ("hé", "", None), ("a\x00b", None, ""),
         (DAY, datetime.date.min, None), (True, None, False),
         (None, None, None)], 3,
        [SqlType.INTEGER, SqlType.INTEGER, SqlType.INTEGER, SqlType.REAL,
         SqlType.TEXT, SqlType.TEXT, SqlType.DATE, SqlType.BOOLEAN,
         SqlType.INTEGER]),
    "declared_no_rows": ResultSet.from_columns(
        ["i", "r", "t", "d", "b", "any"], [()] * 6, 0,
        [*SqlType, None]),
}

#: ``ResultSet/2`` bytes of the ``result_sets`` values ``353b5d5`` had.
RETIRED_RESULT_SET_2 = {
    f"result_set_2_{name}": RESULT_SETS[name]
    for name in ("point", "every_kind", "fallbacks", "all_null_column", "dml",
                 "no_rows", "no_columns", "nested")}

#: ``ResultSet/3`` bytes of ``7fd89d0`` whose cell holds a struct
#: ``ServiceLink``.
RETIRED_AT_7FD89D0 = {"result_set_3_nested": RESULT_SETS["nested"]}

#: ``ResultSet/3`` bytes of the ``result_sets`` values ``011c70a`` had.
RETIRED_RESULT_SET_3 = {
    "result_set_3_nested_link_2" if name == "nested"
    else f"result_set_3_{name}": RESULT_SETS[name]
    for name in ("point", "every_kind", "fallbacks", "all_null_column", "dml",
                 "no_rows", "no_columns", "nested", "nul_in_a_string")}

RETIRED = {**RETIRED_AT_EB762AB, **RETIRED_RESULT_SET_2,
           **RETIRED_AT_7FD89D0, **RETIRED_RESULT_SET_3}


def consult_answers():
    """``ConsultAnswer/1`` vectors (a function: the class is newer than
    ``eb762ab``, whose codec writes the pinned sections)."""
    from repro.core.codatabase import CoalitionMatch, ConsultAnswer, LinkLead
    match = CoalitionMatch("Medical", "medical research", 1.0,
                           ("RBH", "QUT Research"))
    lonely = CoalitionMatch("Empty", "", 0.5, ())
    lead = LinkLead("coalition", "Medical", "tax records", 0.75,
                    "ATO_to_Medical", "RBH")
    full = ConsultAnswer((match, lonely), (lead,), ("RBH", "QUT"),
                         ("Alpha", "Beta"))
    return {
        "answer_empty": ConsultAnswer(),
        "answer_matches_only": ConsultAnswer((match, lonely)),
        "answer_leads_only": ConsultAnswer(leads=(
            lead, LinkLead("database", "ATO", "", 0.5, "RBH_to_ATO", ""))),
        "answer_neighbours_asked": full,
        "answer_neighbours_not_asked": ConsultAnswer(
            full.matches, full.leads, full.contacts),
        "answer_strings": ConsultAnswer(
            (CoalitionMatch("", "𝄞 pædiatrics 😀", 0.0, ("", "a\x00b")),),
            (LinkLead("", "\x00", "", float("inf"), "𝄞_to_\x00", ""),),
            ("",), ("😀",)),
        # A string of k characters in front moves the answer through
        # every alignment offset 0-7.
        **{f"answer_aligned_{k}": ["x" * k, full] for k in range(8)},
    }


def frames():
    contexts = [(ORB_PRODUCT_CONTEXT, "OrbixWeb"),
                (DEADLINE_BUDGET_CONTEXT, "0.250000"),
                (TRAFFIC_CLASS_CONTEXT, "background")]
    # The value-type argument is one the eb762ab codec still writes as
    # today's does (a ServiceLink no longer is).
    request = RequestMessage(
        request_id=2**32 - 1, object_key=b"orb/CoDatabase/RBH",
        operation="find_coalitions",
        arguments=["medical research", VALUES["coalition"], 7],
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
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if "--working-tree" in sys.argv:
        golden.update(result_sets=encode_all(RESULT_SETS),
                      descriptions=encode_all(DESCRIPTIONS),
                      service_links=encode_all(SERVICE_LINKS),
                      consult_answers=encode_all(consult_answers()))
    else:
        golden.update(values=encode_all(VALUES), frames=frames(),
                      retired={**golden.get("retired", {}),
                               **encode_all(RETIRED_AT_EB762AB)})
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
