"""Write ``result_set_corpus.json``: ``ResultSet/4`` bytes of 86 results.

Each entry records a result — its names, declared kinds, rowcount and
every cell, each cell tagged with its exact type — and the bytes
``encode_any`` writes for it in big- and little-endian order.
``tests/gateway/test_result_set_corpus.py`` rebuilds every result from
the file alone, encodes it with the codec of the tree it runs in and
requires the recorded bytes, then decodes them back to an equal result.

The file was written by the encoder of commit ``1870bdb`` and pins the
bytes that encoder wrote; do not regenerate it from a working tree whose
``ResultSet`` codec has changed.  To rebuild it from that commit::

    git archive 1870bdb | tar -x -C /tmp/result-sets-1870bdb
    PYTHONPATH=/tmp/result-sets-1870bdb/src \\
        python tests/gateway/golden/generate_result_sets.py

The results cover every declared kind and undeclared (sniffed) columns
of every packing; NULL cells first, last, in every position and alone;
INTEGER cells at the ends of ``long`` and ``long long`` and one past
each (so ``long long`` and the per-cell ``any``); ``date.min`` and
``date.max``; TEXT with NUL (per cell), empty and non-ASCII strings;
0, 1, 2 and 500 rows; zero-column results; DML rowcounts.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import random

import repro.sql.result  # noqa: F401  (registers ResultSet)
from repro.orb.cdr import encode_any
from repro.sql.result import ResultSet
from repro.sql.types import SqlType

OUT = pathlib.Path(__file__).resolve().with_name("result_set_corpus.json")

I, R, T, D, B = (SqlType.INTEGER, SqlType.REAL, SqlType.TEXT, SqlType.DATE,
                 SqlType.BOOLEAN)
DAY = datetime.date(1999, 3, 23)

#: One non-null sample cell per declared kind, and what stands in a
#: sniffed column of each packing.
SAMPLE = {I: 7, R: 2.5, T: "hé", D: DAY, B: True, None: "x"}
#: Cells of every exact type the sniff packs, per packing.
SNIFFED = {"int": [0, -1, 2**31 - 1, -2**31], "float": [0.5, -0.0, 1e300],
           "str": ["a", "", "é"], "date": [DAY, datetime.date.min],
           "bool": [True, False]}

#: The ends of ``long`` and ``long long`` and one past each.
LONG_ENDS = [-2**31, 2**31 - 1]
LONGLONG_ENDS = [-2**31 - 1, 2**31, -2**63, 2**63 - 1]
ANY_ENDS = [-2**63 - 1, 2**63]


def column(kind, cells):
    return kind, list(cells)


def result(columns, count=None, rowcount=None, names=None):
    """A result of ``(kind, cells)`` columns, named ``c0``, ``c1`` ..."""
    count = len(columns[0][1]) if count is None else count
    names = [f"c{i}" for i in range(len(columns))] if names is None \
        else names
    return ResultSet.from_columns(
        names, [cells for __, cells in columns], count,
        [kind for kind, __ in columns], rowcount)


def results() -> dict[str, ResultSet]:
    rng = random.Random(1870)
    corpus: dict[str, ResultSet] = {}
    kinds = [*SqlType, None]
    label = {kind: "undeclared" if kind is None else kind.value.lower()
             for kind in kinds}
    # Every declared kind, and an undeclared column, at 0, 1 and 2 rows.
    for kind in kinds:
        sample = SAMPLE[kind]
        corpus[f"{label[kind]}_0_rows"] = result([column(kind, [])], 0)
        corpus[f"{label[kind]}_1_row"] = result([column(kind, [sample])])
        corpus[f"{label[kind]}_2_rows"] = result(
            [column(kind, [sample, sample])])
        corpus[f"{label[kind]}_all_null"] = result(
            [column(kind, [None, None, None])])
        corpus[f"{label[kind]}_1_null"] = result([column(kind, [None])])
        # One NULL at every position of five rows, one column each.
        corpus[f"{label[kind]}_null_everywhere"] = result(
            [column(kind, [None if row == position else sample
                           for row in range(5)]) for position in range(5)])
        corpus[f"{label[kind]}_null_first_and_last"] = result(
            [column(kind, [None, sample, sample, None])])
    # Sniffed columns of every packing, with and without holes, and the
    # mixtures the sniff must send per cell.
    for name, cells in SNIFFED.items():
        corpus[f"sniffed_{name}"] = result([column(None, cells)])
        corpus[f"sniffed_{name}_holes"] = result(
            [column(None, [None, *cells, None])])
    corpus["sniffed_mixtures"] = result([
        column(None, [True, 1, False]), column(None, [1, 1.0, 2]),
        column(None, ["a", 1, None]), column(None, [DAY, "1999-03-23", DAY]),
        column(None, [b"\x00", [1, "x"], None])])
    corpus["sniffed_longlong_ints"] = result([column(None, LONGLONG_ENDS)])
    corpus["sniffed_wide_ints"] = result([
        column(None, [0, *ANY_ENDS]), column(None, [2**70, -2**70, None])])
    # INTEGER at the ends of long and long long and one past each.
    for name, ends in (("long", LONG_ENDS), ("longlong", LONGLONG_ENDS),
                       ("any", ANY_ENDS)):
        for value in ends:
            corpus[f"integer_{name}_{value}"] = result(
                [column(I, [value, 0]), column(I, [None, value])])
        corpus[f"integer_{name}_ends"] = result([column(I, ends)])
    corpus["integer_past_2_63_among_nulls"] = result(
        [column(I, [None, 2**63, None, -2**70])])
    corpus["integer_small"] = result([column(I, [0, 1, -1, 255, 256])])
    # Dates at their ends.
    corpus["date_ends"] = result([
        column(D, [datetime.date.min, datetime.date.max]),
        column(None, [datetime.date.max, datetime.date.min])])
    corpus["date_ends_holes"] = result(
        [column(D, [None, datetime.date.min, datetime.date.max, None])])
    # Reals that are not plain numbers.
    corpus["real_specials"] = result([column(R, [
        -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e308])])
    # TEXT: NUL in a cell (per cell), empty and non-ASCII strings.
    corpus["text_nul"] = result([column(T, ["a\x00b", "", None]),
                                 column(T, ["\x00", "x", "y"])])
    corpus["text_empty"] = result([column(T, ["", "", ""]),
                                   column(T, ["", "a", ""])])
    corpus["text_non_ascii"] = result([column(T, [
        "Ünïcödé", "日本語", "𝄞😀", "Ω", " ​"])])
    corpus["text_nul_only_cell"] = result([column(T, ["\x00"])])
    corpus["text_one_empty_cell"] = result([column(T, [""])])
    # Booleans.
    corpus["boolean_mixed"] = result([column(B, [True, False, None, True])])
    # Zero-column results: a query with no columns and DML / DDL.
    corpus["no_columns_0_rows"] = result([], 0)
    corpus["no_columns_3_rows"] = result([], 3)
    corpus["dml_rowcount"] = ResultSet.empty(2**40)
    corpus["dml_zero"] = ResultSet.empty(0)
    corpus["rowcount_differs"] = result([column(I, [1, 2])], rowcount=7)
    # Names: empty, non-ASCII, repeated.
    corpus["names"] = result([column(I, [1]), column(T, ["x"]),
                              column(None, [None])],
                             names=["", "Ünï", ""])
    # Every kind side by side, declared and undeclared, with holes.
    corpus["every_kind_side_by_side"] = result([
        column(I, [1, None, 2**40]), column(R, [1.5, None, -0.0]),
        column(T, ["hé", None, ""]), column(D, [DAY, None, datetime.date.max]),
        column(B, [True, None, False]), column(None, [None, 3, 4]),
        column(None, [None, "s", "t"]), column(None, [1, "mixed", None])])
    # 500 rows shaped like the benchmark's bulk select over ``Patient``
    # (id, name, date of birth, gender, address), without and with holes.
    ids = list(range(801, 1301))
    patients = [
        column(I, ids),
        column(T, [f"Patient {pid:04d}" for pid in ids]),
        column(D, [datetime.date(rng.randint(1920, 1989), rng.randint(1, 9),
                                 rng.randint(10, 19)) for __ in ids]),
        column(T, ["MF"[pid % 2] for pid in ids]),
        column(T, [f"{pid} Example St, Brisbane" for pid in ids])]
    corpus["bulk_500_rows"] = result(
        patients, names=["PatientId", "Name", "DateOfBirth", "Gender",
                         "Address"])
    corpus["bulk_500_rows_holes"] = result(
        [(kind, [None if rng.random() < 0.1 else cell for cell in cells])
         for kind, cells in patients]
        + [column(R, [rng.random() for __ in ids]),
           column(B, [rng.random() < 0.5 for __ in ids]),
           column(I, [rng.randint(-2**40, 2**40) for __ in ids]),
           column(None, [rng.choice([None, 1, 2.5, "x"]) for __ in ids])])
    return corpus


# -------------------------------------------------------------- cells --

def tag(cell):
    """A cell as JSON: ``[exact type, value]``, exact to the bit."""
    kind = type(cell)
    if cell is None:
        return ["null"]
    if kind is bool:
        return ["bool", cell]
    if kind is int:
        return ["int", str(cell)]
    if kind is float:
        return ["float", cell.hex()]
    if kind is str:
        return ["str", cell]
    if kind is bytes:
        return ["bytes", cell.hex()]
    if kind is datetime.date:
        return ["date", cell.toordinal()]
    if kind is list:
        return ["list", [tag(item) for item in cell]]
    raise TypeError(f"no corpus form for {kind.__name__}")


def untag(entry):
    kind = entry[0]
    return {
        "null": lambda: None, "bool": lambda: entry[1],
        "int": lambda: int(entry[1]), "float": lambda: float.fromhex(entry[1]),
        "str": lambda: entry[1], "bytes": lambda: bytes.fromhex(entry[1]),
        "date": lambda: datetime.date.fromordinal(entry[1]),
        "list": lambda: [untag(item) for item in entry[1]],
    }[kind]()


def describe(value: ResultSet) -> dict:
    return {"columns": value.columns,
            "kinds": [None if kind is None else kind.value
                      for kind in value.kinds],
            "rowcount": value.rowcount, "count": len(value),
            "values": [[tag(cell) for cell in cells]
                       for cells in value.values]}


def rebuild(description: dict) -> ResultSet:
    return ResultSet.from_columns(
        description["columns"],
        [[untag(cell) for cell in cells] for cells in description["values"]],
        description["count"],
        [None if kind is None else SqlType(kind)
         for kind in description["kinds"]],
        description["rowcount"])


def main() -> None:
    entries = {}
    for name, value in results().items():
        entries[name] = {"result": describe(value),
                         "big": encode_any(value, False).hex(),
                         "little": encode_any(value, True).hex()}
    # One result per line: the file diffs by result.
    lines = [f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
             for name, entry in sorted(entries.items())]
    OUT.write_text('{"written_by": "1870bdb", "results": {\n'
                   + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(entries)} results to {OUT}")


if __name__ == "__main__":
    main()
