"""Declared output kinds against the cells they declare.

The planner gives each output column a kind — the declared ``SqlType``
of a base-table column it reads as it is, else None — and the wire
writes a declared column by that kind without looking at its cells
(``ResultSet/4``).  That is sound only while every stored non-null cell
is exactly ``STORED_AS[type]``, whatever Python value was inserted.

**Differential.**  Hypothesis draws rows for the healthcare RBH
``Patient`` and ``History`` tables, and for a ``Vitals`` table of the
REAL and BOOLEAN kinds RBH lacks, out of values storage must coerce —
``IntEnum`` and ``bool`` keys, ``str`` subclasses, ``datetime``\\ s, date
subclasses and ISO text for dates, ints for text, NULLs — and runs the
benchmark workloads' native SQL shapes (point, indexed, aggregate,
bulk, selective, join) and the other shapes a result can take (outer
joins, DISTINCT / ORDER BY / LIMIT, derived tables, views, UNION,
computed columns).  Every declared kind must equal the exact type of
every non-null cell of its column, before and after the wire; and the
kinds are the ones the shape declares.
"""

import datetime
import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.healthcare.schemas import RBH_DDL
from repro.orb import decode_any, encode_any
from repro.sql.engine import Database
from repro.sql.types import STORED_AS, SqlType

CI_PROFILE = settings.default is settings.get_profile("ci")
SETTINGS = settings.default if CI_PROFILE \
    else settings(derandomize=True, deadline=None, max_examples=40)

I, R, T, D, B = (SqlType.INTEGER, SqlType.REAL, SqlType.TEXT, SqlType.DATE,
                 SqlType.BOOLEAN)


class Ward(enum.IntEnum):
    CARDIAC = 3
    RENAL = 12


class Label(str):
    pass


class Day(datetime.date):
    pass


def _sniffed(result):
    """Each column's kind holds for every non-null cell."""
    for name, kind, column in zip(result.columns, result.kinds,
                                  result.values):
        if kind is not None:
            wrong = {type(cell).__name__ for cell in column
                     if cell is not None and type(cell) is not STORED_AS[kind]}
            assert not wrong, f"{name} is {kind} but holds {wrong}"


ids = st.integers(1, 40) | st.sampled_from(list(Ward))
dates = st.one_of(st.none(), st.dates(), st.datetimes(),
                  st.dates().map(lambda day: Day(day.year, day.month,
                                                 day.day)),
                  st.dates().map(datetime.date.isoformat))
texts = st.one_of(st.text(max_size=5), st.text(max_size=5).map(Label),
                  st.integers(-9, 9))
conditions = st.sampled_from(["asthma", Label("flu"), "fracture"])
doctors = st.none() | st.integers(1, 3) | st.booleans()

patients = st.lists(st.tuples(st.sampled_from(["M", "F", None]), dates,
                              texts, texts),
                    max_size=30).map(lambda rows: [
    [pid, name, born, gender, address]
    for pid, (gender, born, name, address) in enumerate(rows, 1)])
histories = st.lists(st.tuples(st.none() | ids, dates, st.none() | conditions,
                               st.none() | texts, doctors).map(list),
                     max_size=30)
#: A table of the two kinds RBH lacks: REAL and BOOLEAN.
vitals = st.lists(st.tuples(
    ids, st.none() | st.floats(allow_nan=False) | st.integers(-99, 99)
    | st.sampled_from(list(Ward)) | st.booleans(),
    st.none() | st.booleans() | st.sampled_from([0, 1, "true", "FALSE"])
).map(list), max_size=20)

#: (SQL, the kinds it declares): the budget's native shapes first.
SHAPES = [
    ("SELECT Name, Gender, DateOfBirth FROM Patient WHERE PatientId = 7",
     [T, T, D]),
    ("SELECT DateRecorded, Description FROM History WHERE PatientId = 12",
     [D, T]),
    ("SELECT Gender, COUNT(*) FROM Patient WHERE PatientId > 3 "
     "GROUP BY Gender", [T, None]),
    ("SELECT * FROM Patient WHERE PatientId BETWEEN 2 AND 25",
     [I, T, D, T, T]),
    ("SELECT PatientId, DateRecorded FROM History "
     "WHERE Description = 'flu' AND DoctorId = 1", [I, D]),
    ("SELECT p.Name, h.Description FROM History h "
     "JOIN Patient p ON h.PatientId = p.PatientId "
     "WHERE h.DoctorId = 1 AND h.Description = 'flu'", [T, T]),
    ("SELECT p.PatientId, h.DateRecorded, h.DoctorId FROM Patient p "
     "LEFT JOIN History h ON h.PatientId = p.PatientId", [I, D, I]),
    ("SELECT h.DoctorId, p.DateOfBirth FROM History h "
     "RIGHT JOIN Patient p ON h.PatientId = p.PatientId", [I, D]),
    ("SELECT * FROM History h JOIN Patient p USING (PatientId)",
     [I, D, T, T, I, T, D, T, T]),
    ("SELECT DISTINCT Gender, DateOfBirth FROM Patient "
     "ORDER BY DateOfBirth LIMIT 5 OFFSET 1", [T, D]),
    ("SELECT x.Name, x.n FROM (SELECT Name, PatientId + 1 AS n "
     "FROM Patient) x", [T, None]),
    ("SELECT * FROM Born", [I, D]),
    ("SELECT PatientId FROM Patient UNION SELECT DoctorId FROM History",
     [None]),
    ("SELECT p.PatientId * 2, UPPER(p.Name), "
     "CASE WHEN p.Gender = 'M' THEN 1 END, MAX(h.DoctorId) "
     "FROM Patient p, History h GROUP BY p.PatientId",
     [None, None, None, None]),
    ("SELECT Name, (SELECT MAX(h.DateRecorded) FROM History h "
     "WHERE h.PatientId = Patient.PatientId) FROM Patient", [T, None]),
    ("SELECT 1, 'a', DoctorId = 1 FROM History", [None, None, None]),
    ("SELECT * FROM Vitals", [I, R, B]),
    ("SELECT p.Name, v.Weight, v.Smoker FROM Patient p "
     "LEFT JOIN Vitals v ON v.PatientId = p.PatientId "
     "WHERE v.Weight > 0 OR v.Smoker", [T, R, B]),
]


def _database(**tables):
    database = Database("RBH")
    database.execute_script(RBH_DDL)
    database.execute("CREATE VIEW Born AS SELECT PatientId, DateOfBirth "
                     "FROM Patient")
    database.execute("CREATE INDEX history_patient ON History (PatientId)")
    database.execute("CREATE TABLE Vitals (PatientId INT, Weight REAL, "
                     "Smoker BOOLEAN)")
    for table, rows in tables.items():
        database.load_rows(table, rows)
    return database


@given(patient_rows=patients, history_rows=histories, vital_rows=vitals)
@SETTINGS
def test_a_declared_kind_is_the_type_of_every_cell_it_declares(
        patient_rows, history_rows, vital_rows):
    database = _database(Patient=patient_rows, History=history_rows,
                         Vitals=vital_rows)
    for sql, kinds in SHAPES:
        result = database.execute(sql)
        assert result.kinds == kinds, sql
        _sniffed(result)
        arrived = decode_any(encode_any(result))
        assert arrived.kinds == kinds and arrived.rows == result.rows, sql
        _sniffed(arrived)


def test_a_subclass_value_is_stored_as_its_base_type():
    """Storage keeps ``STORED_AS`` exactly: an ``IntEnum`` / ``str``
    subclass row reads back as ``int`` / ``str`` in process, the same as
    over the wire."""
    database = Database("t")
    database.execute("CREATE TABLE t (n INTEGER, s TEXT, d DATE, r REAL)")
    database.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                     [Ward.CARDIAC, Label("y"), Day(1999, 3, 23), Ward.RENAL])
    database.execute("UPDATE t SET s = ? WHERE n = 3", [Label("z")])
    row = database.execute("SELECT * FROM t").rows[0]
    assert row == (3, "z", datetime.date(1999, 3, 23), 12.0)
    assert [type(cell) for cell in row] == [int, str, datetime.date, float]
