"""Write ``lexer_corpus.json``: what the SQL lexer makes of ~300 texts.

For each text the corpus records either the tokens of
``repro.sql.lexer.tokenize`` as ``[type, value, line, column]`` or the
``SqlSyntaxError`` it raises as ``[message, line, column]``.
``tests/sql/test_lexer_golden.py`` replays it against the lexer of the
tree it runs in.

The file was written by the per-character lexer of commit ``5113c89``
and pins that lexer's behaviour; do not regenerate it from a working
tree whose lexer has changed.  To rebuild it from that commit::

    git archive 5113c89 | tar -x -C /tmp/lexer-5113c89
    PYTHONPATH=/tmp/lexer-5113c89/src python tests/sql/golden/generate_lexer.py

The texts are those of ``tests/sql/test_lexer.py`` and
``tests/sql/test_parser.py``, the native SQL shapes of the budget
benchmark's workloads with seeded literals, and hostile cases.  Texts
that made that lexer raise anything but ``SqlSyntaxError`` (a
superscript digit, which ``str.isdigit`` accepts and ``int`` does not)
are left out: that was a bug, not behaviour to keep.
"""

from __future__ import annotations

import ast
import json
import pathlib
import random

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "lexer_corpus.json"
UNIT_TESTS = ("test_lexer.py", "test_parser.py")


def unit_test_texts() -> list[str]:
    """Every string constant of the lexer and parser unit tests."""
    texts = []
    for name in UNIT_TESTS:
        tree = ast.parse((HERE.parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
    return texts


def quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def workload_texts(rng: random.Random) -> list[str]:
    """The budget benchmark's native statement shapes, seeded keys."""
    conditions = ("Flu", "Asthma", "Fracture", "Diabetes", "O'Neill review")
    texts = []
    for __ in range(6):
        patient, doctor = rng.randint(1, 2000), rng.randint(1, 40)
        condition = conditions[rng.randrange(len(conditions))]
        first = 1 + 100 * rng.randrange(16)
        student = 9000 + rng.randrange(500)
        texts += [
            "SELECT Name, Gender, DateOfBirth FROM Patient "
            f"WHERE PatientId = {patient}",
            "SELECT DateRecorded, Description FROM History "
            f"WHERE PatientId = {patient}",
            "SELECT Gender, COUNT(*) FROM Patient "
            f"WHERE PatientId > {100 * rng.randrange(10)} GROUP BY Gender",
            f"SELECT * FROM Patient WHERE PatientId BETWEEN {first} "
            f"AND {first + 499}",
            "SELECT PatientId, DateRecorded FROM History "
            f"WHERE Description = {quote(condition)} AND DoctorId = {doctor}",
            "SELECT p.Name, h.Description FROM History h "
            "JOIN Patient p ON h.PatientId = p.PatientId "
            f"WHERE h.DoctorId = {doctor} "
            f"AND h.Description = {quote(condition)}",
            "INSERT INTO MedicalStudent VALUES "
            f"({student}, 'Bench Student', 'MBBS', 1)",
            f"SELECT Name FROM MedicalStudent WHERE StudentId = {student}",
            f"DELETE FROM MedicalStudent WHERE StudentId = {student}",
            "SELECT Title, Funding FROM ResearchProjects "
            f"WHERE Keywords LIKE {quote(rng.choice(['%medical%', '%qld%']))}",
            "SELECT Grant_Amount FROM Project WHERE Title = "
            + quote(rng.choice(["Telehealth", "Tumour imaging"])),
            f"UPDATE Patient SET Ward = 'W{doctor}', Weight = "
            f"{rng.randint(40, 120)}.{rng.randint(0, 9)} "
            f"WHERE PatientId = {patient}",
            "SELECT * FROM History WHERE DateRecorded >= "
            f"'199{rng.randint(0, 9)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}'",
        ]
    return texts


HOSTILE = [
    # comments that hold digits, quotes and markers
    "SELECT 1 -- 2 '3' \"4\" [5]", "SELECT /* 17 'x' */ 2",
    "SELECT a -- it's\nFROM t", "/* 'a' */ SELECT '/* b */'",
    "SELECT '-- not a comment' FROM t", "SELECT 1 /* a */ /* b */ 2",
    "SELECT 1--2\n+3", "SELECT 1/**/2", "SELECT 1 /* multi\nline\n*/ , 2",
    "SELECT 4 ---- more\n", "SELECT 1 /*/ still open */ 2",
    # '' escapes
    "SELECT 'O''Brien'", "SELECT ''''", "SELECT ''''''", "SELECT 'a''''b'",
    "SELECT '' , ''", "SELECT 'it''s' || ''''",
    # quoted identifiers that look like literals
    "SELECT [1] FROM t", 'SELECT "1" FROM t', 'SELECT "2.5e3", [\'x\']',
    'SELECT "a""b"', "SELECT [a]]b]", 'SELECT "select" FROM "from"',
    "SELECT [order], [group by] FROM [my table]",
    # identifiers with digits, numbers that are not quite numbers
    "SELECT t1, t2.c3 FROM t1", "SELECT 1e", "SELECT 1.e5", "SELECT .5e",
    "SELECT 1..2", "SELECT 1.2.3", "SELECT 1e+", "SELECT 1e-5", "SELECT 1E+5",
    "SELECT 5e5e5", "SELECT 1ea", "SELECT 1.", "SELECT .5", "SELECT ..5",
    "SELECT 00042", "SELECT 1_000", "SELECT 12abc", "SELECT a.5",
    "SELECT 3.14159265358979323846", "SELECT 1e999", "SELECT 123456789012345678901234567890",
    "SELECT -1, +2, - 3", "SELECT 1-1", "SELECT 1--1", "SELECT 2*-3",
    # unicode: letters, digits int() accepts, spaces
    "SELECT x¹ FROM t", "SELECT été FROM café",
    "SELECT ٣", "SELECT ٣٤.٥", "SELECT x٣ FROM t",
    "SELECT ½", "SELECT ſELECT", "SELECT İ", "SELECT ß",
    "SELECT\ta\tFROM\tt", "SELECT\n1\n,\n2", "SELECT\r\n1", "SELECT 1",
    "SELECT 1", "SELECT 　 1", "\n\n  SELECT 'a\nb', 2",
    "SELECT 'é٣²'", "SELECT '\x00'",
    # every unterminated form
    "SELECT 'oops", "SELECT 'it''s", "SELECT '", "SELECT ''''",
    "SELECT \"abc", "SELECT [abc", "SELECT /* open", "SELECT 1 /*",
    "SELECT 1 /* a */ /* b", "'", "\"", "[", "/*", "SELECT 'a\nb",
    "SELECT \"a\nb", "SELECT \"\"", "SELECT []", "SELECT 1 --",
    # characters no token starts with
    "SELECT @", "SELECT a@b", "SELECT $1", "SELECT #", "SELECT !", "SELECT !=",
    "SELECT a ! b", "SELECT |", "SELECT a | b", "SELECT a || b", "SELECT {",
    "SELECT `a`", "SELECT a:b", "SELECT ~1", "SELECT ^", "SELECT &",
    "SELECT 1\n  @", "SELECT\t\t@", "SELECT 'x'\n\n   $",
    # operators and punctuation
    "a<>b<=c>=d!=e||f=g<h>i+j-k*l/m%n", "SELECT (a),(b);", "SELECT *,t.*",
    "SELECT a<>-1", "SELECT a<=>b", "SELECT a=>b", "SELECT a>=<b",
    "SELECT ???", "SELECT ? , ?", "SELECT a ;; b", "", " ", "\n", "--", "-- x",
    "/**/", ";",
]


def record(text: str) -> dict:
    try:
        tokens = tokenize(text)
    except SqlSyntaxError as error:
        return {"text": text,
                "error": [error.args[0], error.line, error.column]}
    return {"text": text, "tokens": [[token.type.name, token.value,
                                      token.line, token.column]
                                     for token in tokens]}


def main() -> None:
    texts = unit_test_texts() + workload_texts(random.Random(1999)) + HOSTILE
    seen: set[str] = set()
    corpus = []
    for text in texts:
        if text in seen:
            continue
        seen.add(text)
        try:
            corpus.append(record(text))
        except ValueError:
            continue  # the superscript-digit bug, see the docstring
    OUT.write_text(json.dumps({"texts": corpus}, indent=1,
                              ensure_ascii=True) + "\n")
    print(f"{len(corpus)} texts -> {OUT}")


if __name__ == "__main__":
    main()
