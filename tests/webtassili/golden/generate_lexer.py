"""Write ``lexer_corpus.json``: what the WebTassili lexer makes of ~300 texts.

For each text the corpus records either the tokens of
``repro.webtassili.lexer.tokenize`` as ``[type, value, position]`` or
the ``WebTassiliSyntaxError`` it raises as ``[message, column]``.
``tests/webtassili/test_lexer_golden.py`` replays it against the lexer
of the tree it runs in.

The file was written by the per-character lexer of commit ``67dba6b``
and pins that lexer's behaviour; do not regenerate it from a working
tree whose lexer has changed.  To rebuild it from that commit::

    git archive 67dba6b | tar -x -C /tmp/wt-lexer-67dba6b
    PYTHONPATH=/tmp/wt-lexer-67dba6b/src \\
        python tests/webtassili/golden/generate_lexer.py

The texts are those of the WebTassili unit tests, every statement kind
the budget benchmark's workloads send (with seeded names and literals),
and hostile cases: doubled quotes, negative, real and malformed
numbers, hyphenated words, Unicode letters and digits, and every error
the lexer raises.
"""

from __future__ import annotations

import ast
import json
import pathlib
import random

from repro.errors import WebTassiliSyntaxError
from repro.webtassili.lexer import tokenize

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "lexer_corpus.json"
UNIT_TESTS = ("test_language.py", "test_parse_memo.py")


def unit_test_texts() -> list[str]:
    """Every string constant of the WebTassili unit tests."""
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
    """Every statement kind of the budget benchmark, seeded literals."""
    databases = ("Royal Brisbane Hospital", "QUT Research", "Ambulance",
                 "Centre Link", "AMP", "Medibank", "Australian Taxation Office")
    coalitions = ("Medical", "Research", "Insurance", "Superannuation")
    topics = ("Medical Research", "superannuation", "O'Neill grants")
    conditions = ("Flu", "Asthma", "Fracture", "O'Neill review")
    texts = []
    for __ in range(5):
        database = rng.choice(databases)
        coalition = rng.choice(coalitions)
        topic = rng.choice(topics)
        patient, doctor = rng.randint(1, 2000), rng.randint(1, 40)
        condition = rng.choice(conditions)
        texts += [
            f"Find Coalitions With Information {quote(topic)}",
            f"Find Sources With Information {quote(topic)}",
            f"Find Coalitions With Information {quote(topic)} "
            f"Structure (Patient.Name, {rng.choice(['Grant', 'x.y.z'])})",
            f"Connect To Coalition {quote(coalition)}",
            f"Connect To Database {quote(database)}",
            f"Display SubClasses of Class {quote(coalition)}",
            f"Display Instances of Class {quote(coalition)}",
            f"Display Document of Instance {quote(database)}",
            f"Display Document of Instance {quote(database)} "
            f"Of Class {quote(coalition)}",
            f"Display Access Information of Instance {quote(database)}",
            f"Display Interface of Instance {quote(database)}",
            f"Display Structure of Instance {quote(database)}",
            f"Display Service Links of Coalition {quote(coalition)}",
            f"Display Service Links of Database {quote(database)}",
            f"Invoke 'PatientHistory' Of Type 'Patient' On "
            f"{quote(database)} With ({patient})",
            f"Invoke 'FundsByCategory' Of Type 'Fund' On Coalition "
            f"{quote(coalition)} With ({quote(condition)}, "
            f"{rng.randint(-50, 50)}.{rng.randint(0, 9)}, TRUE, NULL)",
            f"Invoke Balance Of Type Member On Database AMP With ()",
            "Query " + quote(database) + " Native " + quote(
                f"SELECT Name, Gender, DateOfBirth FROM Patient "
                f"WHERE PatientId = {patient}"),
            "Query " + quote(database) + " Native " + quote(
                "SELECT p.Name, h.Description FROM History h "
                "JOIN Patient p ON h.PatientId = p.PatientId "
                f"WHERE h.DoctorId = {doctor} "
                f"AND h.Description = {quote(condition)}"),
            "Query 'Ambulance' Native " + quote(
                f"SELECT callout_no FROM Callout WHERE on_date = "
                f"'199{rng.randint(0, 9)}-0{rng.randint(1, 9)}-1"
                f"{rng.randint(0, 9)}'"),
            "Query 'Royal Brisbane Hospital' Native " + quote(
                f"INSERT INTO MedicalStudent VALUES "
                f"({9000 + rng.randrange(500)}, 'Bench Student', 'MBBS', 1)"),
            f"Create Coalition {quote('Scratch ' + coalition)} With "
            f"Information {quote(topic)}",
            f"Dissolve Coalition {quote('Scratch ' + coalition)}",
            f"Join Database {quote(database)} To Coalition {quote(coalition)}",
            f"Leave Database {quote(database)} From Coalition "
            f"{quote(coalition)}",
            f"Create Service Link From Database {quote(database)} To "
            f"Coalition {quote(coalition)} With Description {quote(topic)}",
            f"Drop Service Link From Database {quote(database)} To "
            f"Coalition {quote(coalition)}",
            f"Advertise Source {quote(database)} Information {quote(topic)} "
            "Documentation 'http://x/doc' Location 'iiop://h:1/x' "
            "Wrapper 'oracle' Interface Patient, History Record",
        ]
    return texts


HOSTILE = [
    # bare multi-word names, keywords in any case, statement terminators
    "find coalitions with information medical research;",
    "FIND SOURCES WITH INFORMATION X", "Display Instances of Class Res_1;",
    "Connect To Database Royal Brisbane Hospital ;", "Display", ";", "",
    " ", "\t\n", "Display  Instances\tof\nClass  'X'  ;  ",
    # doubled quotes and strings
    "'it''s'", "''", "''''", "''''''", "'a''''b'", "'' ''", "'a''b''c'",
    "'é ٣ ²'", "'\x00'", "'line\nbreak'", "'-1'", "'1.2.3'", "'@#$'",
    "Find Coalitions With Information 'O''Neill'", "x'y'z", "'a''' b",
    # numbers
    "With (42, 3.5, -7)", "With (-0, 0.0, 00042, 1.)", "With (1..2)",
    "With (1.2.3)", "With (-)", "With (- 1)", "With (--1)", "With (-1-1)",
    "With (1-1)", "With (.5)", "With (5.)", "With (3.14159265358979323846)",
    "With (123456789012345678901234567890)", "With (1e5)", "With (1E-5)",
    "With (12abc)", "With (-12abc)", "With (1,2,3)", "With(1)", "-", "--",
    "-x", "x -1", "x-1", "x - 1", "x--1", "1-", "1.", ".1", "..", "1.x",
    # hyphenated and underscored words
    "Centre-Link", "Centre-Link-2", "Centre--Link", "a-", "a-b-c d-e",
    "_x", "__", "_-_", "x_1-2_y", "Find Coalitions With Information "
    "Health-Care Super-Annuation",
    # Unicode letters and digits
    "Display Instances of Class Café", "ſ", "İstanbul", "ß", "日本語",
    "Ωmega-٣", "x²", "x½", "xⅫ", "٣", "٣٤.٥", "-٣", "With (٣, -٤.٥)",
    "²", "1²", "-²", "²1", "½", "Ⅻ", "①", "x①", "1①", "٣²", "1.²",
    "x y", "x y", "x　y", "x\x1cy", "x\x85y",
    # every error
    "'open", "'", "'it''s", "x 'a''", "Find @", "@", "a@b", "#", "$1",
    "a:b", "!", "a != b", "a <> b", "a < b", "a > b", "a+b", "a*b",
    "a/b", "a%b", "a&b", "a|b", "a~b", "a^b", "`a`", '"a"', "[a]",
    "{a}", "a\\b", "x\x00y", "x\ny @", "With (1.2.3, 'x')",
    "With ('x', 1.2.3)", "Find Coalitions With Information 'X' @",
    # punctuation
    "();,.=", "a.b.c", "a=b", "(a)", "a,b", "Structure (A.b, c)",
    "With ((1))", "=;=", "..;",
]


def record(text: str) -> dict:
    try:
        tokens = tokenize(text)
    except WebTassiliSyntaxError as error:
        return {"text": text, "error": [error.args[0], error.column]}
    return {"text": text, "tokens": [[token.type.name, token.value,
                                      token.position] for token in tokens]}


def main() -> None:
    texts = unit_test_texts() + workload_texts(random.Random(1999)) + HOSTILE
    seen: set[str] = set()
    corpus = []
    for text in texts:
        if text not in seen:
            seen.add(text)
            corpus.append(record(text))
    OUT.write_text(json.dumps({"texts": corpus}, indent=1,
                              ensure_ascii=True) + "\n")
    print(f"{len(corpus)} texts -> {OUT}")


if __name__ == "__main__":
    main()
