"""EXPLAIN plan descriptions."""

import pytest

from repro.sql.engine import Database


@pytest.fixture()
def db():
    db = Database("ex")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v REAL)")
    db.execute("CREATE TABLE u (id INT PRIMARY KEY, name VARCHAR(10))")
    db.execute("CREATE INDEX idx_grp ON t (grp)")
    return db


def plan_lines(db, sql):
    return [row[0] for row in db.execute(f"EXPLAIN {sql}").rows]


class TestExplain:
    def test_seq_scan(self, db):
        lines = plan_lines(db, "SELECT * FROM t")
        assert lines[0] == "Select"
        assert lines[1] == "  SeqScan(t)"

    def test_pk_index_lookup(self, db):
        lines = plan_lines(db, "SELECT * FROM t WHERE id = 5")
        assert "  IndexLookup(t) key=(id)" in lines

    def test_secondary_index_lookup_with_residual(self, db):
        lines = plan_lines(db, "SELECT * FROM t WHERE grp = 2 AND v > 1")
        assert "  IndexLookup(t) key=(grp)" in lines
        assert any("Filter: t" not in line and "Filter:" in line
                   for line in lines)

    def test_hash_join(self, db):
        lines = plan_lines(db, "SELECT * FROM t JOIN u ON t.id = u.id")
        assert any("HashJoin[INNER] on t.id = u.id" in line
                   for line in lines)

    def test_nested_loop_for_inequality(self, db):
        lines = plan_lines(db, "SELECT * FROM t JOIN u ON t.id < u.id")
        assert any("NestedLoop[INNER]" in line for line in lines)

    def test_aggregate_and_sort_lines(self, db):
        lines = plan_lines(
            db, "SELECT grp, COUNT(*) FROM t GROUP BY grp "
                "ORDER BY grp DESC LIMIT 3")
        assert "  Aggregate: group by grp" in lines
        assert "  Sort: grp DESC" in lines
        assert "  Limit: 3" in lines

    def test_scalar_aggregate(self, db):
        lines = plan_lines(db, "SELECT COUNT(*) FROM t")
        assert "  Aggregate: scalar" in lines

    def test_union(self, db):
        lines = plan_lines(db, "SELECT id FROM t UNION ALL SELECT id FROM u")
        assert lines[0] == "Union[ALL]"

    def test_view_expands_to_derived(self, db):
        db.execute("CREATE VIEW vw AS SELECT id FROM t WHERE v > 0")
        lines = plan_lines(db, "SELECT * FROM vw")
        assert any("Derived(vw)" in line for line in lines)
        assert any("SeqScan(t)" in line for line in lines)

    def test_dml_explained(self, db):
        # UPDATE and DELETE show the access path their rows come from.
        assert plan_lines(db, "DELETE FROM t WHERE id = 1") == [
            "Delete(t)", "  IndexLookup(t) key=(id)"]
        assert plan_lines(db, "UPDATE t SET v = 0") == [
            "Update(t)", "  SeqScan(t)"]
        assert plan_lines(db, "UPDATE t SET v = 0 WHERE grp = 1 AND v > 2") == [
            "Update(t)", "  IndexLookup(t) key=(grp)", "  Filter: v > 2"]
        assert plan_lines(db, "INSERT INTO t VALUES (1, 1, 1.0)") == [
            "Insert(t)"]

    def test_alias_shown(self, db):
        lines = plan_lines(db, "SELECT * FROM t alias")
        assert "  SeqScan(t) as alias" in lines

    def test_explain_does_not_execute(self, db):
        db.execute("INSERT INTO t VALUES (1, 1, 1.0)")
        db.execute("EXPLAIN DELETE FROM t")
        assert db.row_count("t") == 1

    def test_explain_twice_is_one_compile(self, db):
        compiled = db.plans_compiled
        first = plan_lines(db, "SELECT v FROM t WHERE id = 1")
        assert plan_lines(db, "SELECT v FROM t WHERE id = 1") == first
        assert db.plans_compiled - compiled == 1

    def test_left_join_right_side_conjunct_stays_above(self, db):
        lines = plan_lines(
            db, "SELECT t.id FROM t LEFT JOIN u ON t.id = u.id "
                "WHERE u.name IS NULL AND t.grp = 2")
        assert lines == [
            "Select",
            "  HashJoin[LEFT] on t.id = u.id",
            "    IndexLookup(t) key=(grp)",
            "    SeqScan(u)",
            "  Filter: u.name IS NULL"]

    def test_explain_non_planned_statements(self, db):
        assert plan_lines(db, "CREATE TABLE z (a INT)") == ["CreateTable"]
        assert plan_lines(db, "BEGIN") == ["BeginTransaction"]
        assert "z" not in db.table_names() and not db.in_transaction


class TestExplainBenchmarkScans:
    """The four scan shapes of ``benchmarks/budget`` (``query_mem``)."""

    @pytest.fixture()
    def rbh(self):
        db = Database("rbh")
        db.execute("CREATE TABLE Patient (PatientId INT PRIMARY KEY, "
                   "Name VARCHAR(30), Gender CHAR(1))")
        db.execute("CREATE TABLE History (PatientId INT, DoctorId INT, "
                   "DateRecorded DATE, Description VARCHAR(40))")
        db.execute("CREATE INDEX idx_history_patient ON History (PatientId)")
        return db

    def test_bulk(self, rbh):
        assert plan_lines(
            rbh, "SELECT * FROM Patient WHERE PatientId BETWEEN 101 AND 600"
        ) == ["Select", "  SeqScan(Patient)",
              "  Filter: PatientId BETWEEN 101 AND 600"]

    def test_aggregate(self, rbh):
        assert plan_lines(
            rbh, "SELECT Gender, COUNT(*) FROM Patient "
                 "WHERE PatientId > 300 GROUP BY Gender"
        ) == ["Select", "  SeqScan(Patient)", "  Filter: PatientId > 300",
              "  Aggregate: group by Gender"]

    def test_selective(self, rbh):
        assert plan_lines(
            rbh, "SELECT PatientId, DateRecorded FROM History "
                 "WHERE Description = 'asthma' AND DoctorId = 7"
        ) == ["Select", "  SeqScan(History)",
              "  Filter: Description = 'asthma' AND DoctorId = 7"]

    def test_join_filters_history_before_joining(self, rbh):
        lines = plan_lines(
            rbh, "SELECT p.Name, h.Description FROM History h "
                 "JOIN Patient p ON h.PatientId = p.PatientId "
                 "WHERE h.DoctorId = 7 AND h.Description = 'asthma'")
        assert lines == [
            "Select",
            "  HashJoin[INNER] on h.PatientId = p.PatientId",
            "    SeqScan(History) as h",
            "    Filter: h.DoctorId = 7 AND h.Description = 'asthma'",
            "    SeqScan(Patient) as p"]
