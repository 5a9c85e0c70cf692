"""The statement/plan cache of :class:`Database`: compile once, run
many; keep what is hot; re-plan after any catalog change."""

import sys
import threading

import pytest

from repro.errors import CatalogError
from repro.sql.engine import Database
from repro.sql.result import ResultSet


@pytest.fixture()
def db():
    db = Database("cache")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                   [[i, i % 3, i * 10] for i in range(1, 7)])
    return db


class TestCompileOnceRunMany:
    def test_four_texts_compile_four_plans(self, db):
        texts = ["SELECT v FROM t WHERE id = ?",
                 "SELECT grp, COUNT(*) FROM t WHERE id > ? GROUP BY grp",
                 "UPDATE t SET v = v + 1 WHERE id = ?",
                 "SELECT COUNT(*) FROM t WHERE grp IN (SELECT grp FROM t WHERE id = ?)"]
        compiled, hits = db.plans_compiled, db.plan_cache_hits
        executed = db.statements_executed
        for i in range(1000):
            db.execute(texts[i % 4], [1 + i % 6])
        assert db.plans_compiled - compiled == 4
        assert db.plan_cache_hits - hits == 996
        assert db.statements_executed - executed == 1000

    def test_executemany_plans_once(self, db):
        compiled = db.plans_compiled
        db.executemany("INSERT INTO t (v, grp, id) VALUES (?, ?, ?)",
                       [[0, 0, i] for i in range(100, 150)])
        assert db.plans_compiled - compiled == 1
        assert db.row_count("t") == 56

    def test_cold_texts_do_not_evict_the_hot_one(self, db):
        hot = "SELECT v FROM t WHERE id = 3"
        assert db.execute(hot).scalar() == 30
        compiled = db.plans_compiled
        for i in range(600):  # more than the cache holds
            db.execute(f"SELECT v FROM t WHERE id = 1 -- cold {i}")
            assert db.execute(hot).scalar() == 30
        assert db.plans_compiled - compiled == 600  # the cold ones only

    def test_least_recently_used_text_goes_first(self, db):
        db.execute("SELECT 1")
        for i in range(600):
            db.execute(f"SELECT {i + 2}")
        compiled = db.plans_compiled
        db.execute("SELECT 1")      # evicted long ago
        db.execute("SELECT 601")    # still cached
        assert db.plans_compiled - compiled == 1

    def test_failed_planning_is_not_cached(self, db):
        for __ in range(2):
            with pytest.raises(CatalogError, match="no table"):
                db.execute("SELECT * FROM later")
        db.execute("CREATE TABLE later (x INT)")
        assert db.execute("SELECT * FROM later").rows == []


class TestCatalogChangesInvalidate:
    """Each DDL kind makes the next run of a cached ``SELECT *`` re-plan
    and return the post-DDL answer."""

    SELECT = "SELECT * FROM t WHERE grp = 1"

    def replanned(self, db, ddl, *more):
        before = db.execute(self.SELECT)
        assert db.execute(self.SELECT).rows == before.rows  # cached by now
        compiled = db.plans_compiled
        for statement in (ddl, *more):
            db.execute(statement)
        after = db.execute(self.SELECT)
        assert db.plans_compiled - compiled >= 1
        return before, after

    def plan(self, db):
        return [r[0] for r in db.execute(f"EXPLAIN {self.SELECT}").rows]

    def test_create_and_drop_index(self, db):
        assert "  SeqScan(t)" in self.plan(db)
        before, after = self.replanned(db, "CREATE INDEX ix ON t (grp)")
        assert after.rows == before.rows
        assert "  IndexLookup(t) key=(grp)" in self.plan(db)
        db.execute("INSERT INTO t VALUES (7, 1, 70)")
        assert len(db.execute(self.SELECT).rows) == len(before.rows) + 1
        __, after = self.replanned(db, "DROP INDEX ix")
        assert "  SeqScan(t)" in self.plan(db)
        db.execute("INSERT INTO t VALUES (10, 1, 100)")  # the old index is dead
        assert len(db.execute(self.SELECT).rows) == len(after.rows) + 1

    def test_alter_table_add_column(self, db):
        before, after = self.replanned(
            db, "ALTER TABLE t ADD COLUMN note VARCHAR(5) DEFAULT 'n'")
        assert after.columns == before.columns + ["note"]
        assert after.rows == [row + ("n",) for row in before.rows]

    def test_drop_and_create_view(self, db):
        db.execute("CREATE VIEW w AS SELECT id FROM t WHERE grp = 1")
        select = "SELECT * FROM w"
        assert db.execute(select).rows == db.execute(select).rows == [(1,), (4,)]
        db.execute("DROP VIEW w")
        db.execute("CREATE VIEW w AS SELECT id, v FROM t WHERE grp = 2")
        assert db.execute(select).rows == [(2, 20), (5, 50)]

    def test_drop_table_and_recreate(self, db):
        __, after = self.replanned(
            db, "DROP TABLE t", "CREATE TABLE t (grp INT, only_this INT)",
            "INSERT INTO t VALUES (1, 99)")
        assert after.columns == ["grp", "only_this"]
        assert after.rows == [(1, 99)]

    def test_rollback_of_a_created_table(self, db):
        db.execute("BEGIN")
        db.execute("CREATE TABLE fresh (x INT)")
        db.execute("INSERT INTO fresh VALUES (1)")
        assert db.execute("SELECT * FROM fresh").rows == [(1,)]
        compiled = db.plans_compiled
        db.execute("ROLLBACK")
        with pytest.raises(CatalogError, match="no table"):
            db.execute("SELECT * FROM fresh")
        assert db.execute(self.SELECT).rows  # replanned, still answers
        assert db.plans_compiled - compiled >= 1
        db.execute("CREATE TABLE fresh (x INT, y INT)")
        assert db.execute("SELECT * FROM fresh").columns == ["x", "y"]

    def test_rollback_restores_rows_under_cached_plans(self, db):
        count = "SELECT COUNT(*) FROM t WHERE id = 1"
        assert db.execute(count).scalar() == 1
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE id = 1")
        assert db.execute(count).scalar() == 0
        db.execute("ROLLBACK")
        assert db.execute(count).scalar() == 1


def test_concurrent_executions_keep_their_own_params(db):
    """One cached plan, many threads, each with its own ``?`` values —
    through a correlated subquery, so frames nest as well."""
    sql = ("SELECT id, ? FROM t o WHERE id = ? AND EXISTS "
           "(SELECT 1 FROM t i WHERE i.id = o.id AND i.v = ? * 10)")
    wrong: list = []

    def worker(key: int) -> None:
        for round_ in range(300):
            rows = db.execute(sql, [f"w{key}-{round_}", key, key]).rows
            if rows != [(key, f"w{key}-{round_}")]:
                wrong.append((key, round_, rows))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(key,))
                   for key in range(1, 7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert db.plans_compiled == 2  # the fixture's INSERT and this SELECT


class TestEachResultOwnsItsRows:
    """A result hands its caller a list no cached plan, table or later
    result shares; a probe copies the stored rows at read time."""

    READS = ["SELECT * FROM t", "SELECT v, id FROM t WHERE grp = 1",
             "SELECT * FROM t WHERE id = ?", "SELECT * FROM t WHERE id >= ?",
             "SELECT * FROM t WHERE id BETWEEN ? AND 6 AND v > 0"]

    @pytest.mark.parametrize("sql", READS)
    def test_two_executes_of_one_plan_return_independent_rows(self, db, sql):
        params = [1] * sql.count("?")
        first = db.execute(sql, params)
        compiled = db.plans_compiled
        second = db.execute(sql, params)
        assert db.plans_compiled == compiled  # the cached plan ran again
        assert first.rows == second.rows and first.rows is not second.rows
        expected = list(second.rows)
        first.rows.append((-1,))
        first.rows[0] = ("replaced",)
        first.columns.append("extra")
        assert second.rows == expected
        third = db.execute(sql, params)
        assert third.rows == expected and "extra" not in third.columns
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 6
        assert db.execute("SELECT * FROM t WHERE id = 1").rows == [(1, 1, 10)]

    def test_the_public_constructor_copies_rows_into_tuples(self):
        rows = [[1]]
        result = ResultSet(["a"], rows)
        assert result.rows == [(1,)]
        rows.append([2])
        assert result.rows == [(1,)]

    @pytest.mark.parametrize("probe", ["SELECT * FROM t WHERE id = 2",
                                       "SELECT * FROM t WHERE id <= 2"])
    def test_a_probe_reads_the_row_as_it_is_now(self, db, probe):
        before = db.execute(probe).rows
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = -1, grp = 9 WHERE id = 2")
        after = db.execute(probe).rows
        assert (2, 9, -1) in after and (2, 2, 20) not in after
        db.execute("ROLLBACK")
        assert db.execute(probe).rows == before
        assert (2, 2, 20) in before
