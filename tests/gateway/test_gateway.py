"""Gateway (DB-API / JDBC analogue) tests: cursors, drivers, URLs."""

import pytest

from repro.errors import (ConnectionClosed, DriverNotFound, GatewayError,
                          TransactionError)
from repro.gateway import LocalDriver, parse_url
from repro.sql.dialect import DIALECTS
from repro.sql.engine import Database


@pytest.fixture()
def manager():
    db = Database("shop", dialect="oracle")
    db.execute("CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR(20), "
               "price REAL)")
    db.executemany("INSERT INTO item VALUES (?, ?, ?)",
                   [[1, "pen", 1.5], [2, "book", 12.0], [3, "lamp", 40.0]])
    driver = LocalDriver("oracle")
    driver.register_database(db)
    return driver


class TestUrls:
    def test_parse_simple(self):
        assert parse_url("jdbc:oracle:RBH") == ("oracle", None, "RBH")

    def test_parse_with_host(self):
        assert parse_url("jdbc:msql://h.example/med") == \
            ("msql", "h.example", "med")

    def test_malformed_url(self):
        with pytest.raises(GatewayError):
            parse_url("odbc:oracle:RBH")

    def test_no_driver_for_url(self, manager):
        with pytest.raises(DriverNotFound):
            manager.connect("jdbc:db2:Whatever")

    def test_unknown_database(self, manager):
        with pytest.raises(GatewayError):
            manager.connect("jdbc:oracle:Ghost")


class TestDrivers:
    def test_dialect_mismatch_rejected(self):
        driver = LocalDriver("oracle")
        with pytest.raises(GatewayError):
            driver.register_database(Database("x", dialect="msql"))

    def test_duplicate_database_rejected(self):
        driver = LocalDriver("generic")
        driver.register_database(Database("x"))
        with pytest.raises(GatewayError):
            driver.register_database(Database("x"))

    def test_vendor_driver_set(self):
        drivers = {name: LocalDriver(name) for name in DIALECTS}
        assert set(drivers) == {"oracle", "msql", "db2", "sybase", "generic"}
        for name, driver in drivers.items():
            db = Database(f"{name}-db", dialect=name)
            driver.register_database(db)
            connection = driver.connect(f"jdbc:{name}:{name}-db")
            assert connection.database is db
            for other in set(drivers) - {name}:
                with pytest.raises(DriverNotFound):
                    driver.connect(f"jdbc:{other}:{name}-db")


class TestCursorProtocol:
    def test_description_and_rowcount(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").cursor()
        assert cursor.rowcount == -1
        cursor.execute("SELECT id, name FROM item")
        assert [d[0] for d in cursor.description] == ["id", "name"]
        assert cursor.rowcount == 3

    def test_fetchone_sequence(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").execute(
            "SELECT id FROM item ORDER BY id")
        assert cursor.fetchone() == (1,)
        assert cursor.fetchone() == (2,)
        assert cursor.fetchone() == (3,)
        assert cursor.fetchone() is None

    def test_fetchmany_default_arraysize(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").execute(
            "SELECT id FROM item ORDER BY id")
        assert cursor.fetchmany() == [(1,)]
        cursor.arraysize = 2
        assert cursor.fetchmany() == [(2,), (3,)]

    def test_fetchall_consumes_remaining(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").execute(
            "SELECT id FROM item ORDER BY id")
        cursor.fetchone()
        assert cursor.fetchall() == [(2,), (3,)]
        assert cursor.fetchall() == []

    def test_iteration(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").execute(
            "SELECT name FROM item ORDER BY id")
        assert [row[0] for row in cursor] == ["pen", "book", "lamp"]

    def test_parameters(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").execute(
            "SELECT name FROM item WHERE price > ?", [10])
        assert sorted(r[0] for r in cursor.fetchall()) == ["book", "lamp"]

    def test_executemany(self, manager):
        connection = manager.connect("jdbc:oracle:shop")
        cursor = connection.cursor()
        cursor.executemany("INSERT INTO item VALUES (?, ?, ?)",
                           [[4, "cup", 3.0], [5, "mat", 6.0]])
        assert cursor.rowcount == 2

    def test_fetch_before_execute_raises(self, manager):
        with pytest.raises(GatewayError):
            manager.connect("jdbc:oracle:shop").cursor().fetchall()

    def test_closed_cursor_rejected(self, manager):
        cursor = manager.connect("jdbc:oracle:shop").cursor()
        cursor.close()
        with pytest.raises(ConnectionClosed):
            cursor.execute("SELECT 1")

    def test_closed_connection_rejected(self, manager):
        connection = manager.connect("jdbc:oracle:shop")
        connection.close()
        with pytest.raises(ConnectionClosed):
            connection.cursor()

    def test_context_managers(self, manager):
        with manager.connect("jdbc:oracle:shop") as connection:
            with connection.cursor() as cursor:
                cursor.execute("SELECT COUNT(*) FROM item")
                assert cursor.fetchone()[0] >= 3
        with pytest.raises(ConnectionClosed):
            connection.cursor()

    def test_commit_rollback_through_connection(self, manager):
        connection = manager.connect("jdbc:oracle:shop")
        connection.execute("BEGIN")
        connection.execute("DELETE FROM item")
        connection.rollback()
        cursor = connection.execute("SELECT COUNT(*) FROM item")
        assert cursor.fetchone()[0] >= 3

    def test_commit_keeps_the_transaction_and_ends_it(self, manager):
        connection = manager.connect("jdbc:oracle:shop")
        connection.execute("BEGIN")
        connection.execute("INSERT INTO item VALUES (4, 'mug', 6.0)")
        connection.commit()
        with pytest.raises(TransactionError):
            connection.commit()
        # A later rollback cannot take back what was committed.
        connection.execute("BEGIN")
        connection.rollback()
        cursor = connection.execute("SELECT name FROM item WHERE id = 4")
        assert cursor.fetchall() == [("mug",)]
