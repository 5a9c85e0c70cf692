"""JDBC-over-IIOP bridge tests."""

import datetime

import pytest

from repro.errors import CatalogError, GatewayError
from repro.gateway import DriverManager, RemoteDriver, serve_database
from repro.orb import (InMemoryNetwork, create_orb, decode_any, encode_any,
                       ORBIXWEB, VISIBROKER, start_naming_service)
from repro.sql.engine import Database
from repro.sql.result import ResultSet


@pytest.fixture()
def bridge():
    db = Database("Medicare", dialect="oracle")
    db.execute("CREATE TABLE enrol (id INT PRIMARY KEY, name VARCHAR(30), "
               "since DATE)")
    db.execute("INSERT INTO enrol VALUES (1, 'Alice', '1990-05-20'), "
               "(2, 'Bob', '1995-11-02')")
    network = InMemoryNetwork()
    server_orb = create_orb(ORBIXWEB, network, host="db.medicare.gov.au")
    client_orb = create_orb(VISIBROKER, network, host="client")
    __, naming = start_naming_service(server_orb)
    ior = serve_database(server_orb, db)
    naming.bind("webfindit/db/Medicare", ior)
    manager = DriverManager()
    manager.register(RemoteDriver(client_orb, naming))
    return manager, network, db


class TestRemoteConnection:
    def test_select_over_iiop(self, bridge):
        manager, network, __ = bridge
        connection = manager.connect("jdbc:iiop:Medicare")
        network.metrics.reset()
        cursor = connection.execute("SELECT name FROM enrol ORDER BY id")
        assert cursor.fetchall() == [("Alice",), ("Bob",)]
        assert network.metrics.messages_sent == 1

    def test_dates_cross_the_wire(self, bridge):
        manager, __, __ = bridge
        cursor = manager.connect("jdbc:iiop:Medicare").execute(
            "SELECT since FROM enrol WHERE id = 1")
        assert cursor.fetchone()[0] == datetime.date(1990, 5, 20)

    def test_params_cross_the_wire(self, bridge):
        manager, __, __ = bridge
        cursor = manager.connect("jdbc:iiop:Medicare").execute(
            "SELECT name FROM enrol WHERE id = ?", [2])
        assert cursor.fetchone() == ("Bob",)

    def test_dml_rowcount(self, bridge):
        manager, __, db = bridge
        cursor = manager.connect("jdbc:iiop:Medicare").execute(
            "INSERT INTO enrol VALUES (3, 'Carol', '1998-01-01')")
        assert cursor.rowcount == 1
        assert db.row_count("enrol") == 3

    def test_remote_metadata(self, bridge):
        manager, __, __ = bridge
        connection = manager.connect("jdbc:iiop:Medicare")
        assert connection.banner == "Oracle 8.0.5"
        assert connection.table_names() == ["enrol"]

    def test_remote_error_propagates(self, bridge):
        manager, __, __ = bridge
        connection = manager.connect("jdbc:iiop:Medicare")
        with pytest.raises(CatalogError):
            connection.execute("SELECT * FROM nonexistent")

    def test_unknown_remote_database(self, bridge):
        manager, __, __ = bridge
        from repro.errors import NamingError
        with pytest.raises(NamingError):
            manager.connect("jdbc:iiop:Ghost")


class TestWireFormat:
    def test_result_roundtrip(self):
        result = ResultSet(columns=["a", "b"],
                           rows=[(1, "x"), (None, datetime.date(1998, 1, 1))])
        revived = decode_any(encode_any(result))
        assert revived.columns == result.columns
        assert revived.rows == result.rows
        assert revived.rowcount == result.rowcount

    def test_empty_result_roundtrip(self):
        revived = decode_any(encode_any(ResultSet.empty(5)))
        assert revived.rowcount == 5
        assert revived.rows == []
