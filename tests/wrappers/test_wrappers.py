"""Wrapper (Information Source Interface) tests for all three kinds."""

import datetime

import pytest

from repro.errors import AccessError, CatalogError, TranslationError
from repro.gateway import LocalDriver
from repro.oodb import Attribute, ObjectDatabase
from repro.orb import InMemoryNetwork, create_orb, ORBIX, ORBIXWEB
from repro.sql.engine import Database
from repro.wrappers import (CallableBinding, ExportedAttribute,
                            ExportedFunction, ExportedType, ISI_INTERFACE,
                            ObjectDbWrapper, OqlBinding, RelationalWrapper,
                            RemoteIsi, SqlBinding, serve_isi)


def projects_type():
    return ExportedType(
        "ResearchProjects",
        attributes=[ExportedAttribute("ResearchProjects.Title", "string")],
        functions=[
            ExportedFunction("Funding", ("title",), "real",
                             SqlBinding("SELECT Funding FROM projects "
                                        "WHERE Title = ?", ("title",))),
            ExportedFunction("All", (), "rows",
                             SqlBinding("SELECT * FROM projects")),
            ExportedFunction("Unbound", ()),
        ])


@pytest.fixture()
def relational():
    db = Database("RBH", dialect="oracle")
    db.execute("CREATE TABLE projects (Title VARCHAR(60), Funding REAL)")
    db.execute("INSERT INTO projects VALUES ('AIDS and drugs', 1250000.0), "
               "('Melanoma', 400000.0)")
    driver = LocalDriver("oracle")
    driver.register_database(db)
    connection = driver.connect("jdbc:oracle:RBH")
    return RelationalWrapper("RBH", connection,
                             exported_types=[projects_type()])


class TestExportModel:
    def test_render_type_declaration(self):
        rendered = projects_type().render()
        assert rendered.startswith("Type ResearchProjects {")
        assert "attribute string ResearchProjects.Title;" in rendered
        assert "function real Funding(title);" in rendered

    def test_function_lookup_case_insensitive(self):
        exported = projects_type()
        assert exported.function("funding").name == "Funding"

    def test_missing_function(self):
        with pytest.raises(AccessError):
            projects_type().function("Ghost")

    def test_duplicate_export_rejected(self, relational):
        with pytest.raises(AccessError):
            relational.export_type(projects_type())

    def test_describe_shape(self, relational):
        description = relational.describe()
        assert description["source"] == "RBH"
        assert description["language"] == "SQL"
        type_entry = description["types"][0]
        assert type_entry["name"] == "ResearchProjects"
        assert {f["name"] for f in type_entry["functions"]} == \
            {"Funding", "All", "Unbound"}


class TestRelationalWrapper:
    def test_scalar_invoke(self, relational):
        assert relational.invoke("ResearchProjects", "Funding",
                                 ["AIDS and drugs"]) == 1250000.0

    def test_rows_invoke(self, relational):
        result = relational.invoke("ResearchProjects", "All", [])
        assert len(result.rows) == 2

    def test_arity_checked(self, relational):
        with pytest.raises(AccessError):
            relational.invoke("ResearchProjects", "Funding", [])

    def test_unbound_function_rejected(self, relational):
        with pytest.raises(TranslationError):
            relational.invoke("ResearchProjects", "Unbound", [])

    def test_generate_sql_matches_paper(self, relational):
        sql = relational.generate_sql("ResearchProjects", "Funding",
                                      ["AIDS and drugs"])
        assert sql == ("SELECT Funding FROM projects "
                       "WHERE Title = 'AIDS and drugs'")

    def test_generate_sql_escapes_quotes(self, relational):
        sql = relational.generate_sql("ResearchProjects", "Funding",
                                      ["O'Neil's study"])
        assert "''" in sql

    def test_native_execution(self, relational):
        result = relational.execute_native(
            "SELECT COUNT(*) FROM projects WHERE Funding > ?", [500000])
        assert result.scalar() == 1

    def test_a_native_result_owns_its_rows(self, relational):
        sql = "SELECT Title, Funding FROM projects ORDER BY Title"
        first = relational.execute_native(sql)
        expected = list(first.rows)
        first.rows.append(("Ghost", 0.0))
        first.rows[0] = ("replaced", -1.0)
        first.columns.append("extra")
        again = relational.execute_native(sql)
        assert again.rows == expected and again.columns == ["Title", "Funding"]
        assert relational.execute_native(
            "SELECT COUNT(*) FROM projects").scalar() == 2

    def test_wrapper_name_derived_from_dialect(self, relational):
        assert relational.wrapper_name == "WebTassiliOracle"

    def test_invocation_counter(self, relational):
        before = relational.invocations
        relational.invoke("ResearchProjects", "All", [])
        assert relational.invocations == before + 1


@pytest.fixture()
def object_wrapper():
    db = ObjectDatabase("AMP", product="ObjectStore")
    db.define_class("Fund", [Attribute("name", "string"),
                             Attribute("category", "string"),
                             Attribute("value", "real")])
    db.create("Fund", name="Balanced", category="mixed", value=10.0)
    db.create("Fund", name="Growth", category="shares", value=12.5)

    def total_value(database):
        return sum(o["value"] for o in database.extent("Fund"))

    exported = ExportedType(
        "Funds",
        functions=[
            ExportedFunction("ByCategory", ("category",), "rows",
                             OqlBinding("SELECT name, value FROM Fund "
                                        "WHERE category = {category}",
                                        ("category",))),
            ExportedFunction("TotalValue", (), "real",
                             CallableBinding(total_value)),
        ])
    return ObjectDbWrapper("AMP", db, binding_style="c++",
                           exported_types=[exported])


class TestObjectWrapper:
    def test_oql_binding(self, object_wrapper):
        rows = object_wrapper.invoke("Funds", "ByCategory", ["shares"])
        assert rows == [{"name": "Growth", "value": 12.5}]

    def test_callable_binding(self, object_wrapper):
        assert object_wrapper.invoke("Funds", "TotalValue", []) == 22.5

    def test_oql_literal_escaping(self, object_wrapper):
        rows = object_wrapper.invoke("Funds", "ByCategory", ["it's"])
        assert rows == []

    def test_native_oql(self, object_wrapper):
        rows = object_wrapper.execute_native(
            "SELECT name FROM Fund WHERE value > 11")
        assert rows == [{"name": "Growth"}]

    def test_native_params_rejected(self, object_wrapper):
        with pytest.raises(TranslationError):
            object_wrapper.execute_native("SELECT name FROM Fund", ["x"])

    def test_describe_includes_binding_style(self, object_wrapper):
        assert object_wrapper.describe()["binding_style"] == "c++"

    def test_banner(self, object_wrapper):
        assert object_wrapper.banner.startswith("ObjectStore")


class TestRemoteIsi:
    @pytest.fixture()
    def remote(self, relational):
        network = InMemoryNetwork()
        server = create_orb(ORBIX, network)
        client = create_orb(ORBIXWEB, network)
        ior = serve_isi(server, relational)
        return network, RemoteIsi(client.proxy(ior, ISI_INTERFACE))

    def test_interface_fetched_remotely(self, remote):
        __, isi = remote
        assert [t.name for t in isi.exported_types()] == ["ResearchProjects"]
        assert isi.native_language == "SQL"
        assert isi.banner == "Oracle 8.0.5"

    def test_invoke_over_giop(self, remote):
        network, isi = remote
        network.metrics.reset()
        value = isi.invoke("ResearchProjects", "Funding", ["AIDS and drugs"])
        assert value == 1250000.0
        assert network.metrics.messages_sent == 1

    def test_resultset_crosses_wire(self, remote):
        __, isi = remote
        result = isi.invoke("ResearchProjects", "All", [])
        assert len(result.rows) == 2
        assert result.columns[0] == "Title"

    def test_native_query_remote(self, remote):
        __, isi = remote
        result = isi.execute_native("SELECT Title FROM projects "
                                    "ORDER BY Title")
        assert result.rows[0] == ("AIDS and drugs",)

    def test_a_remote_result_owns_its_rows(self, remote):
        __, isi = remote
        first = isi.execute_native("SELECT Title FROM projects ORDER BY Title")
        first.rows.append(("Ghost",))
        first.rows[0] = ("replaced",)
        again = isi.execute_native("SELECT Title FROM projects ORDER BY Title")
        assert again.rows == [("AIDS and drugs",), ("Melanoma",)]

    def test_remote_errors_propagate(self, remote):
        __, isi = remote
        with pytest.raises(AccessError):
            isi.invoke("Ghost", "Fn", [])

    @pytest.fixture()
    def grants(self, remote):
        network, isi = remote
        isi.execute_native("CREATE TABLE grants (Title VARCHAR(60), "
                           "Started DATE)")
        isi.execute_native("INSERT INTO grants VALUES "
                           "('AIDS and drugs', '1990-05-20'), "
                           "('Melanoma', '1995-11-02')")
        return network, isi

    def test_native_select_is_one_giop_message(self, grants):
        network, isi = grants
        network.metrics.reset()
        result = isi.execute_native("SELECT Title FROM grants ORDER BY Title")
        assert result.rows == [("AIDS and drugs",), ("Melanoma",)]
        assert network.metrics.messages_sent == 1

    def test_dates_cross_giop(self, grants):
        """A DATE column comes back inside a ResultSet/4 reply."""
        __, isi = grants
        result = isi.execute_native(
            "SELECT Started FROM grants WHERE Title = 'AIDS and drugs'")
        assert result.rows == [(datetime.date(1990, 5, 20),)]

    def test_params_cross_giop(self, grants):
        """Bound parameters go out in the request."""
        __, isi = grants
        result = isi.execute_native(
            "SELECT Started FROM grants WHERE Title = ?", ["Melanoma"])
        assert result.rows == [(datetime.date(1995, 11, 2),)]

    def test_dml_rowcount_crosses_giop(self, grants):
        __, isi = grants
        inserted = isi.execute_native(
            "INSERT INTO grants VALUES (?, '1998-01-01')", ["Carol"])
        assert inserted.rowcount == 1
        count = isi.execute_native("SELECT COUNT(*) FROM grants")
        assert count.rows == [(3,)]

    def test_native_sql_errors_cross_giop(self, remote):
        __, isi = remote
        with pytest.raises(CatalogError):
            isi.execute_native("SELECT * FROM nonexistent")
