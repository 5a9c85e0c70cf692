"""Coverage for smaller public surfaces: results, errors, naming sugar,
browser escaping, render helpers."""

import datetime

import pytest

from repro.errors import SqlSyntaxError, WebTassiliSyntaxError
from repro.sql.result import ResultSet
from repro.wrappers.base import (ExportedAttribute, ExportedFunction,
                                 ExportedType)


class TestResultSet:
    @pytest.fixture()
    def result(self):
        return ResultSet(columns=["id", "name"],
                         rows=[(1, "a"), (2, "b"), (3, None)])

    def test_len_bool_iter(self, result):
        assert len(result) == 3
        assert bool(result)
        assert not ResultSet.empty()
        assert list(iter(result))[0] == (1, "a")

    def test_first_and_scalar(self, result):
        assert result.first() == (1, "a")
        assert result.scalar() == 1
        assert ResultSet.empty().first() is None
        assert ResultSet.empty().scalar() is None

    def test_column_by_name_case_insensitive(self, result):
        assert result.column("NAME") == ["a", "b", None]
        with pytest.raises(KeyError):
            result.column("ghost")

    def test_to_dicts(self, result):
        assert result.to_dicts()[0] == {"id": 1, "name": "a"}

    def test_empty_rowcount(self):
        assert ResultSet.empty(7).rowcount == 7

    def test_rows_are_tuples(self):
        result = ResultSet(columns=["x"], rows=[[1], [2]])
        assert all(isinstance(row, tuple) for row in result.rows)


class TestErrorFormatting:
    def test_sql_syntax_error_with_position(self):
        error = SqlSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert "column 7" in str(error)

    def test_sql_syntax_error_without_position(self):
        assert str(SqlSyntaxError("bad token")) == "bad token"

    def test_webtassili_error_carries_position(self):
        error = WebTassiliSyntaxError("oops", column=12)
        assert error.column == 12


class TestNamingSugar:
    def test_resolve_proxy(self):
        from repro.orb import (InMemoryNetwork, InterfaceBuilder, create_orb,
                               ORBIX, VISIBROKER, start_naming_service)
        network = InMemoryNetwork()
        server = create_orb(ORBIX, network)
        client = create_orb(VISIBROKER, network)
        interface = InterfaceBuilder("Echo").operation("echo", "v").build()

        class Servant:
            def echo(self, v):
                return v

        ior = server.activate(Servant(), interface)
        __, naming = start_naming_service(server)
        naming.bind("svc/echo", ior)
        proxy = naming.resolve_proxy(client, "svc/echo", interface)
        assert proxy.echo(41) == 41


class TestBrowserEscaping:
    def test_invoke_with_quote_in_argument(self, healthcare):
        from repro.apps.healthcare import topology as topo
        browser = healthcare.browser(topo.QUT)
        # a title containing a quote must survive statement round-trip
        result = browser.invoke(topo.RBH, "ResearchProjects", "Funding",
                                "O'Neil's study")
        assert result.data is None  # no such project, but no parse error

    def test_fetch_with_quotes(self, healthcare):
        from repro.apps.healthcare import topology as topo
        browser = healthcare.browser(topo.QUT)
        result = browser.fetch(
            topo.RBH,
            "SELECT COUNT(*) FROM Patient WHERE Name = 'O''Brien'")
        assert result.data.scalar() >= 0

    def test_invoke_literals(self, healthcare):
        from repro.apps.healthcare import topology as topo
        browser = healthcare.browser(topo.QUT)
        result = browser.invoke(topo.RBH, "PatientHistory", "Description",
                                "Nobody", None)
        assert result.data is None


class TestExportRendering:
    def test_zero_arg_function_render(self):
        fn = ExportedFunction("All", (), "rows")
        assert fn.render() == "function rows All();"

    def test_type_render_without_members(self):
        exported = ExportedType("Empty")
        assert exported.render() == "Type Empty {\n}"

    def test_attribute_render(self):
        attribute = ExportedAttribute("Patient.Name", "string")
        assert attribute.render() == "attribute string Patient.Name;"


class TestDialectsEdgeCases:
    def test_date_literal_formatting(self):
        from repro.sql.dialect import ORACLE
        assert ORACLE.format_literal(datetime.date(1998, 2, 1)) == \
            "'1998-02-01'"

    def test_unformattable_literal(self):
        from repro.errors import SqlError
        from repro.sql.dialect import GENERIC
        with pytest.raises(SqlError):
            GENERIC.format_literal(object())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_a_non_finite_real_has_no_literal(self, value):
        """``inf`` would lex as a column name: no literal is rendered."""
        from repro.errors import SqlError
        from repro.sql.dialect import GENERIC, ORACLE
        for dialect in (GENERIC, ORACLE):
            with pytest.raises(SqlError, match="as a SQL literal"):
                dialect.format_literal(value)
        assert GENERIC.format_literal(-0.0) == "-0.0"
        assert GENERIC.format_literal(10 ** 30) == str(10 ** 30)

    def test_quote_identifier_doubles_quotes(self):
        from repro.sql.dialect import GENERIC
        assert GENERIC.quote_identifier('we"ird') == '"we""ird"'
