"""WebTassili lexer and parser tests."""

import pytest

from repro.errors import WebTassiliSyntaxError
from repro.webtassili import ast, parse, tokenize
from repro.webtassili.lexer import TokenType


class TestLexer:
    def test_words_and_strings(self):
        tokens = tokenize("Find Coalitions With Information 'Medical'")
        assert tokens[0].type is TokenType.WORD
        assert tokens[-2].type is TokenType.STRING
        assert tokens[-2].value == "Medical"

    def test_escaped_quote_in_string(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_numbers(self):
        tokens = tokenize("With (42, 3.5, -7)")
        values = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert values == [42, 3.5, -7]

    def test_unterminated_string(self):
        with pytest.raises(WebTassiliSyntaxError):
            tokenize("'open")

    def test_unexpected_character(self):
        with pytest.raises(WebTassiliSyntaxError):
            tokenize("Find @")

    def test_hyphenated_words(self):
        tokens = tokenize("Centre-Link")
        assert tokens[0].value == "Centre-Link"


class TestExploration:
    def test_find_coalitions_bare_words(self):
        statement = parse("Find Coalitions With Information Medical Research;")
        assert isinstance(statement, ast.FindCoalitions)
        assert statement.information == "Medical Research"

    def test_display_coalitions_is_find(self):
        statement = parse("Display Coalitions With Information 'X'")
        assert isinstance(statement, ast.FindCoalitions)

    def test_connect_to_coalition(self):
        statement = parse("Connect To Coalition Research")
        assert statement.target_kind == "coalition"
        assert statement.name == "Research"

    def test_connect_to_database_multiword(self):
        statement = parse("Connect To Database Royal Brisbane Hospital")
        assert statement.name == "Royal Brisbane Hospital"

    def test_display_subclasses(self):
        statement = parse("Display SubClasses of Class Research")
        assert isinstance(statement, ast.DisplaySubclasses)

    def test_display_instances(self):
        statement = parse("Display Instances of Class Medical Insurance")
        assert statement.class_name == "Medical Insurance"

    def test_display_document_with_class(self):
        statement = parse("Display Document of Instance Royal Brisbane "
                          "Hospital Of Class Research;")
        assert statement.instance_name == "Royal Brisbane Hospital"
        assert statement.class_name == "Research"

    def test_documentation_synonym(self):
        statement = parse("Display Documentation of Instance X")
        assert isinstance(statement, ast.DisplayDocument)
        assert statement.class_name is None

    def test_display_access_information(self):
        statement = parse("Display Access Information of Instance "
                          "Royal Brisbane Hospital")
        assert isinstance(statement, ast.DisplayAccessInfo)

    def test_display_interface(self):
        statement = parse("Display Interface of Instance MBF")
        assert isinstance(statement, ast.DisplayInterface)

    def test_display_service_links(self):
        statement = parse("Display Service Links of Coalition Medical")
        assert statement.target_kind == "coalition"

    def test_quoted_names_supported(self):
        statement = parse("Connect To Coalition 'Medical Insurance'")
        assert statement.name == "Medical Insurance"


class TestDataLevel:
    def test_native_query(self):
        statement = parse(
            "Query Royal Brisbane Hospital Native "
            "'select * from medical_students'")
        assert isinstance(statement, ast.NativeQuery)
        assert statement.database_name == "Royal Brisbane Hospital"
        assert "medical_students" in statement.text

    def test_invoke_with_arguments(self):
        statement = parse(
            "Invoke Funding Of Type ResearchProjects On Royal Brisbane "
            "Hospital With ('AIDS and drugs', 42, TRUE, NULL)")
        assert isinstance(statement, ast.InvokeFunction)
        assert statement.arguments == ("AIDS and drugs", 42, True, None)

    def test_invoke_without_arguments(self):
        statement = parse("Invoke All Of Type T On DB")
        assert statement.arguments == ()

    def test_invoke_empty_parens(self):
        statement = parse("Invoke All Of Type T On DB With ()")
        assert statement.arguments == ()


class TestMaintenance:
    def test_create_coalition(self):
        statement = parse("Create Coalition Oncology With Information "
                          "'cancer care'")
        assert isinstance(statement, ast.CreateCoalition)
        assert statement.information == "cancer care"

    def test_dissolve(self):
        assert isinstance(parse("Dissolve Coalition X"),
                          ast.DissolveCoalition)

    def test_advertise_full_block(self):
        statement = parse(
            "Advertise Source Royal Brisbane Hospital "
            "Information 'Research and Medical' "
            "Documentation 'http://rbh' Location 'dba.icis.qut.edu.au' "
            "Wrapper 'WebTassiliOracle' "
            "Interface ResearchProjects, PatientHistory")
        assert statement.name == "Royal Brisbane Hospital"
        assert statement.interface == ("ResearchProjects", "PatientHistory")
        assert statement.wrapper == "WebTassiliOracle"

    def test_join_and_leave(self):
        join = parse("Join Database Medibank To Coalition Medical Insurance")
        assert join.database_name == "Medibank"
        assert join.coalition_name == "Medical Insurance"
        leave = parse("Leave Database Medibank From Coalition "
                      "Medical Insurance")
        assert isinstance(leave, ast.LeaveCoalition)

    def test_create_service_link(self):
        statement = parse(
            "Create Service Link From Coalition Medical To Coalition "
            "Medical Insurance With Description 'minimal sharing'")
        assert statement.from_kind == "coalition"
        assert statement.to_name == "Medical Insurance"
        assert statement.description == "minimal sharing"

    def test_drop_service_link(self):
        statement = parse("Drop Service Link From Database Ambulance "
                          "To Coalition Medical")
        assert isinstance(statement, ast.DropServiceLink)


class TestErrors:
    def test_unknown_statement(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Explode Everything")

    def test_unknown_display_target(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Display Mysteries of Class X")

    def test_trailing_garbage(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Connect To Coalition X ; extra")

    def test_missing_name(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Connect To Coalition")

    def test_invoke_requires_parens(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Invoke F Of Type T On DB With 'x'")

    @pytest.mark.parametrize("literal", ["1.2.3", "\u00b2", "-\u00b2"])
    def test_malformed_number_is_a_syntax_error(self, literal):
        """A run of digits and dots that ``int`` / ``float`` refuse —
        two dots, or a digit such as ``²`` — is reported at the
        literal's column, not raised as a bare ``ValueError``."""
        prefix = "Invoke f Of Type T On X With ("
        with pytest.raises(WebTassiliSyntaxError,
                           match="malformed number") as caught:
            parse(f"{prefix}{literal})")
        assert caught.value.column == len(prefix)


class TestFindSources:
    def test_find_sources(self):
        statement = parse("Find Sources With Information Medical Insurance")
        assert isinstance(statement, ast.FindSources)
        assert statement.information == "Medical Insurance"

    def test_find_databases_synonym(self):
        statement = parse("Find Databases With Information 'cancer'")
        assert isinstance(statement, ast.FindSources)

    def test_find_requires_target(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Find Everything With Information x")


class TestStructureQualifier:
    def test_structure_list_parsed(self):
        statement = parse("Find Coalitions With Information X "
                          "Structure (ResearchProjects.Title, Funding)")
        assert statement.structure == ("ResearchProjects.Title", "Funding")

    def test_structure_on_sources(self):
        statement = parse("Find Sources With Information X Structure (a)")
        assert isinstance(statement, ast.FindSources)
        assert statement.structure == ("a",)

    def test_structure_requires_parens(self):
        with pytest.raises(WebTassiliSyntaxError):
            parse("Find Sources With Information X Structure a")

    def test_no_structure_defaults_empty(self):
        assert parse("Find Coalitions With Information X").structure == ()
