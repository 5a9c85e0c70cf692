"""Query-processor and browser tests against the healthcare deployment.

These run the full stack: WebTassili text -> processor -> GIOP over the
in-memory fabric -> co-database / wrapper servants -> native engines.
"""

import pytest

from repro.apps.healthcare import topology as topo
from repro.errors import (UnknownCoalition, UnknownDatabase, WebFinditError)
from repro.core.query_processor import Session


@pytest.fixture()
def browser(healthcare):
    return healthcare.browser(topo.QUT)


class TestExploration:
    def test_find_local_coalition(self, browser):
        result = browser.find("Medical Research")
        assert result.kind == "coalitions"
        assert result.data.best().name == "Research"
        assert "Research" in result.text

    def test_find_via_link(self, browser):
        result = browser.find("Medical Insurance")
        assert result.data.best().name == topo.MEDICAL_INSURANCE
        assert "service link" in result.text

    def test_find_nothing(self, browser):
        result = browser.find("astrophysics")
        assert not result.data.resolved
        assert "none found" in result.text

    def test_find_sources_scores_through_the_ontology(self, browser):
        """The healthcare synonyms (health ~ medical, studies ~ research)
        that find the Research coalition also select its members."""
        coalitions = browser.submit(
            "Find Coalitions With Information 'Health Studies'")
        assert [(lead.name, lead.score) for lead in coalitions.data.leads] \
            == [("Research", 1.0)]
        sources = browser.submit(
            "Find Sources With Information 'Health Studies'")
        assert [source.name for source in sources.data] == [
            topo.QUT, topo.RMIT, topo.RBH, topo.QLD_CANCER]
        assert "none found" not in sources.text

    def test_connect_local_coalition(self, browser):
        result = browser.connect_coalition("Research")
        assert browser.session.current_coalition == "Research"
        assert browser.session.metadata_source == topo.QUT
        assert "entry point" in result.text

    def test_connect_remote_coalition_moves_entry(self, browser):
        browser.connect_coalition(topo.MEDICAL_INSURANCE)
        assert browser.session.metadata_source in (topo.MEDIBANK, topo.MBF)

    def test_connect_unknown_coalition(self, browser):
        with pytest.raises(UnknownCoalition):
            browser.connect_coalition("Astrology")

    def test_connect_database(self, browser):
        result = browser.connect_database(topo.RBH)
        assert browser.session.entry_database == topo.RBH
        assert "dba.icis.qut.edu.au" in result.text

    def test_instances_of_class(self, browser):
        result = browser.instances("Research")
        names = {d.name for d in result.data}
        assert names == {topo.QUT, topo.RMIT, topo.QLD_CANCER, topo.RBH}

    def test_instances_unknown_class(self, browser):
        with pytest.raises(UnknownCoalition):
            browser.instances("Ghost")

    def test_subclasses_empty(self, browser):
        assert browser.subclasses("Research").data == []

    def test_documentation_includes_html(self, browser):
        result = browser.documentation(topo.RBH, "Research")
        formats = {d["format"] for d in result.data["documents"]}
        assert formats == {"html", "text"}
        assert "<html>" in result.text

    def test_access_information(self, browser):
        result = browser.access_information(topo.RBH)
        assert result.data.location == "dba.icis.qut.edu.au"
        assert "WebTassiliOracle" in result.text
        assert "ResearchProjects, PatientHistory" in result.text

    def test_interface_rendering(self, browser):
        result = browser.interface(topo.RBH)
        assert "Type ResearchProjects {" in result.text
        assert "function real Funding(title);" in result.text

    def test_service_links_of_coalition(self, browser):
        browser.connect_coalition(topo.MEDICAL)
        result = browser.submit(
            "Display Service Links of Coalition Medical")
        labels = {link.label for link in result.data}
        assert "Medical_to_MedicalInsurance" in labels
        assert len(labels) == 7  # seven links touch Medical in Figure 1

    def test_unknown_instance(self, browser):
        with pytest.raises(UnknownDatabase):
            browser.access_information("Atlantis General")


class TestDataAccess:
    def test_fetch_native_sql(self, browser):
        result = browser.fetch(topo.RBH, "SELECT * FROM MedicalStudent")
        assert result.data.rowcount == 12
        assert "StudentId" in result.text

    def test_invoke_scalar_function(self, browser):
        result = browser.invoke(topo.RBH, "ResearchProjects", "Funding",
                                "AIDS and drugs")
        assert result.data == 1250000.0

    def test_invoke_rows_function(self, browser):
        result = browser.invoke(topo.MEDIBANK, "Claims", "ClaimsByStatus",
                                "paid")
        assert result.data.rowcount > 0

    def test_invoke_oodb_function(self, browser):
        result = browser.invoke(topo.PRINCE_CHARLES, "CardiacCare",
                                "PatientsInWard", "Cardiac A")
        assert isinstance(result.data, list)

    def test_native_oql(self, browser):
        result = browser.fetch(topo.AMBULANCE,
                               "SELECT callout_no FROM Callout "
                               "WHERE priority = 1")
        assert isinstance(result.data, list)

    def test_wrong_dialect_type_fails_remotely(self, browser):
        from repro.errors import SqlError, ReproError
        with pytest.raises(ReproError):
            browser.fetch(topo.RBH, "SELECT * FROM no_such_table")


class TestSessionAndTranscript:
    def test_history_accumulates(self, browser):
        browser.find("Medical Research")
        browser.instances("Research")
        assert len(browser.session.history) == 2

    def test_transcript_renders(self, browser):
        browser.find("Medical Research")
        text = browser.render_transcript()
        assert text.startswith("webtassili> ")
        assert "Research" in text

    def test_a_data_level_text_is_rendered_on_first_read_and_once(
            self, browser, monkeypatch):
        from repro.core import query_processor
        calls = []
        render = query_processor._render_value
        monkeypatch.setattr(
            query_processor, "_render_value",
            lambda value: (calls.append(value), render(value))[1])
        result = browser.fetch(topo.RBH, "SELECT * FROM MedicalStudent")
        scalar = browser.invoke(topo.RBH, "ResearchProjects", "Funding",
                                "AIDS and drugs")
        assert calls == [] and len(browser.transcript) == 2
        assert result.text == result.text == str(result)
        assert result.text.startswith(
            f"Native query on {topo.RBH} (SQL):\nStudentId")
        assert calls == [result.data]
        assert scalar.text.endswith(" = 1250000.0")
        assert browser.render_transcript().count("webtassili> ") == 2
        assert calls == [result.data, scalar.data]
        # The constructor takes the text either way, by the same keyword.
        assert query_processor.WtResult(kind="ack", data=1, text="done").text \
            == query_processor.WtResult("ack", 1, lambda: "done").text

    def test_information_tree_shows_coalitions(self, browser):
        tree = browser.information_tree()
        assert "+ Research" in tree
        assert f"- {topo.RBH}" in tree

    def test_maintenance_requires_registry(self, healthcare):
        from repro.core.query_processor import QueryProcessor
        processor = QueryProcessor(
            resolver=healthcare.system.codatabase_client,
            wrapper_for=healthcare.system.wrapper_client,
            registry=None)
        session = Session(home_database=topo.QUT)
        with pytest.raises(WebFinditError):
            processor.execute("Create Coalition X With Information 'x'",
                              session)


class TestMaintenanceStatements:
    """Mutating statements run on a private system."""

    @pytest.fixture()
    def fresh(self):
        from repro.apps.healthcare import build_healthcare_system
        return build_healthcare_system()

    def test_create_and_dissolve_coalition(self, fresh):
        browser = fresh.browser(topo.QUT)
        browser.submit("Create Coalition Telehealth With Information "
                       "'remote consultations'")
        assert "Telehealth" in fresh.system.registry.coalition_names()
        browser.submit("Dissolve Coalition Telehealth")
        assert "Telehealth" not in fresh.system.registry.coalition_names()

    def test_join_and_leave(self, fresh):
        browser = fresh.browser(topo.QUT)
        browser.submit("Create Coalition Emergency With Information "
                       "'emergency transport'")
        browser.submit("Join Database Ambulance To Coalition Emergency")
        assert fresh.system.registry.coalition("Emergency").members == \
            [topo.AMBULANCE]
        browser.submit("Leave Database Ambulance From Coalition Emergency")
        assert fresh.system.registry.coalition("Emergency").members == []

    def test_create_and_drop_service_link(self, fresh):
        browser = fresh.browser(topo.QUT)
        browser.submit("Create Service Link From Database 'QUT Research' "
                       "To Database Medicare With Description 'benefits'")
        labels = {l.label for l in fresh.system.registry.service_links()}
        assert "QUTResearch_to_Medicare" in labels
        browser.submit("Drop Service Link From Database 'QUT Research' "
                       "To Database Medicare")
        labels = {l.label for l in fresh.system.registry.service_links()}
        assert "QUTResearch_to_Medicare" not in labels

    def test_advertise_renders_paper_block(self, fresh):
        browser = fresh.browser(topo.QUT)
        result = browser.submit(
            "Advertise Source New Clinic Information 'walk-in care' "
            "Location 'clinic.net' Interface Visits")
        assert result.text.startswith("Information Source New Clinic {")
        assert fresh.system.registry.source("New Clinic") is not None


class TestFindSources:
    def test_find_sources_local(self, browser):
        result = browser.submit(
            "Find Sources With Information Medical Research")
        names = {d.name for d in result.data}
        assert topo.QUT in names and topo.RMIT in names
        assert result.kind == "sources"

    def test_find_sources_via_link(self, browser):
        result = browser.submit(
            "Find Sources With Information 'Medical Insurance'")
        names = {d.name for d in result.data}
        assert topo.MEDIBANK in names and topo.MBF in names
        # full matches sort before partial ones
        assert result.data[0].name in (topo.MEDIBANK, topo.MBF)

    def test_find_sources_miss(self, browser):
        result = browser.submit(
            "Find Sources With Information 'quantum computing'")
        assert result.data == []
        assert "(none found)" in result.text


class TestCoalitionInvoke:
    def test_fan_out_over_exporting_members(self, browser):
        result = browser.submit(
            "Invoke Funding Of Type ResearchProjects On Coalition Research "
            "With ('AIDS and drugs')")
        assert result.kind == "federated"
        assert result.data["results"] == {topo.RBH: 1250000.0}
        assert result.data["errors"] == {}

    def test_members_without_type_skipped(self, browser):
        result = browser.submit(
            "Invoke TrialFunding Of Type Trials On Coalition Research "
            "With ('Trial QC-001')")
        # Only Queensland Cancer Fund exports Trials.
        assert set(result.data["results"]) == {topo.QLD_CANCER}

    def test_no_exporting_member(self, browser):
        result = browser.submit(
            "Invoke X Of Type GhostType On Coalition Research With ()")
        assert result.data["results"] == {}
        assert "no member exports type" in result.text

    def test_explicit_on_database_still_single(self, browser):
        result = browser.submit(
            "Invoke Funding Of Type ResearchProjects On Database "
            "'Royal Brisbane Hospital' With ('AIDS and drugs')")
        assert result.kind == "value"
        assert result.data == 1250000.0


class TestStructureSearch:
    """The paper's 'search for an information type while providing its
    structure' (§2, manipulation operations)."""

    def test_sources_filtered_by_structure(self, browser):
        result = browser.submit(
            "Find Sources With Information 'Medical Research' "
            "Structure (Funding)")
        assert [d.name for d in result.data] == [topo.RBH]

    def test_structure_matches_attribute_paths(self, browser):
        result = browser.submit(
            "Find Sources With Information 'Medical Research' "
            "Structure (ResearchProjects.Title)")
        assert [d.name for d in result.data] == [topo.RBH]

    def test_structure_matches_last_segment(self, browser):
        # RMIT also exports a Project.Title, so both research sources
        # qualify when only the bare segment is given.
        result = browser.submit(
            "Find Sources With Information 'Medical Research' "
            "Structure (Title)")
        names = {d.name for d in result.data}
        assert topo.RBH in names and topo.RMIT in names

    def test_all_elements_must_match(self, browser):
        result = browser.submit(
            "Find Sources With Information 'Medical Research' "
            "Structure (Funding, NoSuchThing)")
        assert result.data == []

    def test_coalitions_filtered_by_structure(self, browser):
        hit = browser.submit(
            "Find Coalitions With Information Medical Research "
            "Structure (Funding)")
        assert hit.data.resolved
        miss = browser.submit(
            "Find Coalitions With Information Medical Research "
            "Structure (NoSuchAttr)")
        assert not miss.data.resolved

    def test_qualifier_rendered(self, browser):
        result = browser.submit(
            "Find Sources With Information Research Structure (Funding)")
        assert "structure (Funding)" in result.text


class TestDisplayStructure:
    def test_structure_rendered(self, browser):
        result = browser.submit(
            "Display Structure of Instance Royal Brisbane Hospital")
        assert result.kind == "structure"
        assert "ResearchProjects.Title" in result.data
        assert "attribute ResearchProjects.Title" in result.text
        assert "function Funding" in result.text

    def test_structure_of_object_source(self, browser):
        result = browser.submit("Display Structure of Instance AMP")
        assert "Member.name" in result.data

    def test_structure_unknown_instance(self, browser):
        with pytest.raises(UnknownDatabase):
            browser.submit("Display Structure of Instance Ghost Hospital")
