"""End-to-end reproduction of the paper's walkthroughs (Figures 4-6, §2.3).

Each test follows the paper's text and asserts the same observable
outcome our stand-in testbed produces.
"""

import pytest

from repro.apps.healthcare import (RBH_HTML_DOCUMENT,
                                   build_healthcare_system)
from repro.apps.healthcare import topology as topo
from repro.apps.healthcare.data import (AIDS_PROJECT_FUNDING,
                                        AIDS_PROJECT_TITLE)
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.orb.faults import FaultyTransport
from repro.orb.transport import InMemoryNetwork


@pytest.fixture()
def browser(healthcare):
    """'One of the researchers at QUT research queries WebFINDIT...'"""
    return healthcare.browser(topo.QUT)


class TestSection23Walkthrough:
    def test_find_medical_research_resolves_locally(self, browser):
        """'WebFINDIT starts from the coalitions the QUT research is
        member of ... the local coalition Research deals with this type
        of information.'"""
        result = browser.find("Medical Research")
        assert result.data.best().name == "Research"
        assert result.data.codatabases_contacted == 1

    def test_connect_then_refine(self, browser):
        browser.connect_coalition("Research")
        subclasses = browser.subclasses("Research")
        assert subclasses.data == []  # flat in the healthcare world
        instances = browser.instances("Research")
        assert topo.RBH in {d.name for d in instances.data}

    def test_display_documentation_of_rbh(self, browser):
        result = browser.documentation(topo.RBH, "Research")
        assert result.data["description"].documentation_url == \
            "http://www.medicine.uq.edu.au/RBH"

    def test_access_information_matches_advertisement(self, browser):
        """The paper: 'The database Royal Brisbane Hospital is located
        at dba.icis.qut.edu.au and exports the following type...'"""
        result = browser.access_information(topo.RBH)
        assert result.data.location == "dba.icis.qut.edu.au"
        assert result.data.interface == ["ResearchProjects",
                                         "PatientHistory"]

    def test_exported_interface_shows_funding_function(self, browser):
        result = browser.interface(topo.RBH)
        assert "function real Funding(title);" in result.text
        assert "attribute string ResearchProjects.Title;" in result.text

    def test_funding_invocation_and_sql_translation(self, browser,
                                                    healthcare):
        """'This function is translated to the following SQL query:
        Select a.Funding From ResearchProjects a
        Where a.Title = "AIDS and drugs"'"""
        result = browser.invoke(topo.RBH, "ResearchProjects", "Funding",
                                AIDS_PROJECT_TITLE)
        assert result.data == AIDS_PROJECT_FUNDING
        wrapper = healthcare.system.local_wrapper(topo.RBH)
        sql = wrapper.generate_sql("ResearchProjects", "Funding",
                                   [AIDS_PROJECT_TITLE])
        assert sql == ("SELECT a.Funding FROM ResearchProjects a "
                       "WHERE a.Title = 'AIDS and drugs'")

    def test_medical_insurance_via_rbh_link(self, browser):
        """'The system found that the database Royal Brisbane Hospital
        (which is member of the local coalition) is member of a
        coalition Medical that has a service link with another coalition
        Insurance...'"""
        result = browser.find("Medical Insurance")
        best = result.data.best()
        assert best.name == topo.MEDICAL_INSURANCE
        assert best.via == [topo.QUT, topo.RBH]
        assert best.through_link == "Medical_to_MedicalInsurance"


class TestFigure4:
    def test_display_coalitions_with_information_medical_research(
            self, browser):
        """Figure 4's query; our stand-in reports Research locally and
        Medical one hop further when swept (see EXPERIMENTS.md F4)."""
        result = browser.submit(
            "Display Coalitions With Information Medical Research")
        assert result.data.best().name == "Research"

    def test_display_instances_of_class_research(self, browser):
        result = browser.submit("Display Instances of Class Research")
        names = {d.name for d in result.data}
        assert names == {topo.QUT, topo.RMIT, topo.QLD_CANCER, topo.RBH}

    def test_documentation_formats_offered(self, browser):
        result = browser.documentation(topo.RBH)
        assert {d["format"] for d in result.data["documents"]} == \
            {"html", "text"}


class TestFigure5:
    def test_html_document_content(self, browser):
        result = browser.documentation(topo.RBH, "Research")
        html = next(d for d in result.data["documents"]
                    if d["format"] == "html")
        assert html["content"] == RBH_HTML_DOCUMENT
        assert "<h1>Royal Brisbane Hospital</h1>" in html["content"]


class TestFigure6:
    def test_select_star_from_medical_students(self, browser):
        """'the user can use SQL statement select * from medical
        students ... the query is submitted for execution by clicking
        on the Fetch button.'"""
        result = browser.fetch(topo.RBH, "SELECT * FROM MedicalStudent")
        assert result.data.columns == ["StudentId", "Name", "Course", "Year"]
        assert result.data.rowcount == 12
        assert all(len(row) == 4 for row in result.data.rows)

    def test_fetch_goes_through_wrapper_over_iiop(self, browser,
                                                  healthcare):
        system = healthcare.system
        system.reset_metrics()
        browser.fetch(topo.RBH, "SELECT COUNT(*) FROM MedicalStudent")
        assert system.metrics()["giop_messages"] >= 1


class TestWholeSessionTranscript:
    def test_session_like_section5(self, healthcare):
        """The §5 narrative as one scripted session."""
        browser = healthcare.browser(topo.QUT)
        browser.submit("Display Coalitions With Information Medical Research")
        browser.submit("Display Instances of Class Research")
        browser.submit("Display Documentation of Instance "
                       "Royal Brisbane Hospital of Class Research")
        browser.fetch(topo.RBH, "SELECT * FROM MedicalStudent")
        transcript = browser.render_transcript()
        assert transcript.count("webtassili>") == 4
        assert "MedicalStudent" in browser.session.history[-1] \
            or "medical" in browser.session.history[-1].lower()


class TestTheThresholdTravelsWithTheQuestion:
    """Coalitions and service links are filtered by one number, the
    engine's: Medibank's co-database used to apply its own 0.5 to
    coalitions whatever the engine asked of links."""

    QUERY = "Insurance Fraud Detection"  # 1 word of 3: score 0.33

    def sweep(self, healthcare, threshold):
        engine = healthcare.system.query_processor(
            match_threshold=threshold).discovery
        return engine.discover(self.QUERY, topo.MEDIBANK,
                               stop_at_first=False)

    def test_a_lower_threshold_admits_the_local_coalition(self, healthcare):
        lead, = self.sweep(healthcare, 0.3).leads
        assert lead.name == "Medical Insurance"
        assert round(lead.score, 2) == 0.33
        # Medibank's own coalition, not something a link pointed at.
        assert lead.through_link is None
        assert lead.members == [topo.MEDIBANK, topo.MBF]
        assert lead.via == [topo.MEDIBANK]

    def test_the_default_threshold_admits_nothing(self, healthcare):
        assert self.sweep(healthcare, 0.5).leads == []


class TestFollowUpReadsDegrade:
    """Statements that read each lead's members after the resolution
    (``Find Sources``, ``Find Coalitions … Structure``) go on answering
    when a lead's entry co-database is down, and say so; they used to
    raise ``CommFailure`` out of ``Browser.submit``."""

    @staticmethod
    def refused_by_medibank(**fault):
        """A QUT browser over a federation whose Medibank co-database
        refuses connections, and the health board it reports to."""
        faulty = FaultyTransport(InMemoryNetwork(), seed=1999)
        policy = ResiliencePolicy(retry=RetryPolicy(
            max_attempts=2, base_delay=0.001, seed=1999))
        deployment = build_healthcare_system(
            transport=faulty, resilience=policy, isolate_sources=True)
        faulty.refuse(deployment.codatabase_endpoint(topo.MEDIBANK), **fault)
        return deployment.browser(topo.QUT), policy.health

    @pytest.fixture()
    def browser_without_medibank(self):
        return self.refused_by_medibank()[0]

    PARTIAL = ("!! partial exploration: 1 co-database(s) skipped — "
               f"unreachable: {topo.MEDIBANK}")

    def test_find_sources_answers_from_the_other_leads(
            self, browser_without_medibank):
        result = browser_without_medibank.submit(
            "Find Sources With Information 'Medical Insurance'")
        assert result.kind == "sources"
        assert {source.name for source in result.data} \
            >= {topo.QUT, topo.RBH}
        assert topo.MEDIBANK not in {source.name for source in result.data}
        assert self.PARTIAL in result.text

    def test_structure_qualified_find_answers(self, browser_without_medibank):
        result = browser_without_medibank.submit(
            "Find Coalitions With Information 'Medical Insurance' "
            "Structure (PlanName)")
        assert result.kind == "coalitions"
        assert result.data.degraded.names() == [topo.MEDIBANK]
        assert self.PARTIAL in result.text

    def test_the_read_is_retried_and_feeds_the_health_board(self):
        """The follow-up read runs on the engine's guarded path."""
        find = "Find Sources With Information 'Medical Insurance'"
        browser, health = self.refused_by_medibank(until=1)
        once = browser.submit(find)
        assert topo.MEDIBANK in {source.name for source in once.data}
        assert "partial exploration" not in once.text
        assert health.snapshot()[topo.MEDIBANK]["failures"] == 0
        browser, health = self.refused_by_medibank()
        browser.submit(find)
        assert health.snapshot()[topo.MEDIBANK]["failures"] == 1
