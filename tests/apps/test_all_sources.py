"""Every deployed source answers through its full stack.

One invocation per exported function of all 14 sources, through the
CORBA wrappers — if any schema, binding, dialect, or servant is broken,
this suite finds it.
"""

import pytest

from repro.apps.healthcare import topology as topo
from repro.oodb import Oid

#: (source, type, function, args) — one call per exported function.
INVOCATIONS = [
    (topo.RBH, "ResearchProjects", "Funding", ["AIDS and drugs"]),
    (topo.RBH, "ResearchProjects", "ProjectsByKeyword", ["%medical%"]),
    (topo.RBH, "PatientHistory", "Description", ["Nobody", "1998-01-01"]),
    (topo.MEDIBANK, "Claims", "TotalClaimed", ["Nobody"]),
    (topo.MEDIBANK, "Claims", "ClaimsByStatus", ["paid"]),
    (topo.MBF, "Cover", "PlanPremium", ["Hospital Plus"]),
    (topo.ATO, "MedicareLevy", "LevyForYear", [1997]),
    (topo.MEDICARE, "Benefits", "BenefitTotal", ["GP001"]),
    (topo.RMIT, "Projects", "GrantAmount", ["Telehealth"]),
    (topo.RMIT, "Projects", "ProjectsInArea", ["oncology"]),
    (topo.QLD_CANCER, "Trials", "TrialFunding", ["Trial QC-001"]),
    (topo.CENTRE_LINK, "Payments", "TotalPaid", ["carer"]),
    (topo.SGF, "Funding", "ProgramBudget", ["Rural Clinics"]),
    (topo.QUT, "Surveys", "SurveyLead", ["Health in Queensland"]),
    (topo.AMP, "Superannuation", "MemberBalance", ["Nobody"]),
    (topo.AMP, "Superannuation", "FundsByCategory", ["growth"]),
    (topo.RBH_WORKERS, "UnionMembers", "MembersInRole", ["nurse"]),
    (topo.PRINCE_CHARLES, "CardiacCare", "PatientsInWard", ["Cardiac A"]),
    (topo.AMBULANCE, "Callouts", "CalloutsTo", [topo.RBH]),
]


class TestAllSources:
    @pytest.mark.parametrize("source,type_name,function,args", INVOCATIONS,
                             ids=[f"{s}:{f}" for s, __, f, __a in INVOCATIONS])
    def test_every_exported_function_invocable(self, healthcare, source,
                                               type_name, function, args):
        isi = healthcare.system.wrapper_client(source)
        isi.invoke(type_name, function, args)  # must not raise

    def test_every_function_covered(self, healthcare):
        """The table above covers every exported function of every source
        (so new exports cannot silently go untested)."""
        covered = {(source, type_name, function)
                   for source, type_name, function, __ in INVOCATIONS}
        expected = set()
        for spec in topo.DATABASE_SPECS:
            wrapper = healthcare.system.local_wrapper(spec.name)
            for exported in wrapper.exported_types():
                for fn in exported.functions:
                    expected.add((spec.name, exported.name, fn.name))
        assert covered == expected

    @pytest.mark.parametrize("spec", topo.DATABASE_SPECS,
                             ids=[s.name for s in topo.DATABASE_SPECS])
    def test_native_query_per_source(self, healthcare, spec):
        """Native passthrough works against every source."""
        isi = healthcare.system.wrapper_client(spec.name)
        if isi.native_language == "SQL":
            table = healthcare.relational[spec.name].table_names()[0]
            result = isi.execute_native(f"SELECT COUNT(*) FROM {table}")
            assert result.scalar() >= 0
        else:
            database = healthcare.objects[spec.name]
            class_name = database.schema.class_names()[0]
            rows = isi.execute_native(
                f"SELECT COUNT(*) FROM {class_name}")
            assert rows[0]["count"] >= 0

    @pytest.mark.parametrize("spec", topo.DATABASE_SPECS,
                             ids=[s.name for s in topo.DATABASE_SPECS])
    def test_every_source_has_data(self, healthcare, spec):
        """Seeded population actually put rows/objects everywhere."""
        if spec.name in healthcare.relational:
            database = healthcare.relational[spec.name]
            total = sum(database.row_count(t)
                        for t in database.table_names())
            assert total > 0
        else:
            assert len(healthcare.objects[spec.name]) > 0

    def test_every_object_class_answers_select_star(self, healthcare):
        """Every class of every object store answers ``SELECT *`` through
        a browser, over the ORB: the rows the store holds, with every
        reference (a scalar or a list of them) arriving as an equal
        ``Oid`` (the ``Oid/1`` value type)."""
        browser = healthcare.system.browser(topo.QUT)
        references = 0
        for name, database in healthcare.objects.items():
            for class_name in database.schema.class_names():
                oql = f"SELECT * FROM {class_name}"
                answer = browser.submit(f"Query '{name}' Native '{oql}'")
                assert answer.data == database.query(oql), class_name
                kinds = database.schema.attribute_map(class_name)
                for row in answer.data:
                    for attribute, value in row.items():
                        if attribute in kinds \
                                and kinds[attribute].kind == "object":
                            cells = value if kinds[attribute].many \
                                else [value]
                            assert all(type(cell) is Oid
                                       for cell in cells if cell is not None)
                            references += len(cells)
                assert class_name in answer.text
        assert references > 0
