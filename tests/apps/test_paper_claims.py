"""The paper's shape claims, as counts.

The paper's evaluation is qualitative: topic organisation lets
discovery scale where a flat space contacts every source (§1/§2),
service links share at lower cost than coalitions (§2.1), and a global
schema does not scale (§6.1).  Each test here restates one claim of
EXPERIMENTS.md as metadata contacts, co-database writes, schema
comparisons or GIOP messages — never wall-clock — so it is
deterministic and can run in tier 1.  Section ids (S1, S2, ...) are
EXPERIMENTS.md's.
"""

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.apps.healthcare.data import AIDS_PROJECT_TITLE
from repro.bench import (build_scaled_space, build_scaled_system,
                         discovery_workload)
from repro.core.metacache import MetadataCache
from repro.core.model import SourceDescription, topic_score
from repro.core.registry import Registry
from repro.core.service_link import EndpointKind, ServiceLink
from repro.core.system import WebFinditSystem
from repro.oodb.database import ObjectDatabase
from repro.orb import encode_any
from repro.orb.giop import RequestMessage, encode_message


def test_s1_coalition_routing_grows_sublinearly_where_broadcast_is_linear():
    sizes = (56, 112, 224, 448)
    webfindit, broadcast = [], []
    for size in sizes:
        space = build_scaled_space(databases=size, coalitions=size // 8)
        engine = space.discovery_engine()
        workload = discovery_workload(space, 24, seed=17)
        results = [engine.discover(q.text, q.start_database, max_hops=12)
                   for q in workload]
        assert all(r.resolved for r in results)
        webfindit.append(sum(r.codatabases_contacted for r in results) / 24)
        broadcast.append(sum(space.broadcast.discover(q.text)
                             .sources_contacted for q in workload) / 24)
    assert broadcast == list(sizes)
    assert broadcast[-1] / webfindit[-1] > broadcast[0] / webfindit[0]
    # An 8x federation: contacts grow well below 8x (3.10x already at
    # 56 -> 224, which is why the sweep keeps its fourth size).
    assert webfindit[-1] / webfindit[0] < 0.75 * sizes[-1] / sizes[0]


def test_s1_a_miss_stops_at_the_hop_bound():
    space = build_scaled_space(databases=112, coalitions=14)
    result = space.discovery_engine().discover(
        "completely unknown topic", space.database_names[0], max_hops=3)
    assert not result.resolved
    assert result.codatabases_contacted < len(space.database_names)


def test_s1_deployed_discovery_sends_fewer_messages_than_sources():
    """Broadcast needs at least one GIOP round trip per source."""
    system = build_scaled_system(databases=48, coalitions=8)
    names = system.registry.coalition_names()
    queries = [(system.registry.coalition(names[index]).information_type,
                f"db{index * 5:05d}") for index in range(8)]
    discovery = system.query_processor().discovery
    for topic, start in queries:     # naming lookups and stubs, cached
        discovery.discover(topic, start)
    system.reset_metrics()
    assert all(discovery.discover(topic, start).resolved
               for topic, start in queries)
    assert system.metrics()["giop_messages"] / len(queries) < 48


def test_s2_a_database_link_costs_one_write_whatever_the_coalition_size():
    def registry_with_coalition(members):
        registry = Registry()
        registry.create_coalition("Topic", "shared topic")
        for index in range(members):
            registry.add_source(SourceDescription(
                name=f"member{index}", information_type="shared topic"))
            registry.join(f"member{index}", "Topic")
        registry.add_source(SourceDescription(name="newcomer",
                                              information_type="fresh"))
        return registry

    def writes(members, action):
        registry = registry_with_coalition(members)
        before = registry.update_operations
        action(registry)
        return registry.update_operations - before

    join, link = [], []
    for members in (2, 4, 8, 16, 32):
        join.append(writes(members,
                           lambda r: r.join("newcomer", "Topic")))
        link.append(writes(members, lambda r: r.add_service_link(
            ServiceLink(EndpointKind.DATABASE, "newcomer",
                        EndpointKind.DATABASE, "member0",
                        information_type="fresh"))))
    assert link == [2] * 5          # the two endpoints' co-databases
    assert join[-1] > join[0]
    assert all(l < j for l, j in zip(link, join))


def test_s3_global_schema_work_is_superlinear_coalition_writes_are_not():
    sizes = (25, 50, 100, 200)
    spaces = [build_scaled_space(databases=size,
                                 coalitions=max(size // 10, 2))
              for size in sizes]
    growth = sizes[-1] / sizes[0]
    assert spaces[-1].global_schema.total_comparisons \
        > 4 * growth * spaces[0].global_schema.total_comparisons
    assert spaces[-1].registry.update_operations \
        < 2.5 * growth * spaces[0].registry.update_operations


def test_s4_giop_framing_adds_little_to_the_cdr_body():
    payload = {"rows": [[index, f"name-{index}", index * 1.5, None]
                        for index in range(50)],
               "columns": ["id", "name", "score", "extra"]}
    frame = encode_message(RequestMessage(
        request_id=1, object_key=b"orb/Echo/obj1", operation="echo",
        arguments=[payload]))
    assert len(frame) - len(encode_any(payload)) < 120


def test_s5_a_data_statement_is_one_message_a_linked_discovery_several(
        healthcare):
    system = healthcare.system

    def messages(action):
        browser = healthcare.browser(topo.QUT)
        action(browser)              # naming lookups and stubs, cached
        system.reset_metrics()
        action(browser)
        return system.metrics()["giop_messages"]

    assert messages(lambda b: b.invoke(topo.RBH, "ResearchProjects",
                                       "Funding", AIDS_PROJECT_TITLE)) == 1
    assert messages(lambda b: b.find("Medical Insurance")) >= 3


def test_s6_the_section_5_session_shows_every_figure_artefact(healthcare):
    system = healthcare.system
    system.reset_metrics()
    browser = healthcare.browser(topo.QUT)
    for statement in (
            "Display Coalitions With Information Medical Research",
            "Connect To Coalition Research",
            "Display SubClasses of Class Research",
            "Display Instances of Class Research",
            "Display Documentation of Instance Royal Brisbane Hospital "
            "of Class Research",
            "Display Access Information of Instance Royal Brisbane Hospital",
            "Display Interface of Instance Royal Brisbane Hospital"):
        browser.submit(statement)
    browser.invoke(topo.RBH, "ResearchProjects", "Funding",
                   AIDS_PROJECT_TITLE)
    browser.fetch(topo.RBH, "SELECT * FROM MedicalStudent")
    for statement in ("Find Coalitions With Information Medical Insurance",
                      "Connect To Coalition Medical Insurance",
                      "Display Instances of Class Medical Insurance"):
        browser.submit(statement)

    assert len(browser.transcript) == 12
    assert system.metrics()["giop_messages"] >= 12
    transcript = browser.render_transcript()
    for marker in ("Royal Brisbane Hospital", "dba.icis.qut.edu.au",
                   "Type ResearchProjects {", "StudentId", "Medibank"):
        assert marker in transcript


def test_f2_each_product_orb_serves_the_sources_behind_it():
    system = build_healthcare_system().system
    for spec in topo.DATABASE_SPECS:
        assert system.wrapper_client(spec.name).banner
    assert {product for product, stats in system.metrics()["orbs"].items()
            if stats["requests_handled"]} \
        >= {"Orbix", "OrbixWeb", "VisiBroker for Java"}


def test_f6_one_access_pattern_answers_in_three_sql_dialects(healthcare):
    browser = healthcare.browser(topo.QUT)
    calls = {"Oracle": (topo.RBH, "ResearchProjects", "Funding",
                        AIDS_PROJECT_TITLE),
             "mSQL": (topo.SGF, "Funding", "ProgramBudget", "Rural Clinics"),
             "DB2 Universal Database": (topo.QUT, "Surveys", "SurveyLead",
                                        "Health in Queensland")}
    for dialect, (database, *call) in calls.items():
        assert healthcare.system.registry.source(database).dbms == dialect
        assert browser.invoke(database, *call).data is not None


def test_a1_early_stop_link_fanout_and_ontology(healthcare):
    """The three design knobs of DESIGN.md §5, each on its own."""
    space = build_scaled_space(databases=112, coalitions=14)
    engine = space.discovery_engine()
    workload = discovery_workload(space, 20, seed=23)
    early, sweep = ([engine.discover(q.text, q.start_database, max_hops=10,
                                     stop_at_first=stop) for q in workload]
                    for stop in (True, False))
    assert sum(r.codatabases_contacted for r in early) \
        < sum(r.codatabases_contacted for r in sweep)
    assert sum(len(r.leads) for r in early) \
        <= sum(len(r.leads) for r in sweep)

    depths = []
    for fanout in (1, 2, 4):
        space = build_scaled_space(databases=112, coalitions=14,
                                   links_per_coalition=fanout)
        engine = space.discovery_engine()
        results = [engine.discover(q.text, q.start_database, max_hops=14)
                   for q in discovery_workload(space, 20, seed=29)]
        assert all(r.resolved for r in results)
        depths.append(sum(r.max_depth_reached for r in results))
    assert depths[-1] <= depths[0]

    registry = healthcare.system.registry
    synonyms = [("health research", "Research"),
                ("healthcare insurance", topo.MEDICAL_INSURANCE),
                ("retirement funds", topo.SUPERANNUATION)]

    def recall(ontology):
        return sum(topic_score(query, registry.coalition(name)
                               .information_type, ontology) >= 0.5
                   for query, name in synonyms)

    assert recall(topo.healthcare_ontology()) > recall(None)
    assert healthcare.browser(topo.QUT).find("health research") \
        .data.resolved


def test_s12_the_metadata_cache_serves_the_warm_pass_and_drops_one_audience():
    cache = MetadataCache()
    system = WebFinditSystem(metadata_cache=cache)
    names = [f"src{index:05d}" for index in range(48)]
    for name in names:
        system.register_object_source(
            ObjectDatabase(name=name, product="ObjectStore"),
            SourceDescription(name=name, information_type="cardiology"))
    system.create_coalition("Cardio", "cardiology")
    for name in names[:8]:
        system.join(name, "Cardio")

    def read_pass():
        before = cache.stats()
        for name in names:
            client = system.codatabase_client(name)
            client.memberships()
            client.known_coalitions()
        after = cache.stats()
        hits = after["hits"] - before["hits"]
        return hits, hits + after["misses"] - before["misses"]

    cold_hits, lookups = read_pass()
    assert lookups == 2 * len(names)
    assert cold_hits <= 0.10 * lookups
    warm_hits, lookups = read_pass()
    assert warm_hits >= 0.95 * lookups
    # A join's floors reach its audience — the eight members and the
    # joiner — and drop their two cached reads each, nothing else.
    dropped = cache.stats()["invalidations"]
    system.join(names[8], "Cardio")
    assert cache.stats()["invalidations"] - dropped == 2 * 9
    assert len(cache) == 2 * (len(names) - 9)
