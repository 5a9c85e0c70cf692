"""A co-database answers a repeated ``consult`` from its topic index's memo.

Each topic index keeps the :class:`ConsultAnswer` s it gave, keyed by
``(query, neighbors, threshold)``, up to
:data:`~repro.core.codatabase.CONSULT_MEMO_SIZE` of them.  The memo
lives and dies with the index, whose key (epoch, applied, ontology
version) covers every other input of ``consult``, so a maintenance
write or an ontology change drops it with the index.

The first property runs the unfiltered write scripts of
``tests/core/write_scripts.py`` with no ontology, the healthcare one,
and one grown after the index was built.  After every step each
question is asked three times over (the third round answers from the
memo) and every answer must equal a fresh computation on a memo-less
index and the plain-dict scan of ``tests/core/test_topic_index.py``.
The second holds whole resolutions, each asked twice (the second from
the memos), to ``tests/core/discovery_model.py`` while service links
come and go.  The deterministic tests pin the rest: a stored answer
never survives a write, the 65th distinct question is answered and not
stored, and eight threads consulting one co-database get equal answers.

Tier-1 runs hypothesis's default example count derandomised; CI's
``discovery-model`` job loads the ``ci`` profile (ten times the
examples, ``--hypothesis-seed`` from {7, 23, 1999}).
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.healthcare.topology import healthcare_ontology
from repro.core.codatabase import CONSULT_MEMO_SIZE, CoDatabase
from repro.core.coalition import Coalition
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.model import SourceDescription
from repro.core.service_link import EndpointKind, ServiceLink
from repro.errors import WebFinditError

from tests.core import discovery_model
from tests.core.test_discovery_model import (answered, deploy, federations,
                                             queries, thresholds, topics)
from tests.core.test_topic_index import (INSURANCE_LINK, QUERIES,
                                         PlainCoDatabase, Refused, _grow,
                                         _stocked)
from tests.core.write_scripts import OWNER, writes

SETTINGS = settings.default \
    if settings.default is settings.get_profile("ci") \
    else settings(derandomize=True, deadline=None)


def fresh(codatabase, query, neighbors, threshold):
    """``consult``'s answer computed on a new index, which has no memo."""
    index = codatabase._build_index(codatabase._index_key())
    assert index.answers == {}
    return codatabase._answer(index, query, neighbors, threshold)


@SETTINGS
@given(script=st.lists(writes, min_size=1, max_size=24),
       threshold=st.sampled_from([0.3, 0.5, 1.0]),
       ontology_kind=st.sampled_from(["none", "healthcare", "grown"]),
       grow_at=st.integers(min_value=0, max_value=23))
def test_a_remembered_answer_is_what_a_fresh_index_answers(
        script, threshold, ontology_kind, grow_at):
    ontology = None if ontology_kind == "none" else healthcare_ontology()
    codatabase = CoDatabase(OWNER, ontology=ontology)
    reference = PlainCoDatabase(OWNER)

    def agree():
        asked = {}
        for round_ in range(3):  # round 2 asks round 0's questions again
            for number, query in enumerate(QUERIES):
                neighbors = (number + round_) % 2 == 0
                answer = codatabase.consult(query, neighbors, threshold)
                assert answer == fresh(codatabase, query, neighbors,
                                       threshold)
                assert answer.to_wire() == reference.consult(
                    query, neighbors, threshold, ontology)
                question = (query, neighbors, threshold)
                if round_ == 2:
                    assert answer is asked[question]  # from the memo
                asked[question] = answer
        assert codatabase._topic_index().answers == asked

    for step, (operation, args) in enumerate(script):
        try:
            getattr(reference, operation)(*args)
        except Refused:
            expected_refusal = True
        else:
            expected_refusal = False
        try:
            getattr(codatabase, operation)(*args)
        except WebFinditError:
            refused = True
        else:
            refused = False
        assert refused == expected_refusal, (step, operation)
        agree()
        if ontology_kind == "grown" and step == min(grow_at, len(script) - 1):
            _grow(ontology)  # the memo was filled by agree() just now
            agree()


@st.composite
def sessions(draw):
    """A federation, then resolutions asked while links come and go."""
    topology = draw(federations())
    ends = [("database", name) for name in topology["databases"]] \
        + [("coalition", name) for name in topology["coalitions"]]
    ask = st.tuples(st.just("ask"), queries,
                    st.sampled_from(sorted(topology["databases"])),
                    thresholds, st.integers(0, 4), st.booleans())
    link = st.tuples(st.just("link"), st.sampled_from(ends),
                     st.sampled_from(ends), st.one_of(st.just(""), topics),
                     st.one_of(st.just(""), topics))
    unlink = st.tuples(st.just("unlink"), st.integers(0, 20))
    return topology, draw(st.lists(st.one_of(ask, ask, link, unlink),
                                   min_size=1, max_size=10))


def _service_link(link):
    return ServiceLink(
        EndpointKind.parse(link["from"][0]), link["from"][1],
        EndpointKind.parse(link["to"][0]), link["to"][1],
        information_type=link["information_type"],
        description=link["description"])


@SETTINGS
@given(sessions())
def test_resolutions_from_the_memos_equal_the_model(session):
    topology, steps = session
    registry = deploy(topology)
    links = list(topology["links"])
    topology = {**topology, "links": links}
    for step in steps:
        if step[0] == "link":
            __, source, target, information_type, description = step
            if source == target or any(
                    (other["from"], other["to"]) == (source, target)
                    for other in links):
                continue
            links.append({"from": source, "to": target,
                          "information_type": information_type,
                          "description": description})
            registry.add_service_link(_service_link(links[-1]))
            continue
        if step[0] == "unlink":
            if links:
                registry.remove_service_link(
                    _service_link(links.pop(step[1] % len(links))))
            continue
        __, query, start, threshold, max_hops, stop_at_first = step
        expected = discovery_model.leads(topology, query, start, max_hops,
                                         stop_at_first, threshold)
        engine = DiscoveryEngine(
            lambda name: CoDatabaseClient.for_local(registry.codatabase(name)),
            match_threshold=threshold)
        first, second = (engine.discover(query, start, max_hops=max_hops,
                                         stop_at_first=stop_at_first)
                         for __ in range(2))
        assert answered(first) == answered(second) == expected
        assert first.trace == second.trace
        assert (query, True, threshold) \
            in registry.codatabase(start)._topic_index().answers


def test_a_stored_answer_never_survives_a_write():
    ontology = healthcare_ontology()
    codatabase = _stocked()
    codatabase.ontology = ontology
    beta = SourceDescription("Beta", "insurance")
    changes = [
        lambda: codatabase.advertise(SourceDescription("Alpha", "x")),
        lambda: codatabase.register_coalition(Coalition("Cover",
                                                        "insurance")),
        lambda: codatabase.add_member("Cover", beta),
        lambda: codatabase.record_membership("Cover"),
        lambda: codatabase.add_service_link(INSURANCE_LINK),
        lambda: codatabase.attach_document("Alpha", "text", "notes"),
        lambda: codatabase.remove_service_link(INSURANCE_LINK),
        lambda: codatabase.remove_member("Cover", "Beta"),
        lambda: codatabase.drop_membership("Cover"),
        lambda: codatabase.forget_coalition("Cover"),
        lambda: ontology.add_synonyms("insurance", ["cardiology"]),
        lambda: ontology.relate("cover", "cardiology"),
    ]
    for change in changes:
        asked = codatabase.consult("insurance", True, 0.5)
        index = codatabase._topic_index()
        assert index.answers == {("insurance", True, 0.5): asked}
        change()
        rebuilt = codatabase._topic_index()
        assert rebuilt is not index and rebuilt.answers == {}
        answer = codatabase.consult("insurance", True, 0.5)
        assert answer == fresh(codatabase, "insurance", True, 0.5)
        assert rebuilt.answers == {("insurance", True, 0.5): answer}
    # One of them showed: the link's lead came and went with its write.
    codatabase.add_service_link(INSURANCE_LINK)
    assert [lead.to_name for lead in
            codatabase.consult("insurance", True, 0.5).leads] == ["Beta"]


def test_the_question_past_the_bound_is_answered_and_not_stored():
    codatabase = _stocked()
    codatabase.add_service_link(INSURANCE_LINK)
    questions = [(f"cardiology {number}", number % 2 == 0, 0.5)
                 for number in range(CONSULT_MEMO_SIZE)]
    first = [codatabase.consult(*question) for question in questions]
    answers = codatabase._topic_index().answers
    assert len(answers) == CONSULT_MEMO_SIZE == 64
    past = ("insurance", False, 0.5)
    answer = codatabase.consult(*past)
    assert answer.leads and answer == fresh(codatabase, *past)
    assert past not in answers and len(answers) == CONSULT_MEMO_SIZE
    assert codatabase.consult(*past) is not answer  # computed again
    assert all(codatabase.consult(*question) is stored
               for question, stored in zip(questions, first))


def test_eight_threads_consulting_one_codatabase_get_equal_answers():
    codatabase = _stocked()
    codatabase.ontology = healthcare_ontology()
    codatabase.add_service_link(INSURANCE_LINK)
    questions = [(query, neighbors, threshold) for query in QUERIES
                 for neighbors in (True, False) for threshold in (0.3, 1.0)]
    expected = {question: fresh(codatabase, *question)
                for question in questions}
    start = threading.Barrier(8)
    seen = [[] for __ in range(8)]

    def consult(mine):
        start.wait()
        for __ in range(20):
            for question in questions:
                mine.append((question, codatabase.consult(*question)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consult, args=(mine,))
                   for mine in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(mine) == 20 * len(questions) for mine in seen)
    assert all(answer == expected[question]
               for mine in seen for question, answer in mine)
    answers = codatabase._topic_index().answers
    assert len(answers) == len(questions) < CONSULT_MEMO_SIZE
    assert all(answers[question] == expected[question]
               for question in questions)
