"""Information-type model, topic matching, ontology."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import (InformationType, Ontology, SourceDescription,
                              topic_score, topic_scorer, topic_words)


class TestTopicWords:
    def test_normalizes_case_and_punctuation(self):
        assert topic_words("Medical-Research, QLD!") == \
            {"medical", "research", "qld"}

    def test_stop_words_removed(self):
        assert topic_words("Research and Medical") == {"research", "medical"}

    def test_empty(self):
        assert topic_words("") == frozenset()
        assert topic_words("and the of") == frozenset()


class TestTopicScore:
    def test_exact_match(self):
        assert topic_score("Medical Research", "Medical Research") == 1.0

    def test_subset_match(self):
        assert topic_score("Medical", "Research and Medical") == 1.0

    def test_partial_match(self):
        assert topic_score("Medical Insurance", "Medical Research") == 0.5

    def test_no_match(self):
        assert topic_score("Superannuation", "Medical Research") == 0.0

    def test_empty_query(self):
        assert topic_score("", "anything") == 0.0

    def test_order_independent(self):
        assert topic_score("research medical", "Medical Research") == 1.0


def score_word_by_word(query, topic, ontology=None):
    """The scorer as first written: the query tokenised, and each of its
    words expanded, once per topic scored."""
    query_set = topic_words(query)
    if not query_set:
        return 0.0
    target = topic_words(topic)
    if ontology is not None:
        target = ontology.expand(target)
    hits = sum(1 for word in query_set
               if word in target
               or (ontology is not None
                   and ontology.expand({word}) & target))
    return hits / len(query_set)


class TestTopicScorer:
    """One query against many topics: the word set is built once, the
    scores are :func:`topic_score`'s."""

    phrases = st.lists(st.sampled_from(
        ["medical", "health", "care", "research", "insurance", "cover",
         "and", "the"]), max_size=4).map(" ".join)

    @settings(derandomize=True, deadline=None)
    @given(phrases, st.lists(phrases, max_size=4), st.booleans())
    def test_scores_are_the_word_by_word_scorers(self, query, topics,
                                                 with_ontology):
        ontology = None
        if with_ontology:
            ontology = Ontology()
            ontology.add_synonyms("medical", ["health", "care"])
            ontology.add_synonyms("insurance", ["cover"])
        score_of = topic_scorer(query, ontology)
        for topic in topics:
            expected = score_word_by_word(query, topic, ontology)
            assert score_of(topic) == expected
            assert topic_score(query, topic, ontology) == expected


class TestOntology:
    def test_synonym_expansion(self):
        ontology = Ontology()
        ontology.add_synonyms("medical", ["health", "healthcare"])
        assert "health" in ontology.expand({"medical"})
        assert "medical" in ontology.expand({"healthcare"})

    def test_synonyms_boost_score(self):
        ontology = Ontology()
        ontology.add_synonyms("medical", ["health"])
        assert topic_score("health services", "medical services",
                           ontology) == 1.0
        assert topic_score("health services", "medical services") == 0.5

    def test_memoised_word_sets_follow_a_change(self):
        ontology = Ontology()
        assert ontology.topic_words("Heart Care") == {"heart", "care"}
        version = ontology.version
        ontology.add_synonyms("heart", ["cardiac"])
        assert ontology.version > version
        assert ontology.topic_words("Heart Care") \
            == {"heart", "cardiac", "care"}
        version = ontology.version
        ontology.relate("Heart", "Cardiology")
        assert ontology.version > version

    def test_proximity_relationships(self):
        ontology = Ontology()
        ontology.relate("Medical", "Medical Insurance")
        assert ontology.are_related("medical", "medical insurance")
        assert ontology.are_related("Medical Insurance", "Medical")
        assert not ontology.are_related("Medical", "Superannuation")
        assert ontology.related("medical") == frozenset({"medical insurance"})


class TestInformationType:
    def test_matching_delegates_to_score(self):
        info = InformationType("Medical Research")
        assert info.matches("research") == 1.0

    def test_structure_carried(self):
        info = InformationType("X", structure=(("title", "string"),))
        assert info.structure[0] == ("title", "string")


class TestSourceDescription:
    def test_wire_roundtrip(self):
        description = SourceDescription(
            name="RBH", information_type="Research and Medical",
            documentation_url="http://rbh", location="dba.icis.qut.edu.au",
            wrapper="WebTassiliOracle",
            interface=["ResearchProjects", "PatientHistory"],
            dbms="Oracle", orb_product="VisiBroker for Java")
        assert SourceDescription.from_wire(description.to_wire()) == \
            description

    def test_render_matches_paper_block(self):
        description = SourceDescription(
            name="Royal Brisbane Hospital",
            information_type="Research and Medical",
            documentation_url="http://www.medicine.uq.edu.au/RBH",
            location="dba.icis.qut.edu.au",
            wrapper="dba.icis.qut.edu.au/WebTassiliOracle",
            interface=["ResearchProjects", "PatientHistory"])
        rendered = description.render()
        assert rendered.splitlines()[0] == \
            "Information Source Royal Brisbane Hospital {"
        assert '    Information Type "Research and Medical"' in rendered
        assert "    Interface ResearchProjects, PatientHistory" in rendered
        assert rendered.endswith("}")
