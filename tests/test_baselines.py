"""Tests for the seven baselines and their Table I/II feature contracts."""

import pytest

from repro.baselines import (
    GStoreBaseline,
    GraBBaseline,
    NeMaBaseline,
    PHomBaseline,
    QGABaseline,
    S4Baseline,
    SLQBaseline,
)
from repro.baselines.base import (
    bounded_distances,
    default_answer_label,
    string_similarity,
    token_overlap,
)
from repro.baselines.s4 import SemanticInstance
from repro.bench.workloads import q117_variants, qga_aliases, s4_prior_instances
from repro.errors import QueryError
from repro.kg.compact import CompactGraph
from repro.kg.generator import build_dataset
from repro.kg.paths import follow_pattern
from repro.kg.schema import dbpedia_like_schema
from repro.query.builder import QueryGraphBuilder
from repro.query.transform import TransformationLibrary


@pytest.fixture(scope="module")
def setup():
    schema = dbpedia_like_schema()
    kg = build_dataset("dbpedia", seed=1, scale=1.0)
    library = TransformationLibrary.from_schema(schema)
    (germany,) = kg.entities_named("Germany")
    one_hop = {
        uid
        for uid in follow_pattern(CompactGraph.freeze(kg), germany, [("assembly", "-")])
        if kg.entity(uid).etype == "Automobile"
    }
    return schema, kg, library, germany, one_hop


@pytest.fixture(scope="module")
def store(setup):
    return CompactGraph.freeze(setup[1])


class TestHelpers:
    def test_token_overlap(self):
        assert token_overlap("soccer club", "club") == pytest.approx(0.5)
        assert token_overlap("a", "b") == 0.0

    def test_string_similarity_prefix(self):
        assert string_similarity("GER", "Germany") >= 0.5
        assert string_similarity("Car", "Automobile") == 0.0
        assert string_similarity("X", "X") == 1.0

    def test_bounded_distances(self, setup, store):
        _schema, _kg, _library, germany, _one_hop = setup
        distances = bounded_distances(store, [germany], 2)
        assert distances[germany] == 0
        assert all(d <= 2 for d in distances.values())

    def test_default_answer_label(self):
        query = q117_variants()["G4"]
        assert default_answer_label(query) == "v1"


class TestGStore:
    def test_finds_exactly_one_hop_assembly(self, setup):
        _schema, kg, _library, _germany, one_hop = setup
        result = GStoreBaseline(kg).search(q117_variants()["G4"], k=1000)
        assert set(result.answers) == one_hop

    def test_fails_on_renamed_type(self, setup):
        _schema, kg, _library, _g, _o = setup
        assert GStoreBaseline(kg).search(q117_variants()["G1"], k=100).answers == []

    def test_fails_on_abbreviated_name(self, setup):
        _schema, kg, _library, _g, _o = setup
        assert GStoreBaseline(kg).search(q117_variants()["G2"], k=100).answers == []

    def test_fails_on_mismatched_predicate(self, setup):
        _schema, kg, _library, _g, _o = setup
        assert GStoreBaseline(kg).search(q117_variants()["G3"], k=100).answers == []

    def test_k_validated(self, setup):
        _schema, kg, _library, _g, _o = setup
        with pytest.raises(QueryError):
            GStoreBaseline(kg).search(q117_variants()["G4"], k=0)


class TestSLQ:
    def test_handles_all_four_variants(self, setup):
        _schema, kg, library, _g, one_hop = setup
        slq = SLQBaseline(kg, library)
        for name, query in q117_variants().items():
            answers = set(slq.search(query, k=1000).answers)
            assert one_hop <= answers, f"variant {name} missed 1-hop answers"

    def test_no_edge_to_path(self, setup, store):
        """SLQ cannot reach answers that need 2-hop schemas."""
        _schema, kg, library, germany, _one_hop = setup
        two_hop_only = {
            uid
            for uid in follow_pattern(
                store, germany, [("location", "-"), ("manufacturer", "-")]
            )
            if not kg.has_edge(uid, "assembly", germany)
        }
        answers = set(SLQBaseline(kg, library).search(q117_variants()["G4"], k=10**4).answers)
        assert two_hop_only - answers  # misses at least some 2-hop answers

    def test_exact_predicate_ranks_first(self, setup):
        _schema, kg, library, _g, one_hop = setup
        result = SLQBaseline(kg, library).search(q117_variants()["G4"], k=len(one_hop))
        assert set(result.answers) <= one_hop | set(result.answers)
        assert set(result.answers[: len(one_hop)]) == one_hop


class TestNeMa:
    def test_structural_recall_without_predicates(self, setup):
        _schema, kg, _library, _g, one_hop = setup
        result = NeMaBaseline(kg).search(q117_variants()["G4"], k=2000)
        found = set(result.answers)
        assert len(one_hop & found) / len(one_hop) > 0.8

    def test_fails_on_renamed_type(self, setup):
        _schema, kg, _library, _g, _o = setup
        assert NeMaBaseline(kg).search(q117_variants()["G1"], k=100).answers == []

    def test_partially_matches_abbreviation(self, setup):
        _schema, kg, _library, _g, _o = setup
        answers = NeMaBaseline(kg).search(q117_variants()["G2"], k=100).answers
        assert answers  # prefix similarity lets GER ~ Germany through


class TestS4:
    @pytest.fixture(scope="class")
    def s4(self, setup, store):
        _schema, kg, _library, germany, _one_hop = setup
        instances = [
            SemanticInstance("product", uid, germany)
            for uid in sorted(follow_pattern(store, germany, [("assembly", "-")]))[:8]
        ]
        return S4Baseline(kg, instances)

    def test_mines_assembly_pattern(self, s4):
        # Patterns walk object -> subject: Germany <-assembly- car is a
        # backward step.
        patterns = s4.patterns_for("product")
        assert any(p.steps == (("assembly", "-"),) for p in patterns)

    def test_answers_follow_mined_patterns(self, setup, s4):
        _schema, kg, _library, _g, one_hop = setup
        result = s4.search(q117_variants()["G3"], k=2000)
        assert set(result.answers) & one_hop

    def test_no_prior_knowledge_no_answers(self, setup):
        _schema, kg, _library, _g, _o = setup
        empty_s4 = S4Baseline(kg, [])
        assert empty_s4.search(q117_variants()["G3"], k=100).answers == []

    def test_fails_on_renamed_nodes(self, setup, s4):
        assert s4.search(q117_variants()["G1"], k=100).answers == []
        assert s4.search(q117_variants()["G2"], k=100).answers == []

    def test_pattern_cap(self, setup, store):
        _schema, kg, _library, germany, _one_hop = setup
        instances = [
            SemanticInstance("product", uid, germany)
            for uid in sorted(follow_pattern(store, germany, [("assembly", "-")]))[:8]
        ]
        s4 = S4Baseline(kg, instances, max_patterns=1)
        assert len(s4.patterns_for("product")) <= 1


class TestPHom:
    def test_path_feasibility_floods_precision(self, setup):
        """p-hom returns far more answers than the correct set (its
        defining weakness: predicates carry no constraint)."""
        _schema, kg, _library, _g, one_hop = setup
        result = PHomBaseline(kg).search(q117_variants()["G4"], k=10**4)
        assert len(result.answers) > len(one_hop) * 2

    def test_respects_similarity_threshold(self, setup):
        _schema, kg, _library, _g, _o = setup
        strict = PHomBaseline(kg, similarity_threshold=0.99)
        loose = PHomBaseline(kg, similarity_threshold=0.2)
        query = q117_variants()["G4"]
        assert len(strict.search(query, k=10**4).answers) <= len(
            loose.search(query, k=10**4).answers
        )


class TestGraB:
    def test_high_recall_low_precision(self, setup):
        """GraB reaches nearly every correct answer within its radius but
        cannot rank them above distance-1 distractors (popularIn etc.) —
        its Table I profile."""
        _schema, kg, _library, _g, one_hop = setup
        result = GraBBaseline(kg).search(q117_variants()["G4"], k=10**4)
        found = set(result.answers)
        assert len(one_hop & found) / len(one_hop) > 0.9
        assert len(found) > len(one_hop) * 2  # flooded with distractors

    def test_exact_anchor_requirement(self, setup):
        _schema, kg, _library, _g, _o = setup
        assert GraBBaseline(kg).search(q117_variants()["G2"], k=100).answers == []

    def test_radius_limits_answers(self, setup):
        _schema, kg, _library, _g, _o = setup
        near = GraBBaseline(kg, radius=1).search(q117_variants()["G4"], k=10**4)
        far = GraBBaseline(kg, radius=3).search(q117_variants()["G4"], k=10**4)
        assert len(near.answers) <= len(far.answers)


class TestQGA:
    @pytest.fixture(scope="class")
    def qga(self, setup):
        schema, kg, library, _g, _o = setup
        return QGABaseline(kg, library, qga_aliases(schema))

    def test_entity_linking_resolves_abbreviation(self, setup, qga):
        _schema, _kg, _library, _g, one_hop = setup
        answers = set(qga.search(q117_variants()["G2"], k=1000).answers)
        assert one_hop <= answers

    def test_type_keywords_fail_on_synonym(self, setup, qga):
        assert qga.search(q117_variants()["G1"], k=100).answers == []

    def test_paraphrase_resolves_product(self, setup, qga):
        _schema, _kg, _library, _g, one_hop = setup
        answers = set(qga.search(q117_variants()["G3"], k=1000).answers)
        assert answers & one_hop

    def test_precision_is_total(self, setup, qga):
        """Every QGA answer satisfies an exact (possibly paraphrased)
        1-hop SPARQL pattern."""
        schema, kg, _library, germany, _one_hop = setup
        answers = qga.search(q117_variants()["G4"], k=1000).answers
        aliases = ["assembly"] + qga_aliases(schema)["assembly"]
        for uid in answers:
            assert any(
                kg.has_edge(uid, predicate, germany)
                or kg.has_edge(germany, predicate, uid)
                for predicate in aliases
            )


class TestS4PriorBuilder:
    def test_coverage_bounds_instances(self, setup):
        schema, kg, _library, _g, _o = setup
        from repro.bench.workloads import dbpedia_workload

        workload = dbpedia_workload()[:2]
        low = s4_prior_instances(kg, workload, coverage=0.2, seed=0)
        high = s4_prior_instances(kg, workload, coverage=1.0, seed=0)
        assert len(low) <= len(high)
        assert high

    def test_coverage_validated(self, setup):
        from repro.errors import ReproError

        _schema, kg, _library, _g, _o = setup
        with pytest.raises(ReproError):
            s4_prior_instances(kg, [], coverage=1.5)
