"""End-to-end integration tests across the whole pipeline."""

import pytest

from repro.bench.metrics import evaluate_answers, jaccard
from repro.bench.workloads import q117_truth_constraint, q117_variants
from repro.bench.groundtruth import constraint_truth
from repro.core.config import SearchConfig
from repro.core.engine import SemanticGraphQueryEngine
from repro.kg.compact import CompactGraph


class TestFullPipeline:
    def test_q117_all_variants_answer_consistently(self, medium_bundle):
        """The four Fig. 1 phrasings of the same intent produce highly
        overlapping answer sets through the engine."""
        bundle = medium_bundle
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        answers = {}
        for name, query in q117_variants().items():
            answers[name] = set(engine.search(query, k=40).answer_uids())
        # G1/G2/G4 share the assembly predicate — identical answers.
        assert answers["G1"] == answers["G2"] == answers["G4"]
        # G3 (product) overlaps strongly with the rest.
        assert jaccard(answers["G3"], answers["G4"]) > 0.5

    def test_q117_beats_half_precision_at_small_k(self, medium_bundle):
        bundle = medium_bundle
        truth = constraint_truth(
            bundle.kg, CompactGraph.freeze(bundle.kg), q117_truth_constraint()
        )
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        result = engine.search(q117_variants()["G3"], k=20)
        scores = evaluate_answers(result.answer_uids(), truth)
        assert scores.precision > 0.5

    def test_engine_deterministic_across_runs(self, medium_bundle):
        bundle = medium_bundle
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        first = engine.search(q117_variants()["G3"], k=25).answer_uids()
        second = engine.search(q117_variants()["G3"], k=25).answer_uids()
        assert first == second

    def test_tau_tightening_monotone_recall(self, medium_bundle):
        """Lemma 3 end to end: a larger τ can only remove answers."""
        bundle = medium_bundle
        truth = constraint_truth(
            bundle.kg, CompactGraph.freeze(bundle.kg), q117_truth_constraint()
        )
        recalls = []
        for tau in (0.6, 0.8, 0.9):
            engine = SemanticGraphQueryEngine(
                bundle.kg, bundle.space, bundle.library, SearchConfig(tau=tau)
            )
            result = engine.search(q117_variants()["G3"], k=200)
            recalls.append(evaluate_answers(result.answer_uids(), truth).recall)
        assert recalls[0] >= recalls[1] >= recalls[2]

    def test_workload_queries_all_answerable(self, medium_bundle):
        """Every surviving workload query returns at least one answer
        through the engine within paper-default config."""
        bundle = medium_bundle
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        for query in bundle.workload:
            result = engine.search(query.query, k=5)
            assert result.matches, query.qid

    def test_transe_space_end_to_end(self):
        """The fully paper-faithful pipeline (trained TransE space) finds
        the exact-predicate answers for an assembly query."""
        from repro.bench.datasets import load_bundle

        bundle = load_bundle("dbpedia", scale=0.6, seed=5, space_source="transe")
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        result = engine.search(q117_variants()["G4"], k=10)
        (germany,) = bundle.kg.entities_named("Germany")
        direct = [
            uid
            for uid in result.answer_uids()
            if bundle.kg.has_edge(uid, "assembly", germany)
        ]
        # sim(assembly, assembly) = 1.0 regardless of training quality, so
        # direct assembly answers must rank at the top.
        assert direct
