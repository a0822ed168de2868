"""Tests for the benchmark infrastructure (metrics, workloads, runners)."""

import dataclasses
import time

import pytest

from repro.bench.annotators import (
    RankedAnswer,
    SimulatedAnnotatorPool,
    classify_pcc,
    group_by_score,
    run_user_study,
    sample_cross_group_pairs,
)
from repro.bench.datasets import load_bundle
from repro.bench.groundtruth import compute_truth, constraint_truth
from repro.bench.metrics import (
    EffectivenessScores,
    evaluate_answers,
    f1_score,
    jaccard,
    precision_recall,
)
from repro.bench.reporting import format_sweep, format_table
from repro.bench.runner import (
    MethodAdapter,
    baseline_adapters,
    effectiveness_sweep,
    run_method,
    sgq_adapter,
    tbq_adapter,
)
from repro.bench.workloads import (
    TruthConstraint,
    WorkloadQuery,
    dbpedia_workload,
    freebase_workload,
    q117_truth_constraint,
    q117_variants,
    workload_for,
    yago2_workload,
)
from repro.core.engine import SemanticGraphQueryEngine
from repro.errors import ReproError
from repro.kg.compact import CompactGraph


class TestMetrics:
    def test_precision_recall(self):
        p, r = precision_recall([1, 2, 3, 4], {2, 4, 6})
        assert p == 0.5 and r == pytest.approx(2 / 3)

    def test_empty_answers(self):
        assert precision_recall([], {1}) == (0.0, 0.0)

    def test_empty_truth_raises(self):
        with pytest.raises(ReproError):
            precision_recall([1], set())

    def test_f1(self):
        assert f1_score(0.5, 0.5) == pytest.approx(0.5)
        assert f1_score(0.0, 0.9) == 0.0

    def test_evaluate_answers(self):
        scores = evaluate_answers([1, 2], {1, 2, 3, 4})
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 / 3)

    def test_average(self):
        avg = EffectivenessScores.average(
            [EffectivenessScores(1, 0, 0), EffectivenessScores(0, 1, 0)]
        )
        assert avg.precision == 0.5 and avg.recall == 0.5
        with pytest.raises(ReproError):
            EffectivenessScores.average([])

    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0
        assert jaccard({1}, set()) == 0.0


class TestWorkloads:
    @pytest.mark.parametrize("factory", [dbpedia_workload, freebase_workload, yago2_workload])
    def test_queries_well_formed(self, factory):
        queries = factory()
        assert queries
        qids = [q.qid for q in queries]
        assert len(qids) == len(set(qids))
        for query in queries:
            assert query.complexity in ("simple", "medium", "complex")
            assert query.truth_constraints
            assert query.query.target_nodes()

    def test_q117_variants_cover_fig1(self):
        variants = q117_variants()
        assert set(variants) == {"G1", "G2", "G3", "G4"}
        assert variants["G1"].node("v1").etype == "Car"
        assert variants["G2"].node("v2").name == "GER"
        assert [e.predicate for e in variants["G3"].edges()] == ["product"]

    def test_workload_for_unknown(self):
        with pytest.raises(ReproError):
            workload_for("wikidata")


class TestGroundTruth:
    @pytest.fixture(scope="class")
    def graph(self, small_bundle):
        return CompactGraph.freeze(small_bundle.kg)

    def test_q117_truth_nonempty(self, small_bundle, graph):
        constraint = q117_truth_constraint()
        truth = constraint_truth(small_bundle.kg, graph, constraint)
        assert truth
        assert all(
            small_bundle.kg.entity(uid).etype == "Automobile" for uid in truth
        )

    @pytest.mark.parametrize("preset", ["dbpedia", "freebase", "yago2"])
    def test_a_constraint_is_the_union_of_its_schemas(self, preset):
        """Fig. 1's per-schema answer sets: an entity satisfies a
        constraint iff one of its correct schemas alone reaches it."""
        bundle = load_bundle(preset, scale=1.0, seed=11, use_cache=False)
        graph = CompactGraph.freeze(bundle.kg)
        for query in bundle.workload:
            for constraint in query.truth_constraints:
                per_schema = set()
                for pattern in constraint.patterns:
                    alone = dataclasses.replace(constraint, patterns=(pattern,))
                    per_schema |= constraint_truth(bundle.kg, graph, alone)
                assert per_schema == constraint_truth(bundle.kg, graph, constraint), query.qid

    def test_missing_anchor_raises(self, small_bundle, graph):
        constraint = TruthConstraint("Wakanda", ((("assembly", "-"),),), "Automobile")
        with pytest.raises(ReproError):
            constraint_truth(small_bundle.kg, graph, constraint)

    def test_multi_constraint_intersects(self, small_bundle, graph):
        query = [q for q in dbpedia_workload() if q.qid == "D8"][0]
        try:
            truth = compute_truth(small_bundle.kg, graph, query)
        except ReproError:
            pytest.skip("anchor missing at this scale")
        for constraint in query.truth_constraints:
            assert truth <= constraint_truth(small_bundle.kg, graph, constraint)


class TestBundles:
    def test_bundle_caching(self):
        a = load_bundle("dbpedia", scale=1.0, seed=11)
        b = load_bundle("dbpedia", scale=1.0, seed=11)
        assert a is b

    def test_bundle_contents(self, small_bundle):
        assert small_bundle.preset == "dbpedia"
        assert small_bundle.workload
        for query in small_bundle.workload:
            assert small_bundle.truth[query.qid]

    def test_queries_of_filters(self, small_bundle):
        simple = small_bundle.queries_of("simple")
        assert all(q.complexity == "simple" for q in simple)

    def test_transe_space_source(self):
        bundle = load_bundle(
            "dbpedia", scale=0.5, seed=11, space_source="transe", use_cache=False
        )
        assert set(bundle.space.predicates()) == set(bundle.kg.predicates())

    def test_unknown_space_source(self):
        with pytest.raises(ReproError):
            load_bundle("dbpedia", scale=0.5, space_source="word2vec", use_cache=False)


class TestRunner:
    def test_sgq_adapter_answers(self, small_bundle):
        adapter = sgq_adapter(small_bundle)
        query = small_bundle.workload[0]
        answers = adapter.answer(query, 5)
        assert len(answers) <= 5

    def test_run_method_records(self, small_bundle):
        adapter = sgq_adapter(small_bundle)
        runs = run_method(adapter, small_bundle.workload[:2], small_bundle.truth, 5)
        assert len(runs) == 2
        assert all(r.k == 5 for r in runs)

    def test_effectiveness_sweep_rows(self, small_bundle):
        rows = effectiveness_sweep(
            small_bundle, [sgq_adapter(small_bundle)], ks=(5, 10)
        )
        assert [r.k for r in rows] == [5, 10]
        assert all(0 <= r.precision <= 1 for r in rows)

    def test_tbq_adapter_runs(self, small_bundle):
        adapter = tbq_adapter(small_bundle, time_fraction=0.9)
        answers = adapter.answer(small_bundle.workload[0], 5)
        assert isinstance(answers, list)

    def test_run_method_times_the_answer_not_the_preparation(self, small_bundle):
        """A method's seconds exclude its ``prepare`` step."""
        calls = []

        def prepare(query, k):
            calls.append(("prepare", query.qid, k))
            time.sleep(0.05)

        def answer(query, k):
            calls.append(("answer", query.qid, k))
            return []

        queries = small_bundle.workload[:2]
        adapter = MethodAdapter("stub", answer, prepare)
        runs = run_method(adapter, queries, small_bundle.truth, 5)
        assert calls == [
            (step, query.qid, 5) for query in queries for step in ("prepare", "answer")
        ]
        assert all(run.seconds < 0.05 for run in runs)

    def test_tbq_adapter_calibrates_in_prepare(self, small_bundle, monkeypatch):
        """The SGQ run that sets TBQ's bound is the prepare step: answering
        a prepared query runs only the bounded search."""
        exact = []
        search = SemanticGraphQueryEngine.search

        def counting(engine, *args, **kwargs):
            exact.append(args[0])
            return search(engine, *args, **kwargs)

        monkeypatch.setattr(SemanticGraphQueryEngine, "search", counting)
        adapter = tbq_adapter(small_bundle, time_fraction=0.9)
        query = small_bundle.workload[0]
        adapter.prepare(query, 5)
        assert exact == [query.query]
        adapter.answer(query, 5)
        assert exact == [query.query]
        adapter.answer(query, 5)  # not prepared again: calibrates itself
        assert exact == [query.query] * 2

    def test_baseline_adapters_all_names(self, small_bundle):
        adapters = baseline_adapters(
            small_bundle,
            methods=("gStore", "SLQ", "NeMa", "S4", "p-hom", "GraB", "QGA"),
        )
        assert [a.name for a in adapters] == [
            "gStore", "SLQ", "NeMa", "S4", "p-hom", "GraB", "QGA",
        ]

    def test_unknown_baseline(self, small_bundle):
        with pytest.raises(ReproError):
            baseline_adapters(small_bundle, methods=("AlphaGo",))


class TestAnnotators:
    def _answers(self):
        return [
            RankedAnswer(uid=i, rank=i + 1, score=1.0 - 0.05 * i, in_truth=(i < 12))
            for i in range(24)
        ]

    def test_group_by_score(self):
        groups = group_by_score(self._answers())
        assert sum(len(g) for g in groups) == 24

    def test_pair_sampling_cross_group(self):
        groups = group_by_score(self._answers())
        pairs = sample_cross_group_pairs(groups, 30, seed=0)
        assert len(pairs) == 30
        for a, b in pairs:
            assert round(a.score, 2) != round(b.score, 2)

    def test_pool_prefers_truth(self):
        pool = SimulatedAnnotatorPool(10, seed=0, taste_scale=0.1)
        good = RankedAnswer(1, 1, 0.9, True)
        bad = RankedAnswer(2, 20, 0.5, False)
        votes_good, votes_bad = pool.judge_pair(good, bad)
        assert votes_good > votes_bad

    def test_user_study_positive_pcc(self, medium_bundle):
        """End-to-end protocol: SGQ ranks correlate with annotators."""
        from repro.core.engine import SemanticGraphQueryEngine

        engine = SemanticGraphQueryEngine(
            medium_bundle.kg, medium_bundle.space, medium_bundle.library
        )
        query = medium_bundle.workload[0]
        truth = medium_bundle.truth[query.qid]
        result = engine.search(query.query, k=len(truth))
        answers = [
            RankedAnswer(
                uid=m.pivot_uid, rank=i + 1, score=m.score, in_truth=m.pivot_uid in truth
            )
            for i, m in enumerate(result.matches)
        ]
        study = run_user_study(answers, seed=1)
        assert study.pairs == 30
        assert study.opinions == 300
        assert study.pcc > 0.2

    def test_classify_pcc_bands(self):
        assert classify_pcc(0.7) == "strong"
        assert classify_pcc(0.4) == "medium"
        assert classify_pcc(0.2) == "small"
        assert classify_pcc(0.0) == "none"

    def test_single_group_raises(self):
        answers = [RankedAnswer(i, i + 1, 0.5, True) for i in range(5)]
        with pytest.raises(ReproError):
            sample_cross_group_pairs(group_by_score(answers), 10)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 0.123456)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.123" in text

    def test_format_sweep(self, small_bundle):
        rows = effectiveness_sweep(small_bundle, [sgq_adapter(small_bundle)], ks=(5,))
        text = format_sweep(rows, "demo")
        assert "SGQ" in text and "time (ms)" in text

    def test_emit_persists_only_inside_a_checkout(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.bench import reporting

        # A regular install: three levels up is lib/, with no benchmarks/.
        module = tmp_path / "lib" / "site-packages" / "repro" / "bench"
        monkeypatch.setattr(reporting, "__file__", str(module / "reporting.py"))
        reporting.emit("demo", "table")
        assert "table" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
        # A checkout: benchmarks/ sits beside the source tree.
        (tmp_path / "lib" / "benchmarks").mkdir(parents=True)
        reporting.emit("demo", "table")
        log = tmp_path / "lib" / "benchmarks" / "results" / "logs" / "demo.txt"
        assert log.read_text() == "table\n"
