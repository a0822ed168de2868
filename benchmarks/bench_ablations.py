"""Ablation benches for the design choices docs/architecture.md calls out
("Substitutions and ablation hooks").

1. Scoring mode: geometric mean (Eq. 6) vs arithmetic mean.
2. Visited policy: EXPAND (re-opening; default) vs GENERATE (Algorithm 1
   verbatim) — quantifies the recall the paper's visited set sacrifices.
3. TA early termination vs exhaustive draining — quantifies Theorem 3's
   savings in sorted accesses.
"""

from __future__ import annotations

from repro.bench.metrics import EffectivenessScores, evaluate_answers
from repro.bench.reporting import emit, format_table
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine

K = 100


def _evaluate(bundle, config, **search_kwargs):
    engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library, config)
    scores = []
    results = []
    for query in bundle.workload:
        result = engine.search(query.query, k=K, **search_kwargs)
        scores.append(evaluate_answers(result.answer_uids(), bundle.truth[query.qid]))
        results.append(result)
    return EffectivenessScores.average(scores), results


def _ranking_differences(results_a, results_b):
    """How many queries return a different top-k set, and how many the
    same set in a different order, between two runs of one workload."""
    sets = order = 0
    for a, b in zip(results_a, results_b):
        answers_a, answers_b = a.answer_uids(), b.answer_uids()
        if set(answers_a) != set(answers_b):
            sets += 1
        elif answers_a != answers_b:
            order += 1
    return sets, order


def _multi_hop_share(results):
    """The share of answer components whose path has two or more hops:
    on a one-hop path the geometric and arithmetic means are one weight."""
    hops = [
        len(component.path.steps)
        for result in results
        for match in result.matches
        for component in match.components.values()
    ]
    return sum(h >= 2 for h in hops) / len(hops) if hops else 0.0


def test_ablation_scoring(dbpedia_sweep_bundle, benchmark):
    bundle = dbpedia_sweep_bundle
    geometric, geometric_results = _evaluate(
        bundle, SearchConfig(scoring=PssMode.GEOMETRIC)
    )
    arithmetic, arithmetic_results = _evaluate(
        bundle, SearchConfig(scoring=PssMode.ARITHMETIC)
    )
    sets, order = _ranking_differences(geometric_results, arithmetic_results)
    emit(
        "ablation_scoring",
        format_table(
            ("scoring", "precision", "recall", "F1", "multi-hop components"),
            [
                ("geometric (Eq. 6)", geometric.precision, geometric.recall,
                 geometric.f1, _multi_hop_share(geometric_results)),
                ("arithmetic", arithmetic.precision, arithmetic.recall,
                 arithmetic.f1, _multi_hop_share(arithmetic_results)),
            ],
            title=f"Ablation — pss aggregation (k={K})",
        )
        + f"\nqueries: {len(geometric_results)}; different top-k set: {sets};"
        f" same set, different order: {order}",
    )
    # Both are usable; the assertion is only that neither collapses (the
    # interesting output is the table itself).
    assert geometric.f1 > 0.2
    assert arithmetic.f1 > 0.1

    engine = SemanticGraphQueryEngine(
        bundle.kg, bundle.space, bundle.library, SearchConfig(scoring=PssMode.ARITHMETIC)
    )
    benchmark(lambda: engine.search(bundle.workload[0].query, k=K))


def test_ablation_visited_policy(dbpedia_sweep_bundle, benchmark):
    bundle = dbpedia_sweep_bundle
    expand, _ = _evaluate(
        bundle, SearchConfig(visited_policy=VisitedPolicy.EXPAND)
    )
    generate, _ = _evaluate(
        bundle, SearchConfig(visited_policy=VisitedPolicy.GENERATE)
    )
    emit(
        "ablation_visited_policy",
        format_table(
            ("policy", "precision", "recall", "F1"),
            [
                ("EXPAND (re-opening, default)", expand.precision, expand.recall, expand.f1),
                ("GENERATE (Algorithm 1)", generate.precision, generate.recall, generate.f1),
            ],
            title=f"Ablation — visited policy (k={K})",
        ),
    )
    # Re-opening recovers the recall the generation-time visited set drops.
    assert expand.recall >= generate.recall - 1e-9

    engine = SemanticGraphQueryEngine(
        bundle.kg,
        bundle.space,
        bundle.library,
        SearchConfig(visited_policy=VisitedPolicy.GENERATE),
    )
    benchmark(lambda: engine.search(bundle.workload[0].query, k=K))


def test_ablation_ta_termination(dbpedia_bundle, benchmark):
    bundle = dbpedia_bundle
    queries = [q for q in bundle.workload if q.complexity != "simple"] or bundle.workload
    engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)

    rows = []
    early_total = exhaustive_total = 0
    for query in queries:
        early = engine.search(query.query, k=20)
        exhaustive = engine.search(query.query, k=20, exhaustive_assembly=True)
        early_total += early.ta_accesses
        exhaustive_total += exhaustive.ta_accesses
        rows.append(
            (query.qid, early.ta_accesses, exhaustive.ta_accesses,
             set(early.answer_uids()) == set(exhaustive.answer_uids()))
        )
    emit(
        "ablation_ta_termination",
        format_table(
            ("query", "TA accesses (early)", "TA accesses (exhaustive)", "same top-k"),
            rows,
            title="Ablation — Theorem 3 early termination savings (k=20)",
        ),
    )
    assert early_total <= exhaustive_total

    benchmark(lambda: engine.search(queries[0].query, k=20))
