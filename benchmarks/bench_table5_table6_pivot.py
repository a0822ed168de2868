"""Tables V & VI — effect of pivot-node selection.

Table V: one complex query run under two different forced pivots at
several k; the pivot inducing shorter sub-query walks is both more
accurate and faster (the paper's v2-over-v1 finding).

Table VI: minCost vs Random pivot strategy per query-complexity class,
with k = validation-set size (so P = R, as the paper notes).  minCost
should be at least as accurate and faster on average.
"""

from __future__ import annotations

import statistics

import pytest

from repro.bench.metrics import evaluate_answers
from repro.bench.reporting import emit, format_table
from repro.core.engine import SemanticGraphQueryEngine
from repro.utils.timing import Stopwatch


def _complex_query(bundle):
    for query in bundle.workload:
        if query.complexity in ("medium", "complex"):
            return query
    pytest.skip("no medium/complex query survived at this scale")


def test_table5_pivot_example(dbpedia_bundle, benchmark):
    bundle = dbpedia_bundle
    workload_query = _complex_query(bundle)
    truth = bundle.truth[workload_query.qid]
    engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)

    # The two candidate pivots: the minCost choice and an alternative
    # target node (the paper compares v1 vs v2 on Fig. 16a).
    chosen = engine.decompose(workload_query.query)
    alternatives = [
        node.label
        for node in workload_query.query.target_nodes()
        if node.label != chosen.pivot_label
    ]
    if not alternatives:
        pytest.skip("query has a single target node")
    other = alternatives[0]

    rows = []
    times = {chosen.pivot_label: [], other: []}
    for k in (10, 20, 40):
        for pivot in (chosen.pivot_label, other):
            watch = Stopwatch()
            result = engine.search(workload_query.query, k=k, pivot=pivot)
            seconds = watch.elapsed()
            scores = evaluate_answers(result.answer_uids(), truth)
            times[pivot].append(seconds)
            rows.append(
                (
                    k,
                    pivot,
                    scores.precision,
                    scores.recall,
                    scores.f1,
                    f"{seconds * 1000:.1f}",
                )
            )
    emit(
        "table5_pivot_example",
        format_table(
            ("k", "pivot", "P", "R", "F1", "time (ms)"),
            rows,
            title=f"Table V — pivot choice on {workload_query.qid} "
            f"({workload_query.description})",
        ),
    )
    # Table V's claim: pivot choice changes performance materially on the
    # same query (the paper's v1 is ~2x slower than v2).  Which pivot wins
    # depends on the instance; the aggregate minCost-vs-Random claim is
    # Table VI's.
    total_chosen = sum(times[chosen.pivot_label])
    total_other = sum(times[other])
    assert total_chosen > 0 and total_other > 0
    ratio = max(total_chosen, total_other) / min(total_chosen, total_other)
    assert ratio > 1.1  # the two pivots are not interchangeable

    benchmark(lambda: engine.search(workload_query.query, k=20, pivot=chosen.pivot_label))


def test_table6_pivot_strategy(dbpedia_bundle, benchmark):
    bundle = dbpedia_bundle
    engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
    strategies = ("min_cost", "random")
    # One untimed pass of both strategies first: the space's similarity
    # rows are then warm for both, not paid by whichever runs first.
    for query in bundle.workload:
        k = max(len(bundle.truth[query.qid]), 1)
        for strategy in strategies:
            engine.search(query.query, k=k, strategy=strategy)

    rows = []
    aggregate = {}
    for complexity in ("simple", "medium", "complex"):
        queries = bundle.queries_of(complexity)
        if not queries:
            continue
        # The paper skips Random for 1-sub-query queries.
        compared = strategies[:1] if complexity == "simple" else strategies
        accuracies = {strategy: [] for strategy in compared}
        seconds = {strategy: [] for strategy in compared}
        for index, query in enumerate(queries):
            truth = bundle.truth[query.qid]
            k = max(len(truth), 1)
            # Alternate which strategy goes first, and take the median
            # of three runs, so neither side carries the other's noise.
            for strategy in compared if index % 2 == 0 else compared[::-1]:
                runs = []
                for _ in range(3):
                    watch = Stopwatch()
                    result = engine.search(query.query, k=k, strategy=strategy)
                    runs.append(watch.elapsed())
                seconds[strategy].append(statistics.median(runs))
                scores = evaluate_answers(result.answer_uids(), truth)
                accuracies[strategy].append(scores.precision)  # P = R at k = |truth|
        for strategy in compared:
            mean_accuracy = sum(accuracies[strategy]) / len(queries)
            mean_seconds = sum(seconds[strategy]) / len(queries)
            aggregate[(complexity, strategy)] = (mean_accuracy, mean_seconds)
            rows.append(
                (
                    complexity,
                    len(queries),
                    strategy,
                    mean_accuracy,
                    f"{mean_seconds * 1000:.1f}",
                )
            )

    emit(
        "table6_pivot_strategy",
        format_table(
            ("complexity", "queries", "strategy", "P=R", "time (ms)"),
            rows,
            title="Table VI — minCost vs Random pivot selection",
        ),
    )

    for complexity in ("medium", "complex"):
        if (complexity, "random") in aggregate:
            min_cost = aggregate[(complexity, "min_cost")]
            random = aggregate[(complexity, "random")]
            # minCost is never meaningfully worse (accuracy) and not
            # dramatically slower (the paper: Random is strictly worse).
            assert min_cost[0] >= random[0] - 0.1
            assert min_cost[1] <= random[1] * 1.5

    query = bundle.queries_of("simple")[0]
    benchmark(lambda: engine.search(query.query, k=40, strategy="min_cost"))
