"""Fig. 15 — effect of time bounds on TBQ (DBpedia-like, k = 100).

(a) effectiveness: precision/recall/F1 improve as the bound grows and
    converge to SGQ's values;
(b) efficiency: the measured response time tracks the bound with small
    variation, never exploding past it — and never past SGQ's own time
    either: a bound generous enough for the TA to terminate is certified
    exact and returns when SGQ would, not when the bound ends.
"""

from __future__ import annotations

import pytest

from repro.bench.metrics import evaluate_answers, jaccard
from repro.bench.reporting import emit, format_table
from repro.core.engine import SemanticGraphQueryEngine

K = 100
#: Factor by which a measured time may exceed what it is held against
#: (the bound, or SGQ's own time) before the bench fails: wall-clock jitter
#: plus the assembly that runs after the alert.
OVERSHOOT_SLACK = 5.0


def test_fig15_time_bounds(dbpedia_sweep_bundle, benchmark):
    bundle = dbpedia_sweep_bundle
    engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
    query = bundle.workload[0]
    truth = bundle.truth[query.qid]

    reference = engine.search(query.query, k=K)
    reference_answers = set(reference.answer_uids())
    sgq_time = reference.elapsed_seconds

    # Bounds as fractions of SGQ's own time, from starving to generous
    # (the paper sweeps 20-90 ms around a ~100 ms SGQ run).
    fractions = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 8.0)
    rows = []
    jaccards = []
    overshoots = []
    measured = []
    for fraction in fractions:
        bound = max(sgq_time * fraction, 1e-4)
        result = engine.search_time_bounded(query.query, k=K, time_bound=bound)
        scores = evaluate_answers(result.answer_uids(), truth)
        similarity = jaccard(result.answer_uids(), reference_answers)
        jaccards.append(similarity)
        overshoots.append(result.elapsed_seconds / bound)
        measured.append(result.elapsed_seconds)
        rows.append(
            (
                f"{fraction:.1f}x",
                f"{bound * 1000:.2f}",
                f"{result.elapsed_seconds * 1000:.2f}",
                scores.precision,
                scores.recall,
                scores.f1,
                similarity,
            )
        )

    emit(
        "fig15_timebounds",
        format_table(
            ("bound", "T (ms)", "measured (ms)", "precision", "recall", "F1", "Jaccard vs SGQ"),
            rows,
            title=f"Fig. 15 — TBQ under varying time bounds (k={K}, "
            f"SGQ time {sgq_time * 1000:.1f} ms)",
        ),
    )

    # (a) more time -> closer to the optimal answer set (Theorem 4 trend,
    # allowing small non-monotonic wiggles from wall-clock jitter).
    assert jaccards[-1] >= jaccards[0]
    # The generous bound (the last run) is certified: TBQ *is* SGQ there
    # (Theorem 4).
    assert result.approximate is False
    assert jaccards[-1] == 1.0
    first_half = sum(jaccards[:4]) / 4
    second_half = sum(jaccards[-4:]) / 4
    assert second_half >= first_half

    # (b) the response time stays within a small factor of the bound
    # (excluding the deliberately generous convergence run, which stops
    # long before the bound), and no bound costs more than SGQ itself.
    assert max(overshoots[:-1]) < OVERSHOOT_SLACK
    assert max(measured) < sgq_time * OVERSHOOT_SLACK

    benchmark(
        lambda: engine.search_time_bounded(
            query.query, k=K, time_bound=max(sgq_time * 0.5, 1e-4)
        )
    )
