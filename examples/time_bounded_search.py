"""Response-time-bounded search (TBQ, Section VI).

Runs the same multi-constraint query under a series of shrinking time
bounds and shows the accuracy/latency trade-off: tight bounds stop on the
time alert and return approximate answers early; a bound generous enough
for the TA to terminate is certified exact — the SGQ result itself
(Theorem 4) — and returns as soon as SGQ would, not when the bound ends.

Run:  python examples/time_bounded_search.py
"""

from repro.bench.metrics import jaccard
from repro.core.engine import SemanticGraphQueryEngine
from repro.embedding.oracle import oracle_predicate_space
from repro.kg.generator import build_dataset
from repro.kg.schema import dbpedia_like_schema
from repro.query.builder import QueryGraphBuilder
from repro.query.transform import TransformationLibrary


def main() -> None:
    schema = dbpedia_like_schema()
    kg = build_dataset("dbpedia", seed=1, scale=4.0)
    engine = SemanticGraphQueryEngine(
        kg,
        oracle_predicate_space(schema, seed=3),
        TransformationLibrary.from_schema(schema),
    )

    # Fig. 3(a): cars assembled in China with German engines.
    query = (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "China", "Country")
        .target("v3", "Engine")
        .specific("v4", "Germany", "Country")
        .edge("e1", "v1", "assembly", "v2")
        .edge("e2", "v1", "engine", "v3")
        .edge("e3", "v3", "manufacturer", "v4")
        .build()
    )

    exact = engine.search(query, k=20)
    exact_answers = set(exact.answer_uids())
    print(
        f"SGQ (exact):  {len(exact.matches)} answers in "
        f"{exact.elapsed_seconds * 1000:.1f} ms"
    )

    print(
        f"\n{'bound (ms)':>10}  {'measured (ms)':>13}  {'answers':>7}  "
        f"{'Jaccard vs exact':>16}  outcome"
    )
    outcomes = []
    for fraction in (0.1, 0.25, 0.5, 1.0, 4.0):
        bound = max(exact.elapsed_seconds * fraction, 1e-4)
        result = engine.search_time_bounded(query, k=20, time_bound=bound)
        similarity = jaccard(result.answer_uids(), exact_answers)
        outcomes.append(result.approximate)
        print(
            f"{bound * 1000:>10.2f}  {result.elapsed_seconds * 1000:>13.2f}  "
            f"{len(result.matches):>7}  {similarity:>16.2f}  "
            f"{'bounded (alert fired)' if result.approximate else 'certified exact'}"
        )

    print(
        f"\n{outcomes.count(False)} certified exact, "
        f"{outcomes.count(True)} stopped on the bound."
    )
    print("Each bounded run returned within (a small factor of) its bound;")
    print("a certified run is the SGQ answer and takes SGQ's time, not the bound's.")


if __name__ == "__main__":
    main()
