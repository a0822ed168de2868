"""Serving a query workload: frozen store, shared row cache, QueryService.

Builds the DBpedia-like dataset, stands up a :class:`QueryService` over
it, and replays the benchmark workload three times — the first pass is
cold, later passes run against the warm shared cache of whole-graph rows.
Also shows single-query submission with a per-query deadline (TBQ).

Run:  python examples/serving.py
"""

from repro.bench.datasets import load_bundle
from repro.query.builder import QueryGraphBuilder
from repro.serve import QueryService, WorkloadItem, replay


def main() -> None:
    # 1. The substrate: dataset bundle (graph + space + workload).
    bundle = load_bundle("dbpedia", scale=2.0, seed=1)
    print(
        f"knowledge graph: {bundle.kg.num_entities} entities, "
        f"{bundle.kg.num_edges} edges; workload: {len(bundle.workload)} queries"
    )

    # 2. The serving layer: the graph frozen into the CSR kernel, its
    #    weight / m(u) / hop-label rows shared across queries, searches on
    #    the caller's thread (backend="process", workers=N is the
    #    multi-core arm).
    with QueryService.build(bundle.kg, bundle.space, bundle.library) as service:
        # 3. Replay the full workload; pass 1 is cold, 2-3 are warm.  Each
        #    report's stats are what that pass did: the service's snapshot
        #    after it, `since` the one before.
        items = [WorkloadItem(query=q.query, k=10, qid=q.qid) for q in bundle.workload]
        for run in range(1, 4):
            report = replay(service, items)
            label = "cold" if run == 1 else "warm"
            print(f"\n--- pass {run} ({label}) ---")
            print(report.describe())

        # 4. One-off queries ride the same cache.  A deadline switches the
        #    request to the paper's time-bounded TBQ mode.
        query = (
            QueryGraphBuilder()
            .target("v1", "Car")
            .specific("v2", "GER", "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        before = service.stats_snapshot()
        exact = service.submit(query, k=5).result()
        bounded = service.submit(query, k=5, deadline=0.02).result()
        print(f"\nexact SGQ: {len(exact.matches)} matches "
              f"in {exact.elapsed_seconds * 1000:.1f} ms")
        print(f"TBQ (T=20ms): {len(bounded.matches)} matches "
              f"in {bounded.elapsed_seconds * 1000:.1f} ms "
              f"(approximate={bounded.approximate})")

        # 5. One snapshot per service; a diff of two is a phase.
        one_offs = service.stats_snapshot().since(before)
        total = service.stats_snapshot()
        print(f"\none-off queries: {one_offs.completed} completed, "
              f"{one_offs.time_bounded} time-bounded")
        print(f"service: {total.completed} completed")
        print(total.describe())


if __name__ == "__main__":
    main()
