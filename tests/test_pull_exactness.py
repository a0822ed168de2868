"""The production pull against the oracle pair, query by query.

``SemanticGraphQueryEngine._pull_top_k`` — the incremental TA over the
fused A* loop — must return what the paper's transcriptions
(``assembly_kernel="reference", search_kernel="reference"``) return:
equal pivots, bit-equal scores, equal components with equal pss and
paths, equal ``ta_rounds`` and ``ta_accesses``, and every sub-query
search equal counter for counter (``pruned_by_reach`` included: both
sides take the same reach prune under ``EXPAND`` and none under
``GENERATE``).  Checked over the small bundle and two generated pools
(the perf ledger's recipe at smoke size) under both visited policies,
not only by the ledger's uid judge.
"""

import dataclasses

import pytest

from repro.bench.equivalence import query_results_differ
from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.scenarios import WorkloadBuilder, build_resources

TOP_K = 5


def ledger_pool(seed):
    """``benchmarks/ledger/inputs.build_pool`` at its smoke size."""
    workload = (
        WorkloadBuilder("ledger", seed=seed)
        .domain("dbpedia", scale=1.0, generator_seed=11)
        .intents(star=5, chain=5, noisy_predicate=5, entity_heavy=5, tau_stress=5)
        .top_k(TOP_K)
        .tau(0.8)
        .augment(
            paraphrase_fraction=0.25, node_noise_fraction=0.25, min_similarity=0.8
        )
        .build()
    )
    resources = build_resources(workload)
    queries = [(q.qid, q.query) for q in workload.queries]
    return resources.kg, resources.space, resources.library, resources.config, queries


def small_bundle_inputs(bundle):
    queries = [(item.qid, item.query) for item in bundle.workload]
    return bundle.kg, bundle.space, bundle.library, None, queries


@pytest.fixture(params=["small-bundle", "pool-7", "pool-8"])
def inputs(request, small_bundle):
    if request.param == "small-bundle":
        return small_bundle_inputs(small_bundle)
    return ledger_pool(int(request.param.rsplit("-", 1)[1]))


@pytest.mark.parametrize("policy", list(VisitedPolicy), ids=lambda p: p.value)
def test_production_pull_equals_the_oracle_pair(inputs, policy):
    kg, space, library, config, queries = inputs
    config = dataclasses.replace(config or SearchConfig(), visited_policy=policy)
    oracle = SemanticGraphQueryEngine(
        kg, space, library, config, compact=True,
        assembly_kernel="reference", search_kernel="reference",
    )
    production = SemanticGraphQueryEngine(kg, space, library, config, compact=True)
    pruned = 0
    for qid, query in queries:
        answer = production.search(query, k=TOP_K)
        problem = query_results_differ(qid, oracle.search(query, k=TOP_K), answer)
        assert problem is None, problem
        pruned += answer.pruned_by_reach
    assert (pruned > 0) == (policy is VisitedPolicy.EXPAND)
