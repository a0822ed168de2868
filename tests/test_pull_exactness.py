"""The production pull against the oracle pair, query by query.

``SemanticGraphQueryEngine._pull_top_k`` — the incremental TA over the
fused A* loop — must return what the paper's transcriptions
(``assembly_kernel="reference", search_kernel="reference"``) return:
equal pivots, bit-equal scores, equal components with equal pss and
paths, equal ``ta_rounds`` and ``ta_accesses``, and every sub-query
search equal counter for counter (``pruned_by_reach`` included: both
sides take the same reach prune under ``EXPAND`` and none under
``GENERATE``).  Under an ablation (``GENERATE``, arithmetic scoring) the
production engine searches with the reference A* over its compact
view, so the oracle pair reads the lazy view instead.  Checked over the
small bundle and two generated pools (the perf ledger's recipe at smoke
size) under the paper's configuration and each ablation, not only by
the ledger's uid judge.  The sharded engine is held to the
compact engine the same way, on the held-out scenario and the first
pool.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.bench.equivalence import query_results_differ
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.compact_view import CompactViewFactory
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.kg.compact import CompactGraph
from repro.kg.sharded import SHARD_STRATEGIES, ShardedGraph, ShardedViewFactory
from repro.scenarios import Workload, WorkloadBuilder, build_resources
from repro.serve.cache import SemanticGraphCache

TOP_K = 5
SCENARIO = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "scenarios" / "held_out_v1.pkl"
)


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


@pytest.mark.parametrize(
    "setting",
    [VisitedPolicy.GENERATE, VisitedPolicy.EXPAND, PssMode.ARITHMETIC],
    ids=lambda setting: setting.value,
)
def test_production_pull_equals_the_oracle_pair(inputs, setting):
    kg, space, library, config, queries = inputs
    field = "scoring" if isinstance(setting, PssMode) else "visited_policy"
    config = dataclasses.replace(config or SearchConfig(), **{field: setting})
    frozen = CompactGraph.freeze(kg)
    # The default view factory is the lazy oracle view over its own freeze.
    views = {} if config.ablated_fields() else {"view_factory": CompactViewFactory(frozen)}
    oracle = SemanticGraphQueryEngine(
        kg, space, library, config, **views,
        assembly_kernel="reference", search_kernel="reference",
    )
    production = build_engine(EngineSpec(frozen, space, library, config))
    pruned = 0
    for qid, query in queries:
        answer = production.search(query, k=TOP_K)
        problem = query_results_differ(qid, oracle.search(query, k=TOP_K), answer)
        assert problem is None, problem
        pruned += answer.pruned_by_reach
    assert (pruned > 0) == (config.visited_policy is VisitedPolicy.EXPAND)


def held_out_inputs():
    workload = Workload.from_pickle(SCENARIO)
    resources = build_resources(workload)
    queries = [(q.qid, q.query) for q in workload.queries]
    return resources.kg, resources.space, resources.library, resources.config, queries


@pytest.fixture(scope="module", params=["held-out", "pool-7"])
def shard_inputs(request):
    if request.param == "held-out":
        return held_out_inputs()
    return ledger_pool(7)


@pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
@pytest.mark.parametrize("num_shards", [2, 4])
def test_sharded_engine_equals_the_compact_engine(shard_inputs, num_shards, strategy):
    """The sharded view serves the unsharded ``m(u)`` rows and hop labels,
    so its searches — the reference A* over the rank merge — make every
    decision the compact engine's make: same answers, TA rounds and
    accesses, and every sub-query counter, ``pruned_by_reach`` included.
    The shared cache holding the shard-set rows is warm after the first
    queries, so both its miss and its hit path are checked."""
    kg, space, library, config, queries = shard_inputs
    compact = build_engine(
        EngineSpec(CompactGraph.freeze(kg), space, library, config)
    )
    sharded = SemanticGraphQueryEngine(
        kg, space, library, config,
        weight_cache=SemanticGraphCache(),
        view_factory=ShardedViewFactory(
            ShardedGraph.build(kg, num_shards, strategy=strategy)
        ),
    )
    pruned = 0
    for qid, query in queries:
        answer = sharded.search(query, k=TOP_K)
        problem = query_results_differ(qid, compact.search(query, k=TOP_K), answer)
        assert problem is None, problem
        pruned += answer.pruned_by_reach
    assert pruned > 0
    assert sharded.weight_cache.stats.hits > 0
