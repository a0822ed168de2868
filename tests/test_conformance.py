"""The conformance matrix: every served configuration against one oracle.

The paper's contract is exactness — A* emits sub-matches in pss order
(Theorem 2) and the TA stops with the true top-k (Theorem 3) — so every
store form, backend, shard layout, cache state and certified TBQ run
must return the oracle's answer, counter for counter.

**Rows** are the inputs: the small bundle (top-10), the checked-in
held-out scenario (with its golden answers) and the perf ledger's recipe
at smoke size, pools 7 and 8 (top-5).  **Columns** are the served
configurations (``COLUMNS``); the service columns are listed from
``EXECUTION_BACKENDS`` and ``SHARD_STRATEGIES``, so a new backend or
partitioner gets its column without an edit here.  The ``value`` column
also runs the ``GENERATE`` and ``ARITHMETIC`` ablations: an ablation
changes only which A* the engine builds.

**The oracle** is the paper's lazy view with both reference kernels,
built once per row and arm.  A cell passes when, for every query,
:func:`~repro.bench.equivalence.query_results_differ` finds no
difference (final matches with bit-equal scores, component order, pss
and paths; ``ta_rounds``; ``ta_accesses``; every sub-query's decision
counters) and ``approximate`` and the number of sub-query searches
agree.  A cell whose engine runs in this process also holds its graph
reader to the source graph, and a held-out cell under the paper's
configuration must print the golden digest.  Left out: the cache-warmth
counters (``nodes_touched``, ``edges_weighted``) and the wall times.

Below the matrix stay the guards that are not one answer per query: the
chaos pool rebuild, real answer-cache evictions, the per-intent p95
budget, Section VI at both ends of the bound and the sealed row cache.
"""

import dataclasses
import pickle
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

from repro.bench.datasets import load_bundle
from repro.bench.equivalence import query_results_differ
from repro.core.compact_view import CompactViewFactory
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.errors import UnknownEntityError
from repro.kg.compact import CompactGraph, CompactGraphHandle
from repro.kg.sharded import SHARD_STRATEGIES, ShardedGraph, ShardedViewFactory
from repro.kg.shm import leaked_segments
from repro.query.decompose import decompose_query
from repro.query.transform import NodeMatcher
from repro.scenarios import (
    Workload,
    WorkloadBuilder,
    answer_digest,
    build_resources,
    load_golden,
    replay_scenario,
)
from repro.serve.backends import EXECUTION_BACKENDS
from repro.serve.cache import SemanticGraphCache
from repro.serve.faults import FaultPlan
from repro.serve.resilience import BackoffPolicy
from repro.serve.service import QueryService
from repro.serve.workload import PopularitySpec
from repro.utils.stats import percentile
from repro.utils.timing import BudgetClock

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Row:
    """One input: the engine inputs (what a scenario replay reads as its
    resources), its queries and their ``k``."""

    kg: object
    space: object
    library: object
    config: SearchConfig
    queries: Tuple
    k: int
    workload: Optional[Workload] = None
    golden: Optional[Dict] = None

    def names(self, results):
        """Sorted answer names per golden qid, as the golden file records them."""
        return {
            qid: sorted(self.kg.entity(uid).name for uid in results[qid].answer_uids())
            for qid in self.golden
        }


def _workload_row(workload, golden=None):
    res = build_resources(workload)
    queries = tuple((q.qid, q.query) for q in workload.queries)
    return Row(
        res.kg, res.space, res.library, res.config, queries, workload.k, workload, golden
    )


def _small_bundle():
    bundle = load_bundle("dbpedia", scale=1.0, seed=11)  # the shared fixture's
    queries = tuple((item.qid, item.query) for item in bundle.workload)
    return Row(bundle.kg, bundle.space, bundle.library, SearchConfig(), queries, 10)


def _ledger_pool(seed):
    """``benchmarks/ledger/inputs.build_pool`` at its smoke size."""
    return _workload_row(
        WorkloadBuilder("ledger", seed=seed)
        .domain("dbpedia", scale=1.0, generator_seed=11)
        .intents(star=5, chain=5, noisy_predicate=5, entity_heavy=5, tau_stress=5)
        .top_k(5)
        .tau(0.8)
        .augment(
            paraphrase_fraction=0.25, node_noise_fraction=0.25, min_similarity=0.8
        )
        .build()
    )


INPUTS = {
    "small-bundle": _small_bundle,
    "held-out": lambda: _workload_row(
        Workload.from_pickle(SCENARIO_DIR / "held_out_v1.pkl"),
        load_golden(SCENARIO_DIR / "held_out_v1.golden.json"),
    ),
    "pool-7": lambda: _ledger_pool(7),
    "pool-8": lambda: _ledger_pool(8),
}

ARMS = {
    "paper": {},
    "generate": {"visited_policy": VisitedPolicy.GENERATE},
    "arithmetic": {"scoring": PssMode.ARITHMETIC},
}


# ----------------------------------------------------------------------
# columns: (row, config, exit stack) -> one {qid: QueryResult} per pass
# ----------------------------------------------------------------------
def _engine_column(handle=False, pickled=False, time_bounded=False):
    """An engine built from a spec over the frozen store: by value or by
    shared-memory handle, as built or from the spec's pickle round trip
    (what a process worker builds); ``time_bounded`` runs its TBQ under a
    ``BudgetClock`` bound no query exhausts, so each answer is certified
    exact (Theorem 4)."""

    def run(row, config, stack):
        store = CompactGraph.freeze(row.kg)
        if handle:
            store = stack.enter_context(store.to_shared()).handle
        spec = EngineSpec(store, row.space, row.library, config)
        if pickled:
            spec = pickle.loads(pickle.dumps(spec))
        engine = build_engine(spec)
        problem = reader_differs(row, engine)
        assert problem is None, problem
        if time_bounded:  # one tick per expansion
            return [{
                qid: engine.search_time_bounded(
                    query, row.k, time_bound=1e6, clock=BudgetClock(1e-3)
                )
                for qid, query in row.queries
            }]
        return [{qid: engine.search(query, k=row.k) for qid, query in row.queries}]

    return run


def _service_column(**build):
    """A service over the row, two passes: cold, then warm (all hits with
    the answer cache on) — one for a shard set, whose queries already
    share rows through the engine's one cache, under the reference A* a
    rank merge forces."""

    def run(row, config, stack):
        service = stack.enter_context(
            QueryService.build(row.kg, row.space, row.library, config, **build)
        )
        process, shards = build.get("backend") == "process", build.get("shards")
        store_type = (
            CompactGraphHandle if process else ShardedGraph if shards else CompactGraph
        )
        assert type(service.spec.store) is store_type
        if not process:
            problem = reader_differs(row, service.engine)
            assert problem is None, problem
        qids, queries = zip(*row.queries)
        passes = [
            dict(zip(qids, service.search_many(queries, k=row.k)))
            for _pass in range(1 if shards else 2)
        ]
        stats = service.stats_snapshot()
        if build.get("answer_cache"):  # the warm pass ran no engine
            assert stats.answer_misses == len(queries)
            assert stats.answer_hits + stats.singleflight_collapsed == len(queries)
        else:  # later searches read rows earlier ones published
            assert stats.cache.hits > 0
        return passes

    return run


COLUMNS = {
    "value": _engine_column(),
    "tbq-budget-clock": _engine_column(time_bounded=True),
    "value-pickled": _engine_column(pickled=True),
    "shm-handle": _engine_column(handle=True),
    "shm-handle-pickled": _engine_column(handle=True, pickled=True),
    **{
        name: _service_column(backend=backend, workers=2, **cache)
        for backend in EXECUTION_BACKENDS
        for name, cache in (
            (backend, {}),
            # Room for every query of a row: pass 2 is all hits.
            (f"{backend}-answer-cache", {"answer_cache": 64}),
        )
    },
    # Workers that inherit nothing: spec, pipes and shm handle all arrive
    # by pickle (the other process columns run on the platform's ``fork``).
    "process-spawn": _service_column(
        backend="process", workers=2, start_method="spawn"
    ),
    # A sharded store is served inline only.  One shard owns every entity
    # whatever the strategy, so one layout stands for both.
    "inline-1shard": _service_column(shards=1),
    **{
        f"inline-{count}shards-{strategy}": _service_column(
            shards=count, shard_strategy=strategy
        )
        for count in (2, 4)
        for strategy in SHARD_STRATEGIES
    },
}

#: The columns an ablation runs.
ABLATED_COLUMNS = ("value",)

#: Columns one row shows as well as four: a spawned worker's bootstrap
#: does not read the input (and each one starts an interpreter), and one
#: shard's rank merge is the identity on any graph.
ONE_ROW_COLUMNS = {"process-spawn": "held-out", "inline-1shard": "small-bundle"}

CELLS = [
    pytest.param(name, arm, column, id=f"{name}-{arm}-{column}")
    for name in INPUTS
    for arm in ARMS
    for column in COLUMNS
    if (arm == "paper" or column in ABLATED_COLUMNS)
    and ONE_ROW_COLUMNS.get(column, name) == name
]


# ----------------------------------------------------------------------
# the judge
# ----------------------------------------------------------------------
def cell_differs(label, expected, actual):
    """The first way a served result differs from the oracle's, or ``None``."""
    if expected.approximate != actual.approximate:
        return f"{label}: approximate {expected.approximate} != {actual.approximate}"
    if len(expected.subquery_stats) != len(actual.subquery_stats):
        return f"{label}: sub-query searches differ in number"
    return query_results_differ(label, expected, actual)


def reader_differs(row, engine):
    """The first way ``engine.kg``, the frozen store's reader, answers
    unlike the source graph, or ``None``: the seven ``GraphReader``
    members and every decomposition, all node matching and pivot choice
    read."""
    kg, reader = row.kg, engine.kg
    for member in ("name", "num_entities", "num_edges"):
        if getattr(reader, member) != getattr(kg, member):
            return f"reader.{member} differs"
    if list(reader.entities()) != list(kg.entities()) or reader.types() != kg.types():
        return "reader.entities() or reader.types() differs"
    for uid in (0, kg.num_entities - 1):
        if reader.entity(uid) != kg.entity(uid):
            return f"reader.entity({uid}) differs"
    for uid in (-1, kg.num_entities):
        with pytest.raises(UnknownEntityError):
            reader.entity(uid)
    for etype in kg.types() + ["NoSuchType"]:
        if reader.entities_of_type(etype) != kg.entities_of_type(etype):
            return f"reader.entities_of_type({etype!r}) differs"
    source = NodeMatcher(kg, row.library)
    for qid, query in row.queries:
        if engine.decompose(query) != decompose_query(
            query, kg=kg, matcher=source, path_bound=engine.config.path_bound
        ):
            return f"{qid}: decomposition differs"
    return None


class Matrix:
    """Rows and oracle answers, each built once per module."""

    def __init__(self):
        self.rows, self.oracles = {}, {}

    def row(self, name):
        if name not in self.rows:
            self.rows[name] = INPUTS[name]()
        return self.rows[name]

    def config(self, name, arm):
        return dataclasses.replace(self.row(name).config, **ARMS[arm])

    def oracle(self, name, arm):
        if (name, arm) not in self.oracles:
            row = self.row(name)
            engine = SemanticGraphQueryEngine(
                row.kg, row.space, row.library, self.config(name, arm),
                assembly_kernel="reference", search_kernel="reference",
            )
            self.oracles[name, arm] = {
                qid: engine.search(query, k=row.k) for qid, query in row.queries
            }
        return self.oracles[name, arm]


@pytest.fixture(scope="module")
def matrix():
    return Matrix()


@pytest.mark.parametrize("name, arm, column", CELLS)
def test_cell(matrix, name, arm, column):
    row, expected = matrix.row(name), matrix.oracle(name, arm)
    with ExitStack() as stack:
        passes = COLUMNS[column](row, matrix.config(name, arm), stack)
    for number, served in enumerate(passes, 1):
        assert served.keys() == expected.keys()
        for qid, result in served.items():
            problem = cell_differs(f"{column}/pass{number}/{qid}", expected[qid], result)
            assert problem is None, problem
        if row.golden is not None and arm == "paper":
            assert answer_digest(row.names(served)) == answer_digest(row.golden)
    assert leaked_segments() == []


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("name", INPUTS)
def test_the_oracle_prunes_by_reach_only_under_expand(matrix, name, arm):
    """``EXPAND`` (the paper's policy, kept by the ``ARITHMETIC`` arm)
    takes the reach prune and ``GENERATE`` never does, so the counter
    every cell compares is live where it should be."""
    pruned = sum(r.pruned_by_reach for r in matrix.oracle(name, arm).values())
    assert (pruned > 0) == (arm != "generate")


# ----------------------------------------------------------------------
# guards on the held-out scenario
# ----------------------------------------------------------------------
#: One worker SIGKILLed on its 3rd request (the whole pool breaks — the
#: expensive recovery path) plus a transient error on a 2nd (the cheap
#: retry path); the plan's default ``epochs=1`` leaves the rebuilt pool
#: healthy.
CHAOS_PLAN = "crash@3;transient@2;seed=11"
#: Worst case the plan stacks on one request: a transient failure, the
#: retry landing on the crashing worker, then a pool break racing the
#: rebuild — three failures — with headroom.
CHAOS_POLICY = BackoffPolicy(retries=5, base_seconds=0.005, cap_seconds=0.05, seed=11)

#: Hot-key traffic: a seeded Zipf draw, four requests per frozen query.
ZIPF_SKEW = 1.2
ROOMY_CAPACITY = 256
#: Fewer entries than the distinct exact queries the draw touches.
EVICTING_CAPACITY = 3


@pytest.fixture(scope="module")
def held_out(matrix):
    return matrix.row("held-out")


def golden_answers(row, qids):
    return {qid: sorted(row.golden[qid]) for qid in qids}


def replay_arm(row, **arm):
    """Replay the scenario once, paced by its own arrival spec; every
    answer it returns is the golden one, nothing failed and nothing leaked."""
    run = replay_scenario(row.workload, resources=row, **arm)
    assert run.answers, "the replay returned no exact answer"
    assert run.answers == golden_answers(row, run.answers)
    assert run.report.failed == 0
    assert leaked_segments() == []
    return run


def test_per_intent_p95_within_the_artifact_budget(held_out):
    """Generous by design (2 s per class): a latency regression only an
    order of magnitude could cause — no ledger row is per intent yet."""
    run = replay_arm(held_out, backend="inline")
    assert run.digest == answer_digest(held_out.golden)
    budget = held_out.workload.latency_budget_p95_ms
    assert set(run.report.class_latencies) == set(budget)
    for intent, latencies in run.report.class_latencies.items():
        assert percentile(latencies, 95) * 1000.0 <= budget[intent], intent


def test_injected_crash_still_prints_the_golden_digest(held_out):
    run = replay_arm(
        held_out,
        fault_plan=FaultPlan.parse(CHAOS_PLAN),
        retry_policy=CHAOS_POLICY,
        backend="process",
        workers=2,
    )
    assert run.digest == answer_digest(held_out.golden)
    # Otherwise the crash never fired and the arm proved nothing.
    assert run.report.stats.resilience.pool_rebuilds >= 1


@pytest.mark.parametrize("capacity", [ROOMY_CAPACITY, EVICTING_CAPACITY],
                         ids=["roomy", "evicting"])
@pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
def test_answer_cache_serves_golden_answers_on_zipf_traffic(
    held_out, backend, capacity
):
    run = replay_arm(
        held_out,
        popularity=PopularitySpec(
            kind="zipf", s=ZIPF_SKEW, length=4 * len(held_out.queries)
        ),
        answer_cache=capacity,
        backend=backend,
        workers=2,
    )
    assert len(run.answers) > EVICTING_CAPACITY
    answers = run.report.stats.answers
    if capacity == EVICTING_CAPACITY:
        assert answers.evictions > 0
    else:
        # The artifact paces the replay (Poisson arrivals): on a pool a
        # repeat arriving while its first request is in flight is a
        # singleflight follower, not a hit — the hit rate counts both.
        assert answers.hit_rate >= 0.5
        assert answers.evictions == 0


def test_tbq_meets_section_vi_at_both_ends_of_the_bound(held_out):
    """One ``BudgetClock`` tick is one A* expansion.  A bound no query
    can exhaust certifies every query (``approximate=False``) at exactly
    the golden answers — TBQ converged to SGQ (Theorem 4); a bound the
    first time check already exceeds flags every answer approximate."""
    row, tick = held_out, 1e-3
    engine = build_engine(
        EngineSpec(CompactGraph.freeze(row.kg), row.space, row.library, row.config)
    )
    certified = {}
    for qid, query in row.queries:
        if qid not in row.golden:
            continue  # the artifact froze this one as a deadline item
        generous = engine.search_time_bounded(
            query, row.k, time_bound=1e6, clock=BudgetClock(tick)
        )
        assert not generous.approximate, qid
        certified[qid] = generous
        starved = engine.search_time_bounded(
            query, row.k, time_bound=tick, clock=BudgetClock(tick), check_interval=1
        )
        assert starved.approximate, qid
    assert row.names(certified) == golden_answers(row, row.golden)


class SealedCache:
    """The three-method row protocol and nothing else: any other
    attribute a view or an engine reaches for raises ``AttributeError``."""

    __slots__ = ("bind", "get_row", "put_row")

    def __init__(self, inner):
        self.bind, self.get_row, self.put_row = inner.bind, inner.get_row, inner.put_row


@pytest.mark.parametrize("arm", ["lazy", "compact", "2shards"])
def test_a_cache_that_only_holds_rows_serves_the_golden_digest(held_out, arm):
    row, inner = held_out, SemanticGraphCache()
    how = {"weight_cache": SealedCache(inner)}
    if arm == "2shards":  # every row of the shard set, in the one cache
        how["view_factory"] = ShardedViewFactory(ShardedGraph.build(row.kg, 2))
    elif arm == "compact":
        how["view_factory"] = CompactViewFactory(CompactGraph.freeze(row.kg))
    engine = SemanticGraphQueryEngine(row.kg, row.space, row.library, row.config, **how)
    for _pass in ("cold", "off the rows the first pass published"):
        results = {
            qid: engine.search(query, row.k) for qid, query in row.queries
            if qid in row.golden
        }
        assert answer_digest(row.names(results)) == answer_digest(row.golden)
    assert inner.stats.hits > 0
