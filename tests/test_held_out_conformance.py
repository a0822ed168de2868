"""Held-out scenario conformance: every serving arm against one oracle.

The paper's contract is exactness — Theorem 2 (A* emits sub-matches in
pss order) and Theorem 3 (the TA stops with the true top-k) — so every
backend, store form, shard layout, cache state and recovery path must
return *the same answers*.  This module replays the checked-in
``benchmarks/scenarios/held_out_v1.pkl`` through
:func:`repro.scenarios.replay_scenario` on each such arm and judges all
of them against the checked-in golden answers, never against another
replay: every qid a replay returns must equal ``golden[qid]``, and an
arm that replays every exact query must print the golden digest.

Each arm also keeps the guard that stops it passing vacuously: the chaos
arm needs a real pool rebuild, the evicting arm real evictions, the
roomy cache a hot hit rate from the service's own counters, and no arm
may leave a ``/dev/shm`` segment behind.
"""

from pathlib import Path

import pytest

from repro.core.compact_view import CompactViewFactory
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.kg.compact import CompactGraph
from repro.kg.sharded import ShardedGraph, ShardedViewFactory
from repro.kg.shm import leaked_segments
from repro.scenarios import (
    Workload,
    answer_digest,
    build_resources,
    load_golden,
    replay_scenario,
)
from repro.serve.cache import SemanticGraphCache
from repro.serve.faults import FaultPlan
from repro.serve.resilience import BackoffPolicy
from repro.serve.workload import PopularitySpec
from repro.utils.stats import percentile
from repro.utils.timing import BudgetClock

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"

INLINE = {"backend": "inline"}
#: A process pool always reads the graph from shared memory.
PROCESS = {"backend": "process", "workers": 2}

#: Arms that replay every exact query once: the golden digest, whole.
FULL_COVERAGE_ARMS = {
    "inline": INLINE,
    "process": PROCESS,
    # Workers that inherit nothing: spec, pipes and shm handle all arrive
    # by pickle (the other process arms run on the platform's ``fork``).
    "process-spawn": dict(PROCESS, start_method="spawn"),
    "inline-2shards": dict(INLINE, shards=2),
    "inline-4shards": dict(INLINE, shards=4),
    # The other partitioner; a sharded store is served inline only.
    "inline-2shards-balanced": dict(
        INLINE, shards=2, shard_strategy="balanced-degree"
    ),
    "inline-4shards-balanced": dict(
        INLINE, shards=4, shard_strategy="balanced-degree"
    ),
}

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
def workload():
    return Workload.from_pickle(SCENARIO_DIR / "held_out_v1.pkl")


@pytest.fixture(scope="module")
def golden():
    return load_golden(SCENARIO_DIR / "held_out_v1.golden.json")


@pytest.fixture(scope="module")
def resources(workload):
    return build_resources(workload)


def golden_problems(answers, golden):
    """One line per replayed qid whose answer set is not the golden one."""
    problems = []
    for qid, names in sorted(answers.items()):
        if qid not in golden:
            problems.append(f"{qid}: no golden record")
            continue
        actual, expected = set(names), set(golden[qid])
        if actual != expected:
            problems.append(
                f"{qid}: gained {sorted(actual - expected)}, "
                f"lost {sorted(expected - actual)}"
            )
    return problems


def replay_arm(workload, resources, golden, **arm):
    """Replay one arm; every answer it returns is the golden one, nothing
    failed and nothing leaked."""
    run = replay_scenario(workload, resources=resources, **arm)
    assert run.answers, "the replay returned no exact answer"
    assert golden_problems(run.answers, golden) == []
    assert run.report.failed == 0
    assert leaked_segments() == []
    return run


def test_golden_problems_names_gained_and_lost_answers():
    golden = {"q1": ["a", "b"], "q2": ["c"]}
    assert golden_problems({"q1": ["b", "a"]}, golden) == []
    assert golden_problems({"q1": ["a", "x"], "q3": []}, golden) == [
        "q1: gained ['x'], lost ['b']",
        "q3: no golden record",
    ]


@pytest.mark.parametrize("arm", sorted(FULL_COVERAGE_ARMS))
def test_arm_prints_the_golden_digest(workload, resources, golden, arm):
    run = replay_arm(workload, resources, golden, **FULL_COVERAGE_ARMS[arm])
    assert run.digest == answer_digest(golden)


def test_per_intent_p95_within_the_artifact_budget(workload, resources, golden):
    """Generous by design (2 s per class): a latency regression only an
    order of magnitude could cause — no ledger row is per intent yet."""
    run = replay_arm(workload, resources, golden, **INLINE)
    assert set(run.report.class_latencies) == set(workload.latency_budget_p95_ms)
    for intent, latencies in run.report.class_latencies.items():
        p95_ms = percentile(latencies, 95) * 1000.0
        assert p95_ms <= workload.latency_budget_p95_ms[intent], intent


def test_injected_crash_still_prints_the_golden_digest(workload, resources, golden):
    run = replay_arm(
        workload,
        resources,
        golden,
        fault_plan=FaultPlan.parse(CHAOS_PLAN),
        retry_policy=CHAOS_POLICY,
        **PROCESS,
    )
    assert run.digest == answer_digest(golden)
    # Otherwise the crash never fired and the arm proved nothing.
    assert run.report.stats.resilience.pool_rebuilds >= 1


@pytest.mark.parametrize("capacity", [0, ROOMY_CAPACITY, EVICTING_CAPACITY],
                         ids=["off", "roomy", "evicting"])
@pytest.mark.parametrize("arm", [INLINE, PROCESS], ids=["inline", "process"])
def test_answer_cache_serves_golden_answers_on_zipf_traffic(
    workload, resources, golden, arm, capacity
):
    run = replay_arm(
        workload,
        resources,
        golden,
        popularity=PopularitySpec(
            kind="zipf", s=ZIPF_SKEW, length=4 * len(workload.queries)
        ),
        answer_cache=capacity,
        **arm,
    )
    assert len(run.answers) > EVICTING_CAPACITY
    answers = run.report.stats.answers
    if capacity == EVICTING_CAPACITY:
        assert answers.evictions > 0
    elif capacity == ROOMY_CAPACITY:
        # The artifact paces the replay (Poisson arrivals): on a pool a
        # repeat arriving while its first request is in flight is a
        # singleflight follower, not a hit — the hit rate counts both.
        assert answers.hit_rate >= 0.5
        assert answers.evictions == 0


def test_tbq_meets_section_vi_at_both_ends_of_the_bound(workload, resources, golden):
    """One ``BudgetClock`` tick is one A* expansion.  A bound no query
    can exhaust certifies every query (``approximate=False``) at exactly
    the golden answers — TBQ converged to SGQ (Theorem 4); a bound the
    first time check already exceeds flags every answer approximate."""
    engine = build_engine(
        EngineSpec(
            CompactGraph.freeze(resources.kg), resources.space,
            resources.library, resources.config,
        )
    )
    tick = 1e-3
    certified = {}
    for item in workload.queries:
        if item.qid not in golden:
            continue  # the artifact froze this one as a deadline item
        generous = engine.search_time_bounded(
            item.query, workload.k, time_bound=1e6, clock=BudgetClock(tick)
        )
        assert not generous.approximate, item.qid
        certified[item.qid] = sorted(
            resources.kg.entity(uid).name for uid in generous.answer_uids()
        )
        starved = engine.search_time_bounded(
            item.query, workload.k, time_bound=tick, clock=BudgetClock(tick),
            check_interval=1,
        )
        assert starved.approximate, item.qid
    assert golden_problems(certified, golden) == []
    assert answer_digest(certified) == answer_digest(golden)


class SealedCache:
    """The three-method row protocol and nothing else: any other
    attribute a view or an engine reaches for raises ``AttributeError``."""

    __slots__ = ("bind", "get_row", "put_row")

    def __init__(self, inner):
        self.bind, self.get_row, self.put_row = inner.bind, inner.get_row, inner.put_row


@pytest.mark.parametrize("arm", ["lazy", "compact", "2shards"])
def test_a_cache_that_only_holds_rows_serves_the_golden_digest(
    workload, resources, golden, arm
):
    inner = SemanticGraphCache()
    how = {"weight_cache": SealedCache(inner)}
    if arm == "2shards":  # every row of the shard set, in the one cache
        how["view_factory"] = ShardedViewFactory(ShardedGraph.build(resources.kg, 2))
    elif arm == "compact":
        how["view_factory"] = CompactViewFactory(CompactGraph.freeze(resources.kg))
    engine = SemanticGraphQueryEngine(
        resources.kg, resources.space, resources.library, resources.config, **how
    )
    answers = {}
    for _ in range(2):  # cold, then off the rows the first pass published
        for item in workload.queries:
            if item.qid in golden:
                uids = engine.search(item.query, workload.k).answer_uids()
                answers[item.qid] = sorted(resources.kg.entity(u).name for u in uids)
    assert golden_problems(answers, golden) == []
    assert answer_digest(answers) == answer_digest(golden)
    assert inner.stats.hits > 0
