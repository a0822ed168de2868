"""Pickle round-trips for everything that crosses the process boundary.

The process backend's correctness rests on seven types surviving
``pickle.loads(pickle.dumps(...))`` with their behaviour intact:
:class:`~repro.core.engine.EngineSpec` (worker bootstrap),
:class:`~repro.serve.service.QueryRequest` (task submission),
:class:`~repro.core.results.QueryResultPayload` (result return),
:class:`~repro.kg.compact.CompactGraph` (the shipped graph snapshot),
:class:`~repro.kg.compact.CompactGraphHandle` (the shared-memory graph
pointer), :class:`~repro.query.decompose.Decomposition`
(memoized per worker) and :class:`~repro.serve.faults.FaultPlan` (chaos
injection riding the spec into workers).
Each test checks equality where value semantics exist and behaviour
where they do not; that an engine rebuilt from a pickled spec answers
as the oracle does is a column of ``tests/test_conformance.py``.
"""

import pickle

import numpy as np
import pytest

from repro.bench.equivalence import final_matches_differ
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine
from repro.core.results import QueryResultPayload
from repro.kg.compact import CompactGraph
from repro.kg.sharded import ShardedGraph
from repro.query.builder import QueryGraphBuilder
from repro.serve.service import QueryRequest


#: The numeric tables a CompactGraph ships.
COLUMNS = (
    "entity_type", "edge_source", "edge_target", "edge_predicate",
    "indptr", "slot_neighbor", "slot_predicate", "slot_edge",
    "slot_forward", "name_blob", "name_offsets",
)


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def _product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _same_query(a, b):
    return (
        [(n.label, n.etype, n.name) for n in a.nodes()]
        == [(n.label, n.etype, n.name) for n in b.nodes()]
        and a.edges() == b.edges()
    )


class TestCompactGraph:
    def test_arrays_and_edges_survive(self, small_bundle):
        frozen = CompactGraph.freeze(small_bundle.kg)
        thawed = _roundtrip(frozen)
        assert thawed.num_nodes == frozen.num_nodes
        assert thawed.num_edges == frozen.num_edges
        assert thawed.predicate_names == frozen.predicate_names
        assert thawed.type_names == frozen.type_names
        for name in COLUMNS:
            assert np.array_equal(getattr(thawed, name), getattr(frozen, name)), name
        assert thawed.kg_name == frozen.kg_name
        assert thawed.entity_names() == frozen.entity_names()

    def test_derived_state_is_rebuilt(self, small_bundle):
        frozen = CompactGraph.freeze(small_bundle.kg)
        thawed = _roundtrip(frozen)
        # The entity records, edges and per-node slot mirror are rebuilt
        # value-equal from the shipped columns.
        assert thawed.entity_records() == frozen.entity_records()
        for eid in range(0, frozen.num_edges, max(frozen.num_edges // 50, 1)):
            assert thawed.edge(eid) == frozen.edge(eid)
        for uid in range(0, frozen.num_nodes, max(frozen.num_nodes // 50, 1)):
            assert thawed.node_slots[uid] == frozen.node_slots[uid]


class TestCompactGraphHandle:
    def test_handle_roundtrips_and_attaches(self, small_bundle):
        from repro.kg.compact import CompactGraphHandle

        frozen = CompactGraph.freeze(small_bundle.kg)
        with frozen.to_shared() as lease:
            thawed = _roundtrip(lease.handle)
            # Frozen dataclasses over plain values: full value equality.
            assert isinstance(thawed, CompactGraphHandle)
            assert thawed == lease.handle
            # Behavioural check: the round-tripped handle attaches the
            # same columns the owner published.
            attached = CompactGraph.from_handle(thawed)
            for name in ("indptr", "slot_neighbor", "entity_type",
                         "name_blob", "name_offsets"):
                assert np.array_equal(
                    getattr(attached, name), getattr(frozen, name)
                ), name
            assert attached.entity_names() == frozen.entity_names()

    def test_handle_pickle_is_metadata_sized(self, small_bundle):
        frozen = CompactGraph.freeze(small_bundle.kg)
        with frozen.to_shared() as lease:
            handle_bytes = len(pickle.dumps(lease.handle))
            graph_bytes = len(pickle.dumps(frozen))
        # O(metadata), not O(graph): the whole point of the handle.
        assert handle_bytes * 10 <= graph_bytes, (handle_bytes, graph_bytes)


class TestShardedGraph:
    def test_a_spec_over_shards_thaws_to_the_same_partition(self, small_bundle):
        """A sharded store is served inline, never pickled, but its spec
        still round-trips: shard by shard, the same columns, rank table
        and edge map (the engine over it is a column of
        ``tests/test_conformance.py``)."""
        sharded = ShardedGraph.build(small_bundle.kg, 2)
        thawed = _roundtrip(EngineSpec(sharded, small_bundle.space)).store
        assert (thawed.kg_name, thawed.num_nodes, thawed.num_edges) == (
            sharded.kg_name, sharded.num_nodes, sharded.num_edges,
        )
        assert np.array_equal(thawed.shard_of, sharded.shard_of)
        assert len(thawed.shards) == len(sharded.shards)
        for theirs, ours in zip(thawed.shards, sharded.shards):
            assert (theirs.shard_id, theirs.cut_edges) == (ours.shard_id, ours.cut_edges)
            assert np.array_equal(theirs.slot_rank, ours.slot_rank)
            assert np.array_equal(theirs.owned_edges, ours.owned_edges)
            for name in COLUMNS:
                assert np.array_equal(
                    getattr(theirs.graph, name), getattr(ours.graph, name)
                ), name


class TestEngineSpec:
    def test_store_must_be_one_of_the_three_forms(self, small_bundle):
        from repro.errors import SearchError
        from repro.kg.compact import FrozenGraphReader

        reader = FrozenGraphReader(CompactGraph.freeze(small_bundle.kg))
        # The lazy view's KnowledgeGraph is the oracle, not a store.
        for not_a_store in (small_bundle.kg, reader, None, "dbpedia"):
            with pytest.raises(SearchError, match="store"):
                EngineSpec(store=not_a_store, space=small_bundle.space)


class TestQueryRequest:
    def test_fields_survive(self):
        request = QueryRequest(
            query=_product_query(), k=7, deadline=0.25, pivot="v1",
            strategy="min_cost", tag="q-42",
        )
        thawed = _roundtrip(request)
        assert thawed.k == 7
        assert thawed.deadline == 0.25
        assert thawed.pivot == "v1"
        assert thawed.strategy == "min_cost"
        assert thawed.tag == "q-42"
        assert _same_query(thawed.query, request.query)


class TestQueryResultPayload:
    def test_payload_roundtrips_bit_identically(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        result = engine.search(small_bundle.workload[0].query, k=5)
        payload = QueryResultPayload.from_result(result)
        thawed = _roundtrip(payload)
        problem = final_matches_differ(
            "payload", result.matches, list(thawed.matches)
        )
        assert problem is None, problem
        assert thawed.ta_accesses == result.ta_accesses
        assert thawed.ta_rounds == result.ta_rounds
        # The derived counters are not carried; they recompute from the
        # round-tripped subquery stats.
        rebuilt = thawed.to_result()
        assert rebuilt.expansions == result.expansions
        assert rebuilt.pruned_by_tau == result.pruned_by_tau
        assert rebuilt.max_queue_size == result.max_queue_size
        assert rebuilt.search_seconds == result.search_seconds

    def test_to_result_inverts_from_result(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        result = engine.search(small_bundle.workload[1].query, k=5)
        rebuilt = _roundtrip(QueryResultPayload.from_result(result)).to_result()
        problem = final_matches_differ(
            "to_result", result.matches, rebuilt.matches
        )
        assert problem is None, problem
        # Derived counters recompute to the same values from the
        # round-tripped subquery stats.
        assert rebuilt.expansions == result.expansions
        assert rebuilt.stale_pops == result.stale_pops
        assert rebuilt.approximate == result.approximate


class TestDecomposition:
    def test_structure_and_behaviour_survive(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        item = next(
            q for q in small_bundle.workload if q.complexity != "simple"
        )
        decomposition = engine.decompose(item.query)
        thawed = _roundtrip(decomposition)
        assert thawed.pivot_label == decomposition.pivot_label
        assert thawed.cost == decomposition.cost
        assert thawed.describe() == decomposition.describe()
        assert len(thawed.subqueries) == len(decomposition.subqueries)
        for a, b in zip(thawed.subqueries, decomposition.subqueries):
            assert a.node_labels == b.node_labels
            assert [s.predicate for s in a.steps] == [
                s.predicate for s in b.steps
            ]
        # Behavioural check: searching with the round-tripped
        # decomposition reproduces the baseline exactly.
        expected = engine.search(item.query, k=5)
        actual = engine.search(item.query, k=5, decomposition=thawed)
        problem = final_matches_differ(item.qid, expected.matches, actual.matches)
        assert problem is None, problem


class TestFaultPlan:
    """A FaultPlan rides the EngineSpec pickle into process workers, so
    both the plan and a plan-carrying spec must survive the boundary —
    and the backoff jitter the supervisor derives from its seed must be
    bit-deterministic, or a chaos replay could not be reproduced."""

    def test_plan_roundtrips_with_behaviour(self):
        from repro.serve.faults import FaultPlan

        plan = FaultPlan(
            crash_at=(3,), transient_at=(2, 5), fatal_at=(9,),
            latency_at=(4,), latency_seconds=0.05,
            fail_shm_attach=True, seed=7, epochs=2,
        )
        thawed = _roundtrip(plan)
        assert thawed == plan
        assert thawed.describe() == plan.describe()
        # parse() of describe() closes the loop: the CLI spec format is
        # lossless for every field.
        assert FaultPlan.parse(thawed.describe()) == plan

    def test_spec_with_plan_roundtrips(self, small_bundle):
        from repro.serve.faults import FaultPlan

        plan = FaultPlan(transient_at=(1,), seed=3)
        spec = EngineSpec(
            store=CompactGraph.freeze(small_bundle.kg),
            space=small_bundle.space,
            library=small_bundle.library,
            fault_plan=plan,
        )
        thawed = _roundtrip(spec)
        assert thawed.fault_plan == plan
        # The thawed plan still activates and injects: request 1 is the
        # transient ordinal.
        from repro.errors import TransientEngineError

        injector = thawed.fault_plan.activate()
        with pytest.raises(TransientEngineError):
            injector.on_request()
        injector.on_request()  # request 2 passes clean

    def test_backoff_schedule_is_bit_deterministic(self):
        from repro.serve.resilience import BackoffPolicy

        policy = BackoffPolicy(retries=4, seed=11)
        thawed = _roundtrip(policy)
        assert thawed.schedule("q-1#1") == policy.schedule("q-1#1")
        assert policy.schedule("q-1#1") == policy.schedule("q-1#1")
        # Distinct tokens de-synchronise (the point of seeded jitter).
        assert policy.schedule("q-1#1") != policy.schedule("q-2#2")


class TestWorkloadArtifact:
    """The scenario Workload is a frozen, versioned, picklable artifact.

    Its contract: pickling and the JSON manifest are both lossless for
    everything the replay driver consumes, identical recipes produce
    byte-identical pickles, and a format-version bump is rejected loudly
    instead of being half-read.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.scenarios import WorkloadBuilder

        return (
            WorkloadBuilder("roundtrip-suite", seed=77)
            .domain("dbpedia")
            .intents(star=2, chain=2, tau_stress=1)
            .top_k(5)
            .arrivals("poisson", rate=80.0)
            .deadlines(0.2, 0.5)
            .latency_budget(default_p95_ms=1500.0, star=900.0)
            .build()
        )

    def test_pickle_roundtrip_preserves_manifest(self, workload, tmp_path):
        from repro.scenarios import Workload

        path = tmp_path / "artifact.pkl"
        workload.to_pickle(path)
        loaded = Workload.from_pickle(path)
        assert loaded.manifest() == workload.manifest()
        # Byte-identical re-pickle: the artifact has no hidden state.
        assert pickle.dumps(loaded, protocol=4) == pickle.dumps(
            workload, protocol=4
        )

    def test_manifest_json_roundtrip(self, workload):
        import json

        from repro.scenarios import Workload

        manifest = workload.manifest()
        # The manifest is pure JSON — no dataclasses, tuples or numpy.
        wire = json.dumps(manifest, sort_keys=True)
        rebuilt = Workload.from_manifest(json.loads(wire))
        assert rebuilt.manifest() == manifest
        assert rebuilt.intent_counts() == workload.intent_counts()
        assert [q.qid for q in rebuilt.queries] == [
            q.qid for q in workload.queries
        ]

    def test_version_bump_rejected_on_unpickle(self, workload, tmp_path):
        from dataclasses import replace

        from repro.errors import ScenarioError
        from repro.scenarios import WORKLOAD_FORMAT_VERSION, Workload

        stale = replace(workload, version=WORKLOAD_FORMAT_VERSION + 1)
        path = tmp_path / "stale.pkl"
        stale.to_pickle(path)
        with pytest.raises(ScenarioError, match="format version"):
            Workload.from_pickle(path)

    def test_version_bump_rejected_on_manifest(self, workload):
        from repro.errors import ScenarioError
        from repro.scenarios import WORKLOAD_FORMAT_VERSION, Workload

        manifest = workload.manifest()
        manifest["format_version"] = WORKLOAD_FORMAT_VERSION + 1
        with pytest.raises(ScenarioError, match="format version"):
            Workload.from_manifest(manifest)

    def test_foreign_pickle_rejected(self, tmp_path):
        from repro.errors import ScenarioError
        from repro.scenarios import Workload

        path = tmp_path / "not_a_workload.pkl"
        path.write_bytes(pickle.dumps({"surprise": True}, protocol=4))
        with pytest.raises(ScenarioError):
            Workload.from_pickle(path)


class TestAnswerCacheKeys:
    """The answer cache's key and payload both cross process boundaries
    (a front-side cache over the process backend stores payloads that
    arrived by IPC), so the key must pickle to an *equal, equally
    hashing* value and a cached entry must re-inflate identically."""

    def _fingerprint(self, small_bundle):
        from repro.serve.answer_cache import EngineFingerprint

        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        return engine, EngineFingerprint.from_engine(engine)

    def test_canonical_key_roundtrips_as_a_dict_key(self, small_bundle):
        from repro.serve.answer_cache import canonicalize

        _, fingerprint = self._fingerprint(small_bundle)
        request = QueryRequest(query=_product_query(), k=5)
        key = canonicalize(request, fingerprint)
        thawed = _roundtrip(key)
        assert thawed == key
        assert hash(thawed) == hash(key)
        assert {key: "cached"}[thawed] == "cached"
        # Canonicalizing the thawed request reproduces the same key —
        # the pair crosses the boundary without drifting apart.
        assert canonicalize(_roundtrip(request), fingerprint) == key

    def test_cached_entry_roundtrips_and_reinflates(self, small_bundle):
        from repro.serve.answer_cache import canonicalize

        engine, fingerprint = self._fingerprint(small_bundle)
        request = QueryRequest(query=_product_query(), k=5)
        key = canonicalize(request, fingerprint)
        payload = QueryResultPayload.from_result(
            engine.search(request.query, k=request.k)
        )
        thawed_key, thawed_payload = _roundtrip((key, payload))
        assert thawed_key == key
        expected = payload.to_result()
        actual = thawed_payload.to_result()
        problem = final_matches_differ(
            "cached-entry", expected.matches, actual.matches
        )
        assert problem is None, problem
        assert actual.answer_uids() == expected.answer_uids()


class TestPopularitySpec:
    """The Zipf popularity law is frozen into workload artifacts, so it
    must survive pickle and the JSON manifest — and artifacts written
    before the field existed must keep unpickling (class-level default,
    same format version)."""

    def test_spec_roundtrips(self):
        from repro.serve.workload import PopularitySpec

        spec = PopularitySpec(kind="zipf", s=1.3, length=64)
        thawed = _roundtrip(spec)
        assert thawed == spec
        assert PopularitySpec.from_manifest(thawed.manifest()) == spec
        assert PopularitySpec.parse("zipf:1.3:64") == spec
        assert PopularitySpec.parse("uniform") == PopularitySpec()

    def test_workload_with_popularity_roundtrips(self, tmp_path):
        from repro.scenarios import Workload, WorkloadBuilder

        workload = (
            WorkloadBuilder("popularity-suite", seed=77)
            .domain("dbpedia")
            .intents(star=2, chain=1)
            .top_k(5)
            .popularity("zipf", s=1.2, length=20)
            .build()
        )
        assert workload.popularity is not None
        path = tmp_path / "popular.pkl"
        workload.to_pickle(path)
        loaded = Workload.from_pickle(path)
        assert loaded.popularity == workload.popularity
        assert loaded.manifest() == workload.manifest()
        import json

        rebuilt = Workload.from_manifest(
            json.loads(json.dumps(workload.manifest()))
        )
        assert rebuilt.popularity == workload.popularity

    def test_pre_popularity_pickle_still_loads(self, tmp_path):
        """An artifact pickled before the field existed carries no
        ``popularity`` instance attribute; the class-level default must
        absorb that (uniform), with the format version unchanged."""
        from repro.scenarios import Workload, WorkloadBuilder

        workload = (
            WorkloadBuilder("legacy-suite", seed=77)
            .domain("dbpedia")
            .intents(star=1, chain=1)
            .top_k(5)
            .build()
        )
        state = workload.__dict__.copy()
        del state["popularity"]
        legacy = Workload.__new__(Workload)
        legacy.__dict__.update(state)
        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps(legacy, protocol=4))
        loaded = Workload.from_pickle(path)
        assert loaded.popularity is None
        assert "popularity" in loaded.manifest()
