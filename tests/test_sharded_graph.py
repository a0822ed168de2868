"""Sharded-store conformance: partitioning, rank merge, serve wiring.

The sharded store's contract is that partitioning is an *implementation
detail*: the partitioner is deterministic, every edge is owned by
exactly one shard, the rank-merged view reproduces the unsharded view's
incidence sequences bit for bit (so answers cannot drift), memory
divides where it matters, and the inline service composes it with the
engine's one row cache.  That no layout changes a single answer is
judged in ``tests/test_conformance.py``, one column per shard count and
strategy.
"""

import numpy as np
import pytest

from repro.core.compact_view import CompactViewFactory
from repro.core.engine import SemanticGraphQueryEngine
from repro.errors import GraphError, ServeError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.sharded import (
    SHARD_STRATEGIES,
    ShardedGraph,
    ShardedViewFactory,
    compact_resident_bytes,
    partition_entities,
)
from repro.query.builder import QueryGraphBuilder
from repro.serve.cache import SemanticGraphCache
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def frozen(small_bundle):
    return CompactGraph.freeze(small_bundle.kg)


@pytest.fixture(scope="module")
def sharded4(small_bundle):
    return ShardedGraph.build(small_bundle.kg, 4, strategy="hash")


def _sample_uids(graph, count=40):
    """A deterministic spread of node ids, biased to include hubs."""
    degrees = np.diff(graph.indptr)
    hubs = np.argsort(degrees)[::-1][: count // 2]
    rest = np.linspace(0, graph.num_nodes - 1, count // 2, dtype=np.int64)
    return sorted(set(hubs.tolist()) | set(rest.tolist()))


class TestPartitioner:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_assignment_is_byte_identical(self, frozen, strategy):
        first = partition_entities(frozen, 4, strategy=strategy)
        second = partition_entities(frozen, 4, strategy=strategy)
        assert first.dtype == np.int32
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("strategy, expected", [
        ("hash", [3, 3, 1, 0, 3, 2, 2, 3, 2, 0, 0, 3]),
        ("balanced-degree", [2, 3, 2, 0, 3, 0, 1, 2, 1, 3, 0, 1]),
    ], ids=["hash", "balanced-degree"])
    def test_assignment_is_pinned(self, strategy, expected):
        """The layout the ledger's sharded arm measures does not move: the
        hash salt is the one a seed of 0 gave before the seed was fixed."""
        kg = KnowledgeGraph("pinned")
        uids = [kg.add_entity(f"e{i}", "T").uid for i in range(12)]
        for i in range(11):
            for j in range(i % 3 + 1):
                if i + j + 1 < 12:
                    kg.add_edge(uids[i], "p", uids[i + j + 1])
        graph = CompactGraph.freeze(kg)
        assert partition_entities(graph, 4, strategy=strategy).tolist() == expected

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_every_shard_is_used(self, frozen, strategy):
        assignment = partition_entities(frozen, 4, strategy=strategy)
        assert assignment.shape == (frozen.num_nodes,)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}

    def test_balanced_degree_balances_load(self, frozen):
        assignment = partition_entities(frozen, 4, strategy="balanced-degree")
        degrees = np.diff(frozen.indptr)
        loads = np.bincount(assignment, weights=degrees, minlength=4)
        # Greedy largest-first: no shard can exceed the mean by more
        # than one node's degree mass.
        assert loads.max() - loads.min() <= degrees.max() + 1

    def test_single_shard_is_all_zero(self, frozen):
        assert not partition_entities(frozen, 1).any()

    def test_invalid_inputs_rejected(self, frozen):
        with pytest.raises(GraphError):
            partition_entities(frozen, 0)
        with pytest.raises(GraphError):
            partition_entities(frozen, 2, strategy="round-robin")


class TestShardedGraphBuild:
    def test_edges_partition_exactly(self, frozen, sharded4):
        owned = np.concatenate(
            [shard.owned_edges for shard in sharded4.shards]
        )
        assert len(owned) == frozen.num_edges
        assert np.array_equal(np.sort(owned), np.arange(frozen.num_edges))
        for shard in sharded4.shards:
            # Both slots of every owned edge live in the owner shard.
            assert shard.graph.indptr[-1] == 2 * len(shard.owned_edges)

    def test_ranks_are_global_positions(self, frozen, sharded4):
        for uid in _sample_uids(frozen):
            merged = []
            for shard in sharded4.shards:
                lo, hi = shard.graph.indptr[uid], shard.graph.indptr[uid + 1]
                for slot in range(lo, hi):
                    merged.append(
                        (
                            int(shard.slot_rank[slot]),
                            int(shard.graph.slot_neighbor[slot]),
                            int(shard.owned_edges[shard.graph.slot_edge[slot]]),
                        )
                    )
            merged.sort()
            ranks = [rank for rank, _, _ in merged]
            assert ranks == list(range(len(ranks)))
            # Rank-merged (neighbor, edge) equals the unsharded row.
            lo, hi = frozen.indptr[uid], frozen.indptr[uid + 1]
            expected = [
                (int(frozen.slot_neighbor[s]), int(frozen.slot_edge[s]))
                for s in range(lo, hi)
            ]
            assert [(n, e) for _, n, e in merged] == expected

    def test_cut_edges_match_assignment(self, frozen, sharded4):
        src = frozen.edge_source
        dst = frozen.edge_target
        expected = int(
            (sharded4.shard_of[src] != sharded4.shard_of[dst]).sum()
        )
        assert sharded4.cut_edges == expected

    @pytest.mark.parametrize("count", [2, 4])
    def test_memory_divides(self, small_bundle, frozen, count):
        sharded = ShardedGraph.build(small_bundle.kg, count)
        unsharded = compact_resident_bytes(frozen)
        assert sharded.max_resident_bytes() < unsharded
        assert len(sharded.resident_bytes()) == count
        # Entity columns are replicated per shard by design; the edge
        # columns and the cut-edge replica table must actually divide.
        # 1.35 is imbalance headroom for a hash partition of a small
        # graph: a shard carrying every edge exceeds it at any count.
        node_bytes = sum(
            getattr(frozen, name).nbytes
            for name in ("entity_type", "indptr", "name_blob", "name_offsets")
        )
        rank_overhead = sum(
            shard.slot_rank.nbytes + shard.owned_edges.nbytes
            for shard in sharded.shards
        )
        assert sharded.max_resident_bytes() <= node_bytes + int(
            1.35 * (unsharded - node_bytes + rank_overhead) / count
        )


class TestViewConformance:
    """The rank-merged view must be indistinguishable from the unsharded
    compact view — same sequences, same bounds, same answers."""

    @pytest.fixture(scope="class")
    def views(self, small_bundle, frozen, sharded4):
        baseline = CompactViewFactory(frozen)(small_bundle.kg, small_bundle.space)
        sharded_view = ShardedViewFactory(sharded4)(
            small_bundle.kg, small_bundle.space
        )
        return baseline, sharded_view

    def test_weighted_incident_sequences_identical(self, frozen, views):
        baseline, sharded_view = views
        for qp in ("product", "country", "designer"):
            for uid in _sample_uids(frozen):
                expected = list(baseline.weighted_incident(uid, qp))
                actual = list(sharded_view.weighted_incident(uid, qp))
                assert actual == expected, (qp, uid)

    def test_segment_max_identical(self, frozen, views):
        baseline, sharded_view = views
        predicates = ("product", "country", "designer")
        for uid in _sample_uids(frozen):
            assert sharded_view.max_adjacent_weight_any(
                uid, predicates
            ) == baseline.max_adjacent_weight_any(uid, predicates), uid

    def test_weight_matrix_identical(self, views):
        baseline, sharded_view = views
        for qp in ("product", "country"):
            # The shard set's one weight row, per graph-predicate id.
            assert sharded_view._weight_row(qp)[0].tolist() == (
                baseline.weight_row_array(qp).tolist()
            )
            assert sharded_view.bounds_row_array(qp).tolist() == (
                baseline.bounds_row_array(qp).tolist()
            )


class TestValidation:
    def test_service_validates_shard_arguments(self, small_bundle):
        build = dict(
            space=small_bundle.space, library=small_bundle.library
        )
        with pytest.raises(ServeError):
            QueryService.build(small_bundle.kg, shards=-1, **build)
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, shards=2, shard_strategy="modulo", **build
            )

    @pytest.mark.parametrize("factory", [CompactViewFactory, ShardedViewFactory])
    def test_a_grown_graph_is_refused_by_either_factory(self, fig2_space, factory):
        # A hand-built engine over a live graph: once the graph grows
        # past its store, the next query raises instead of answering from
        # the old snapshot.
        kg = KnowledgeGraph("two")
        audi = kg.add_entity("Audi_TT", "Automobile")
        germany = kg.add_entity("Germany", "Country")
        kg.add_edge(audi.uid, "assembly", germany.uid)
        store = (
            CompactGraph.freeze(kg) if factory is CompactViewFactory
            else ShardedGraph.build(kg, 2)
        )
        engine = SemanticGraphQueryEngine(
            kg, fig2_space, view_factory=factory(store)
        )
        query = (
            QueryGraphBuilder().target("x", "Automobile")
            .specific("g", "Germany", "Country")
            .edge("e", "x", "assembly", "g").build()
        )
        assert engine.search(query, k=5).answer_uids() == [audi.uid]
        lamando = kg.add_entity("Lamando", "Automobile")
        kg.add_edge(lamando.uid, "assembly", germany.uid)
        with pytest.raises(ServeError, match="freeze it again"):
            engine.search(query, k=5)


class TestServeIntegration:
    def test_sharded_service_stats(self, small_bundle):
        """What a sharded service answers is a column of
        ``tests/test_conformance.py``; its report has no shard lines."""
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            shards=2,
            shard_strategy="balanced-degree",
        ) as service:
            service.search_many([item.query for item in small_bundle.workload[:3]], k=5)
            report = service.serving_stats()  # the perf ledger's name
            assert QueryService.serving_stats is QueryService.stats_snapshot
            assert report.shards == ()
            assert "shard" not in report.describe()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_warm_service_reports_the_caches_its_searches_read(
        self, small_bundle, shards
    ):
        """The headline is the engine's one weight cache and the engine's
        space — the row source of the whole shard set."""
        queries = [item.query for item in small_bundle.workload[:3]]
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            shards=shards,
        ) as service:
            service.search_many(queries, k=5)  # cold
            before = service.stats_snapshot()
            # The engine's caches are readable live.
            assert before.cache == service.cache.stats
            assert before.space == service.engine.space.stats()
            service.search_many(queries, k=5)  # warm
            report = service.stats_snapshot().since(before)
        assert report.cache.hits > 0 and report.cache.misses == 0
        assert report.cache.capacity == SemanticGraphCache().stats.capacity
        assert report.space.entries > 0

    def test_a_shard_set_reads_one_row_per_query_predicate(self, small_bundle):
        """Four shards read what the unsharded store reads: one weight row
        per distinct query predicate in one cache, and as many similarity
        rows of one space."""
        queries = [item.query for item in small_bundle.workload]
        predicates = {edge.predicate for query in queries for edge in query.edges()}
        reports = {}
        for shards in (0, 4):
            with QueryService.build(
                small_bundle.kg,
                small_bundle.space.with_private_rows(),  # counts from zero
                small_bundle.library,
                shards=shards,
            ) as service:
                service.search_many(queries, k=5)  # cold
                before = service.stats_snapshot()
                service.search_many(queries, k=5)  # warm
                reports[shards] = service.stats_snapshot().since(before)
                if shards:
                    cache = service.cache
                    assert all(
                        cache.get_row("weights", p) is not None for p in predicates
                    )
        sharded, unsharded = reports[4], reports[0]
        assert sharded.space.entries == unsharded.space.entries
        assert sharded.space.misses == 0 and sharded.space.entries > 0
        assert sharded.cache.capacity == SemanticGraphCache().stats.capacity
        assert sharded.cache.misses == 0
