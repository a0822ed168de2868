"""Cross-view conformance: the compact CSR kernel must be indistinguishable
from the lazy semantic-graph view — same weights and m(u) bounds,
standalone and backed by a shared SemanticGraphCache.  Its engine's
answers are cells of ``tests/test_conformance.py``."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.bench.equivalence import final_matches_differ
from repro.core.compact_view import CompactSemanticGraphView, CompactViewFactory
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.semantic_graph import SemanticGraphView
from repro.errors import ServeError
from repro.kg.compact import CompactGraph, FrozenGraphReader
from repro.kg.sharded import ShardedGraph, ShardedViewFactory
from repro.query.builder import QueryGraphBuilder
from repro.serve.cache import SemanticGraphCache
from repro.serve.service import QueryService
from repro.utils.rng import derive_rng
from test_compact_freeze import slot_oracle


# ----------------------------------------------------------------------
# CompactGraph structure
# ----------------------------------------------------------------------
class TestCompactGraphFreeze:
    def test_counts_and_tables(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        assert compact.num_nodes == fig2_kg.num_entities
        assert compact.num_edges == fig2_kg.num_edges
        assert compact.predicate_names == fig2_kg.predicates()
        assert compact.type_names == fig2_kg.types()
        assert len(compact.indptr) == compact.num_nodes + 1
        assert compact.indptr[-1] == 2 * compact.num_edges

    def test_slot_order_is_the_insertion_order_rule(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        for uid, expected in enumerate(slot_oracle(fig2_kg)):
            start, end = int(compact.indptr[uid]), int(compact.indptr[uid + 1])
            got = [
                (compact.edge(int(compact.slot_edge[s])), int(compact.slot_neighbor[s]))
                for s in range(start, end)
            ]
            assert got == expected
            # the python mirror agrees with the arrays
            assert [(e, n) for e, n, _pid in compact.node_slots[uid]] == expected

    def test_edge_roundtrip_and_forward_flag(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        for uid in range(fig2_kg.num_entities):
            for s in range(int(compact.indptr[uid]), int(compact.indptr[uid + 1])):
                edge = compact.edge(int(compact.slot_edge[s]))
                assert edge.other(uid) == int(compact.slot_neighbor[s])
                assert bool(compact.slot_forward[s]) == (edge.source == uid)
                pid = int(compact.slot_predicate[s])
                assert compact.predicate_names[pid] == edge.predicate

    def test_degrees_match(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        for uid, expected in enumerate(slot_oracle(fig2_kg)):
            row = int(compact.indptr[uid + 1] - compact.indptr[uid])
            assert row == len(expected)

    def test_pickle_roundtrip(self, fig2_kg, fig2_space):
        compact = CompactGraph.freeze(fig2_kg)
        clone = pickle.loads(pickle.dumps(compact))
        assert clone.num_nodes == compact.num_nodes
        assert clone.num_edges == compact.num_edges
        assert clone.predicate_names == compact.predicate_names
        assert (clone.indptr == compact.indptr).all()
        assert (clone.slot_neighbor == compact.slot_neighbor).all()
        # Derived object state is rebuilt, not shipped, yet the rebuilt
        # edges, entity records and slot mirror are equal.
        assert clone.entity_records() == compact.entity_records()
        assert [clone.edge(i) for i in range(clone.num_edges)] == [
            compact.edge(i) for i in range(compact.num_edges)
        ]
        assert clone.node_slots == compact.node_slots
        # A view over the shipped kernel answers like the original.
        original = CompactSemanticGraphView(compact, fig2_space)
        shipped = CompactSemanticGraphView(clone, fig2_space)
        for uid in range(compact.num_nodes):
            assert list(shipped.weighted_incident(uid, "product")) == list(
                original.weighted_incident(uid, "product")
            )
        assert (
            shipped.bounds_row_array("product").tolist()
            == original.bounds_row_array("product").tolist()
        )

    def test_pickle_payload_excludes_object_graph(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        state = compact.__getstate__()
        assert "_node_slots" not in state
        assert "_entities" not in state
        assert "_names" not in state

    def test_growth_under_a_cacheless_engine_raises(self, fig2_kg, fig2_space):
        # The factory holds one kernel for its life and never re-freezes:
        # with no weight cache to bind, its own count check is what stops
        # a grown graph being searched through the old kernel.
        factory = CompactViewFactory(CompactGraph.freeze(fig2_kg))
        engine = SemanticGraphQueryEngine(fig2_kg, fig2_space, view_factory=factory)
        assert engine._make_view().graph is factory.graph
        grown = fig2_kg.add_entity("Porsche", "Automobile")
        fig2_kg.add_edge(grown.uid, "assembly", 3)
        with pytest.raises(ServeError):
            engine._make_view()

    @pytest.mark.parametrize("growth", ["entity", "edge"])
    def test_either_count_growing_is_caught(self, fig2_kg, fig2_space, growth):
        # An isolated new entity, or a new edge between old entities,
        # moves only one of the two counts the guard compares.
        factory = CompactViewFactory(CompactGraph.freeze(fig2_kg))
        if growth == "entity":
            fig2_kg.add_entity("Porsche", "Automobile")
        else:
            fig2_kg.add_edge(0, "designer", 5)  # Audi_TT -> Peter_Schreyer
        with pytest.raises(ServeError):
            factory(fig2_kg, fig2_space)

    @pytest.mark.parametrize("store", ["compact", "sharded"])
    def test_a_spec_built_engine_reads_only_its_store(
        self, fig2_kg, fig2_space, store
    ):
        spec_store = (
            CompactGraph.freeze(fig2_kg) if store == "compact"
            else ShardedGraph.build(fig2_kg, 2)
        )
        entities = list(fig2_kg.entities())
        engine = build_engine(EngineSpec(spec_store, fig2_space))
        grown = fig2_kg.add_entity("Porsche", "Automobile")
        fig2_kg.add_edge(grown.uid, "assembly", 3)
        reader = engine.kg
        assert isinstance(reader, FrozenGraphReader)
        assert (reader.num_entities, reader.num_edges) == (8, 6)
        assert list(reader.entities()) == entities
        assert reader.entities_of_type("Automobile") == [0, 1, 2]
        engine._make_view()  # the store's own counts: nothing to refuse

    @pytest.mark.parametrize(
        "options",
        [dict(), dict(backend="process", workers=1), dict(shards=2)],
        ids=["inline", "process", "sharded"],
    )
    def test_a_service_answers_from_its_snapshot_after_growth(
        self, fig2_kg, fig2_space, options
    ):
        # A service reads only the store it froze: once the caller grows
        # the graph, a cached hit and a fresh miss both answer exactly as
        # a service over an ungrown copy does.
        def germany_query(predicate):
            return (
                QueryGraphBuilder()
                .target("v1", "Automobile")
                .specific("v2", "Germany", "Country")
                .edge("e1", "v1", predicate, "v2")
                .build()
            )

        hit, miss = germany_query("product"), germany_query("assembly")
        ungrown = copy.deepcopy(fig2_kg)
        options = dict(options, answer_cache=8)
        with QueryService.build(fig2_kg, fig2_space, **options) as service, \
                QueryService.build(ungrown, fig2_space, **options) as reference:
            service.submit(hit, k=5).result()
            grown = fig2_kg.add_entity("Porsche", "Automobile")
            fig2_kg.add_edge(grown.uid, "assembly", 3)
            for query in (hit, miss):
                problem = final_matches_differ(
                    str(options),
                    reference.submit(query, k=5).result().matches,
                    service.submit(query, k=5).result().matches,
                )
                assert problem is None, problem
            answers = service.stats_snapshot().answers
            assert (answers.hits, answers.misses) == (1, 2)
        # The growth does change the answer, for a store frozen after it.
        with QueryService.build(fig2_kg, fig2_space) as refrozen:
            assert grown.uid in refrozen.submit(miss, k=5).result().answer_uids()


# ----------------------------------------------------------------------
# view-level conformance: weights and m(u)
# ----------------------------------------------------------------------
def _views(kg, space, *, min_weight=0.0, lazy_cache=None, compact_cache=None):
    graph = CompactGraph.freeze(kg)
    lazy = SemanticGraphView(graph, space, min_weight=min_weight, cache=lazy_cache)
    compact = CompactSemanticGraphView(
        graph, space, min_weight=min_weight, cache=compact_cache
    )
    return lazy, compact


class TestViewConformance:
    @pytest.mark.parametrize("min_weight", [0.0, 0.5])
    def test_weighted_incident_identical(self, fig2_kg, fig2_space, min_weight):
        lazy, compact = _views(fig2_kg, fig2_space, min_weight=min_weight)
        for uid in range(fig2_kg.num_entities):
            for predicate in fig2_space.predicates():
                a = list(lazy.weighted_incident(uid, predicate))
                b = list(compact.weighted_incident(uid, predicate))
                assert a == b  # same edges, same order, bit-equal weights

    def test_unknown_graph_predicate_weighs_zero(self, fig2_kg, fig2_space):
        fig2_kg.add_edge(0, "mystery_predicate", 4)  # not in the space
        lazy, compact = _views(fig2_kg, fig2_space)
        a = list(lazy.weighted_incident(0, "product"))
        b = list(compact.weighted_incident(0, "product"))
        assert a == b
        weights = {e.predicate: w for e, _n, w in b}
        assert weights["mystery_predicate"] == 0.0

    def test_unknown_query_predicate_zeroes_row(self, fig2_kg, fig2_space):
        lazy, compact = _views(fig2_kg, fig2_space)
        a = list(lazy.weighted_incident(3, "no_such_predicate"))
        b = list(compact.weighted_incident(3, "no_such_predicate"))
        assert a == b
        assert all(w == 0.0 for _e, _n, w in b)

    @pytest.mark.parametrize("min_weight", [0.0, 0.5])
    def test_m_u_bounds_identical(self, fig2_kg, fig2_space, min_weight):
        lazy, compact = _views(fig2_kg, fig2_space, min_weight=min_weight)
        predicates = fig2_space.predicates()
        for uid in range(fig2_kg.num_entities):
            for predicate in predicates:
                assert lazy.max_adjacent_weight(uid, predicate) == (
                    compact.bounds_row_array(predicate)[uid]
                )
            assert lazy.max_adjacent_weight_any(uid, predicates) == (
                compact.max_adjacent_weight_any(uid, predicates)
            )

    def test_m_u_isolated_node_is_zero(self, fig2_kg, fig2_space):
        loner = fig2_kg.add_entity("Loner", "Person")
        _lazy, compact = _views(fig2_kg, fig2_space)
        assert compact.bounds_row_array("product")[loner.uid] == 0.0

    def test_weight_row_is_the_lazy_pair_weights(self, fig2_kg, fig2_space):
        lazy, compact = _views(fig2_kg, fig2_space)
        names = compact.graph.predicate_names
        for qp in ("product", "language"):
            assert compact.weight_row_array(qp).tolist() == [
                lazy.weight(qp, gp) for gp in names
            ]

    def test_bundle_views_agree_on_random_probes(self, small_bundle):
        kg, space = small_bundle.kg, small_bundle.space
        lazy, compact = _views(kg, space)
        rng = derive_rng(7, "compact-conformance")
        predicates = space.predicates()
        for _ in range(200):
            uid = int(rng.integers(kg.num_entities))
            predicate = predicates[int(rng.integers(len(predicates)))]
            assert list(lazy.weighted_incident(uid, predicate)) == list(
                compact.weighted_incident(uid, predicate)
            )
            assert lazy.max_adjacent_weight(uid, predicate) == (
                compact.bounds_row_array(predicate)[uid]
            )


# ----------------------------------------------------------------------
# the engine over the compact view (its answers are judged in
# tests/test_conformance.py): shared rows, growth, statistics
# ----------------------------------------------------------------------
def _compact_engine(kg, *args, **kwargs):
    """An engine served through the frozen CSR kernel of ``kg``."""
    factory = CompactViewFactory(CompactGraph.freeze(kg))
    return SemanticGraphQueryEngine(kg, *args, view_factory=factory, **kwargs)


class TestCompactEngine:
    def test_compact_view_hits_shared_rows_across_queries(self, small_bundle):
        bundle = small_bundle
        cache = SemanticGraphCache()
        engine = _compact_engine(
            bundle.kg, bundle.space, bundle.library, weight_cache=cache
        )
        query = bundle.workload[0].query
        engine.search(query, k=5)
        cold = cache.stats
        engine.search(query, k=5)
        warm = cache.stats
        assert warm.hits > cold.hits  # second query reused rows

    def test_graph_growth_under_live_cache_raises(self, fig2_kg, fig2_space):
        # An engine built by hand over a live graph and a kernel frozen
        # from it: once the graph grows, the next view construction fails
        # loudly instead of serving rows and bounds that miss the growth.
        cache = SemanticGraphCache()
        engine = _compact_engine(fig2_kg, fig2_space, weight_cache=cache)
        engine._make_view()  # binds the cache
        grown = fig2_kg.add_entity("Porsche", "Automobile")
        fig2_kg.add_edge(grown.uid, "assembly", 3)
        with pytest.raises(ServeError):
            engine._make_view()

    def test_the_default_engine_serves_its_freeze_after_growth(
        self, fig2_kg, fig2_space
    ):
        # The default engine freezes at construction and reads only that
        # snapshot, so growing the graph afterwards changes nothing it
        # answers; a new engine sees the growth.
        query = (
            QueryGraphBuilder().target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "product", "v2").build()
        )
        engine = SemanticGraphQueryEngine(
            fig2_kg, fig2_space, weight_cache=SemanticGraphCache()
        )
        before = engine.search(query, k=5).answer_uids()
        grown = fig2_kg.add_entity("Porsche", "Automobile")
        fig2_kg.add_edge(grown.uid, "assembly", 3)
        assert engine.search(query, k=5).answer_uids() == before
        assert (engine.kg.num_entities, engine.kg.num_edges) == (8, 6)
        fresh = SemanticGraphQueryEngine(fig2_kg, fig2_space)
        assert grown.uid in fresh.search(query, k=5).answer_uids()

    def test_engine_stats_populated_by_compact_view(self, small_bundle):
        bundle = small_bundle
        engine = _compact_engine(bundle.kg, bundle.space, bundle.library)
        result = engine.search(bundle.workload[0].query, k=5)
        total = result.total_stats()
        assert total.edges_weighted > 0

    def test_nodes_touched_is_the_lazy_views_count(self, small_bundle):
        # Example 5's "nodes ever materialised" is a statistic of the
        # on-demand SG_Q; views that materialise whole rows touch none.
        bundle = small_bundle
        query = bundle.workload[0].query
        lazy = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        compact = _compact_engine(bundle.kg, bundle.space, bundle.library)
        sharded = ShardedGraph.build(bundle.kg, 2, strategy="hash")
        sharded_engine = SemanticGraphQueryEngine(
            FrozenGraphReader(sharded),
            bundle.space,
            bundle.library,
            view_factory=ShardedViewFactory(sharded),
        )
        assert lazy.search(query, k=5).total_stats().nodes_touched > 0
        for engine in (compact, sharded_engine):
            total = engine.search(query, k=5).total_stats()
            assert total.nodes_touched == 0
            assert total.edges_weighted > 0
