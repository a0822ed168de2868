"""Tests for pss scoring, its heuristic estimate, and the semantic graph."""

import math

import numpy as np
import pytest

from repro.core.config import PssMode
from repro.core.pss import (
    LOG_ZERO,
    estimate_pss,
    exact_pss,
    exact_pss_from_log,
    log_weight,
)
from repro.core.semantic_graph import SemanticGraphView
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import SearchError
from repro.kg.compact import CompactGraph
from repro.kg.graph import KnowledgeGraph


class TestExactPss:
    def test_geometric_mean_matches_eq6(self):
        weights = [0.98, 0.82, 0.81]
        expected = (0.98 * 0.82 * 0.81) ** (1 / 3)
        assert exact_pss(weights) == pytest.approx(expected)

    def test_single_hop(self):
        assert exact_pss([0.98]) == pytest.approx(0.98)

    def test_zero_weight_collapses(self):
        assert exact_pss([0.9, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            exact_pss([])

    def test_arithmetic_mode(self):
        assert exact_pss([0.5, 1.0], PssMode.ARITHMETIC) == pytest.approx(0.75)

    def test_from_log_agrees(self):
        weights = [0.9, 0.7, 0.85]
        log_product = sum(math.log(w) for w in weights)
        assert exact_pss_from_log(log_product, 3) == pytest.approx(exact_pss(weights))

    def test_from_log_rejects_zero_hops(self):
        with pytest.raises(SearchError):
            exact_pss_from_log(0.0, 0)

    def test_log_weight_guards(self):
        assert log_weight(0.0) == LOG_ZERO
        with pytest.raises(SearchError):
            log_weight(1.5)


class TestEstimate:
    def test_eq7_form(self):
        # ψ̂ = (w1*w2*m) ** (1/n̂)
        log_product = math.log(0.9) + math.log(0.8)
        estimate = estimate_pss(log_product, 2, 0.95, 4)
        assert estimate == pytest.approx((0.9 * 0.8 * 0.95) ** 0.25)

    def test_admissible_for_any_completion(self):
        """Theorem 1: ψ̂ >= exact pss of every completion within N̂ hops
        whose next-edge weight is bounded by m."""
        rng = np.random.default_rng(0)
        for _trial in range(200):
            explored = rng.uniform(0.05, 1.0, size=rng.integers(1, 4))
            m = float(rng.uniform(0.05, 1.0))
            total_bound = int(rng.integers(len(explored) + 1, 9))
            remaining_hops = int(rng.integers(1, total_bound - len(explored) + 1))
            # Completion: first unexplored weight <= m, all weights <= 1.
            suffix = rng.uniform(0.01, 1.0, size=remaining_hops)
            suffix[0] = min(suffix[0], m)
            full = list(explored) + list(suffix)
            log_product = sum(math.log(w) for w in explored)
            estimate = estimate_pss(log_product, len(explored), m, total_bound)
            assert estimate >= exact_pss(full) - 1e-12

    def test_zero_m_collapses(self):
        assert estimate_pss(math.log(0.9), 1, 0.0, 4) == 0.0

    def test_hops_beyond_bound_is_zero(self):
        assert estimate_pss(math.log(0.9), 5, 0.9, 4) == 0.0

    def test_start_state_estimate(self):
        assert estimate_pss(0.0, 0, 0.81, 4) == pytest.approx(0.81**0.25)

    def test_invalid_bound(self):
        with pytest.raises(SearchError):
            estimate_pss(0.0, 0, 0.5, 0)

    def test_arithmetic_bound_is_admissible(self):
        rng = np.random.default_rng(1)
        for _trial in range(200):
            explored = list(rng.uniform(0.05, 1.0, size=rng.integers(1, 4)))
            m = float(rng.uniform(0.05, 1.0))
            total_bound = int(rng.integers(len(explored) + 1, 9))
            remaining = int(rng.integers(0, total_bound - len(explored) + 1))
            suffix = list(rng.uniform(0.01, 1.0, size=remaining))
            if suffix:
                suffix[0] = min(suffix[0], m)  # only the next edge is bounded by m
            full = explored + suffix
            estimate = estimate_pss(
                sum(math.log(w) for w in explored),
                len(explored),
                m,
                total_bound,
                mode=PssMode.ARITHMETIC,
                weight_sum=sum(explored),
            )
            exact = exact_pss(full, PssMode.ARITHMETIC)
            assert estimate >= exact - 1e-12


class TestSemanticGraphView:
    @pytest.fixture()
    def view(self, fig2_kg, fig2_space):
        return SemanticGraphView(CompactGraph.freeze(fig2_kg), fig2_space)

    def test_weight_is_clamped_cosine(self, view, fig2_space):
        weight = view.weight("product", "assembly")
        assert weight == pytest.approx(fig2_space.similarity("product", "assembly"))
        assert 0.0 <= weight <= 1.0

    def test_unknown_graph_predicate_is_zero(self, view):
        assert view.weight("product", "not-a-predicate") == 0.0

    def test_weight_cache_counts_pairs(self, view):
        view.weight("product", "assembly")
        view.weight("product", "assembly")
        assert view.materialized_pairs == 1

    def test_weighted_incident_materializes_node(self, view, fig2_kg):
        (germany,) = fig2_kg.entities_named("Germany")
        triples = list(view.weighted_incident(germany, "product"))
        assert len(triples) == 3  # assembly in, nationality in, language out
        assert view.touched_nodes == 1

    def test_max_adjacent_weight_is_max(self, view, fig2_kg, fig2_space):
        (germany,) = fig2_kg.entities_named("Germany")
        m = view.max_adjacent_weight(germany, "product")
        assert m == pytest.approx(fig2_space.similarity("product", "assembly"))

    def test_max_adjacent_weight_any(self, view, fig2_kg):
        (germany,) = fig2_kg.entities_named("Germany")
        combined = view.max_adjacent_weight_any(germany, ["product", "language"])
        assert combined == pytest.approx(1.0)  # language matches itself

    def test_min_weight_floor(self, fig2_kg, fig2_space):
        view = SemanticGraphView(CompactGraph.freeze(fig2_kg), fig2_space, min_weight=0.5)
        assert view.weight("product", "language") == 0.0

    def test_materialization_ratio(self, view, fig2_kg):
        (germany,) = fig2_kg.entities_named("Germany")
        list(view.weighted_incident(germany, "product"))
        assert view.materialization_ratio() == pytest.approx(1 / fig2_kg.num_entities)
