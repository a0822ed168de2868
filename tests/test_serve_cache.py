"""Tests for the shared whole-graph row cache (repro.serve.cache)."""

import threading

import pytest

from repro.core.semantic_graph import SemanticGraphView
from repro.errors import ServeError
from repro.kg.compact import CompactGraph
from repro.serve.cache import SemanticGraphCache


class TestLruBounds:
    def test_row_capacity_is_enforced(self):
        cache = SemanticGraphCache(max_rows=2)
        for i in range(5):
            cache.put_row("weights", f"p{i}", [float(i)])
        stats = cache.stats
        assert (stats.entries, stats.capacity, stats.evictions) == (2, 2, 3)
        # The two most recent rows survive.
        assert cache.get_row("weights", "p4") == [4.0]
        assert cache.get_row("weights", "p0") is None

    def test_get_refreshes_recency_and_overwrite_does_not_evict(self):
        cache = SemanticGraphCache(max_rows=2)
        cache.put_row("weights", "a", [0.1])
        cache.put_row("weights", "b", [0.2])
        cache.put_row("weights", "a", [0.15])  # overwrite, no growth
        assert cache.stats.evictions == 0
        assert cache.get_row("weights", "a") == [0.15]  # refresh "a"
        cache.put_row("weights", "c", [0.3])  # evicts "b", not "a"
        assert cache.get_row("weights", "a") == [0.15]
        assert cache.get_row("weights", "b") is None

    def test_row_kinds_are_distinct_keys(self):
        cache = SemanticGraphCache()
        cache.put_row("weights", "product", [0.9])
        cache.put_row("bounds", "product", [0.8])
        assert cache.get_row("weights", "product") == [0.9]
        assert cache.get_row("bounds", "product") == [0.8]
        assert cache.stats.entries == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServeError):
            SemanticGraphCache(max_rows=0)


class TestStats:
    def test_hit_miss_accounting(self):
        cache = SemanticGraphCache()
        assert cache.stats.hit_rate == 0.0  # unused, not a division by zero
        assert cache.get_row("weights", "a") is None
        cache.put_row("weights", "a", [0.7])
        assert cache.get_row("weights", "a") == [0.7]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
        assert stats.hit_rate == pytest.approx(0.5)
        assert "hit_rate=0.500" in stats.describe()
        assert "entries=1/1024" in stats.describe()

    def test_a_phase_is_a_stats_diff_that_keeps_entries(self):
        cache = SemanticGraphCache()
        cache.put_row("weights", "a", [0.4])
        cache.get_row("weights", "b")
        before = cache.stats
        assert cache.get_row("weights", "a") == [0.4]
        phase = cache.stats.since(before)
        assert (phase.hits, phase.misses, phase.entries) == (1, 0, 1)


class TestBinding:
    def test_rebinding_needs_the_same_fingerprint(self):
        cache = SemanticGraphCache()
        cache.bind((1, 2, 0.0))
        cache.bind((1, 2, 0.0))
        with pytest.raises(ServeError):
            cache.bind((1, 2, 0.5))

    def test_views_with_different_min_weight_cannot_share(self, fig2_kg, fig2_space):
        cache = SemanticGraphCache()
        graph = CompactGraph.freeze(fig2_kg)
        SemanticGraphView(graph, fig2_space, cache=cache)
        with pytest.raises(ServeError):
            SemanticGraphView(graph, fig2_space, min_weight=0.5, cache=cache)


def test_lazy_view_shares_its_hop_label_and_nothing_else(fig2_kg, fig2_space):
    cache = SemanticGraphCache()
    (germany,) = fig2_kg.entities_named("Germany")
    graph = CompactGraph.freeze(fig2_kg)
    first = SemanticGraphView(graph, fig2_space, cache=cache)
    first.weight("product", "assembly")
    first.weight("product", "assembly")  # memoised for the query
    assert first.edges_weighted == 1
    first.max_adjacent_weight(germany, "product")
    assert cache.stats.entries == 0 and cache.stats.lookups == 0
    label = first.hop_label(("Germany", "Country"), [germany], 4)
    assert cache.stats.entries == 1

    second = SemanticGraphView(graph, fig2_space, cache=cache)
    assert second.hop_label(("Germany", "Country"), [germany], 4) is label
    second.weight("product", "assembly")
    assert first.cache_hits == 0
    assert (second.edges_weighted, second.cache_hits) == (1, 1)


def test_concurrent_mixed_operations():
    cache = SemanticGraphCache(max_rows=64)
    errors = []

    def hammer(worker: int) -> None:
        try:
            for i in range(300):
                cache.put_row("weights", (worker, i % 80), [0.5])
                cache.get_row("weights", (worker, (i + 1) % 80))
                if i % 50 == 0:
                    cache.stats  # snapshot under contention
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.stats.entries <= 64
    assert cache.stats.lookups == 8 * 300
