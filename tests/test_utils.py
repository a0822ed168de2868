"""Unit tests for repro.utils (heap, clocks, rng, statistics)."""

import math

import numpy as np
import pytest

from repro.errors import TimeBudgetError
from repro.utils.heap import MaxHeap
from repro.utils.rng import derive_rng, stable_hash
from repro.utils.stats import (
    geometric_mean,
    mean,
    pearson_correlation,
)
from repro.utils.timing import BudgetClock, Stopwatch, WallClock


class TestMaxHeap:
    def test_pop_order_is_descending(self):
        heap = MaxHeap()
        for priority in (0.3, 0.9, 0.1, 0.7):
            heap.push(priority, f"p{priority}")
        popped = [heap.pop_max()[0] for _ in range(4)]
        assert popped == sorted(popped, reverse=True)

    def test_ties_break_fifo(self):
        heap = MaxHeap()
        heap.push(0.5, "first")
        heap.push(0.5, "second")
        assert heap.pop_max()[1] == "first"
        assert heap.pop_max()[1] == "second"

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            MaxHeap().pop_max()

    def test_len_and_bool(self):
        heap = MaxHeap()
        assert not heap
        heap.push(1.0, "x")
        assert heap and len(heap) == 1

    def test_ties_stay_fifo_across_interleaved_pops(self):
        heap = MaxHeap()
        heap.push(0.5, "a")
        heap.push(0.5, "b")
        assert heap.pop_max()[1] == "a"
        heap.push(0.5, "c")
        heap.push(0.9, "d")
        assert [heap.pop_max()[1] for _ in range(3)] == ["d", "b", "c"]

    def test_items_need_not_be_comparable(self):
        # The insertion counter decides ties, so items are never compared.
        heap = MaxHeap()
        heap.push(0.5, {"id": 1})
        heap.push(0.5, {"id": 2})
        assert heap.pop_max() == (0.5, {"id": 1})
        assert heap.pop_max() == (0.5, {"id": 2})

    def test_priorities_come_back_as_pushed(self):
        heap = MaxHeap()
        for priority in (-2.5, 0.0, math.inf, 1e-300):
            heap.push(priority, priority)
        popped = [heap.pop_max() for _ in range(4)]
        assert popped == [(p, p) for p in (math.inf, 1e-300, 0.0, -2.5)]

    def test_len_tracks_pushes_and_pops(self):
        heap = MaxHeap()
        for i in range(5):
            heap.push(float(i), i)
        heap.pop_max()
        heap.pop_max()
        assert len(heap) == 3
        while heap:
            heap.pop_max()
        assert len(heap) == 0
        with pytest.raises(IndexError):
            heap.pop_max()


class TestClocks:
    def test_wall_clock_monotonic(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_budget_clock_ticks(self):
        clock = BudgetClock(seconds_per_tick=0.5)
        clock.tick()
        clock.tick(3)
        assert clock.now() == pytest.approx(2.0)

    def test_budget_clock_rejects_bad_params(self):
        with pytest.raises(TimeBudgetError):
            BudgetClock(seconds_per_tick=0)
        clock = BudgetClock()
        with pytest.raises(TimeBudgetError):
            clock.tick(-1)

    def test_stopwatch_on_budget_clock(self):
        clock = BudgetClock()
        watch = Stopwatch(clock)
        clock.tick(5)
        assert watch.elapsed() == 5.0
        watch.restart()
        assert watch.elapsed() == 0.0


class TestRng:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    def test_derive_rng_label_separation(self):
        a = derive_rng(7, "edges").random(4)
        b = derive_rng(7, "nodes").random(4)
        assert not np.allclose(a, b)

    def test_derive_rng_same_label_same_stream(self):
        assert np.allclose(derive_rng(7, "x").random(4), derive_rng(7, "x").random(4))

    def test_derive_rng_passthrough_generator(self):
        generator = np.random.default_rng(0)
        assert derive_rng(generator, "anything") is generator

    def test_none_seed_is_stable(self):
        assert np.allclose(
            derive_rng(None, "z").random(3), derive_rng(None, "z").random(3)
        )


class TestStats:
    def test_geometric_mean_basic(self):
        assert geometric_mean([0.5, 0.5]) == pytest.approx(0.5)
        assert geometric_mean([0.9, 0.4]) == pytest.approx(math.sqrt(0.36))

    def test_geometric_mean_zero_collapses(self):
        assert geometric_mean([0.9, 0.0]) == 0.0
        assert geometric_mean([0.9, -0.1]) == 0.0

    def test_geometric_mean_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_no_underflow_on_long_paths(self):
        assert geometric_mean([0.8] * 500) == pytest.approx(0.8)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_pearson_perfect_correlation(self):
        assert pearson_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_zero_variance_is_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_pearson_validates_input(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])
        with pytest.raises(ValueError):
            pearson_correlation([1], [1])
