"""Property-based tests (hypothesis) for core invariants."""

import functools
import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.metrics import f1_score, jaccard
from repro.core.assembly import MatchStream, assemble_top_k
from repro.core.pss import estimate_pss, exact_pss
from repro.core.results import PathMatch
from repro.kg.compact import CompactGraph
from repro.kg.generator import build_dataset
from repro.kg.paths import Path, follow_pattern
from repro.utils.heap import MaxHeap
from repro.utils.stats import geometric_mean, pearson_correlation

weights = st.floats(min_value=0.01, max_value=1.0)
weight_lists = st.lists(weights, min_size=1, max_size=8)


class TestHeapProperties:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_pop_order_sorted(self, priorities):
        heap = MaxHeap()
        for priority in priorities:
            heap.push(priority, None)
        popped = [heap.pop_max()[0] for _ in range(len(priorities))]
        assert popped == sorted(priorities, reverse=True)

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers()), min_size=1))
    def test_pop_preserves_items(self, items):
        heap = MaxHeap()
        for priority, value in items:
            heap.push(priority, value)
        popped = [heap.pop_max() for _ in range(len(items))]
        assert not heap
        assert sorted(v for _p, v in popped) == sorted(v for _p, v in items)


class TestPssProperties:
    @given(weight_lists)
    def test_geometric_mean_bounded_by_extremes(self, ws):
        gm = geometric_mean(ws)
        assert min(ws) - 1e-12 <= gm <= max(ws) + 1e-12

    @given(weight_lists)
    def test_exact_pss_equals_geometric_mean(self, ws):
        assert abs(exact_pss(ws) - geometric_mean(ws)) < 1e-12

    @given(weight_lists, weights, st.integers(min_value=1, max_value=4))
    def test_estimate_admissible(self, explored, m, extra):
        """ψ̂ upper-bounds the pss of any completion whose first unexplored
        weight is <= m (Theorem 1)."""
        total_bound = len(explored) + extra
        log_product = sum(math.log(w) for w in explored)
        estimate = estimate_pss(log_product, len(explored), m, total_bound)
        # Adversarial completion: pad with weight-1 edges after an m-edge.
        completion = explored + [m] + [1.0] * (extra - 1)
        assert estimate >= exact_pss(completion) - 1e-9


class TestMetricsProperties:
    @given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
    def test_jaccard_symmetric_bounded(self, a, b):
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)
        if a == b:
            assert j == 1.0

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_f1_between_min_and_max(self, p, r):
        f1 = f1_score(p, r)
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    @given(
        st.lists(
            st.floats(-100, 100, allow_subnormal=False).filter(
                lambda x: x == 0 or abs(x) > 1e-6
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_pearson_self_correlation(self, xs):
        # Subnormal-scale variance underflows to 0 by design (treated as a
        # constant list); restrict to numerically meaningful inputs.
        if len(set(xs)) > 1:
            assert pearson_correlation(xs, xs) > 0.999

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=2))
    # A denormal variance of ys once put the quotient at -1.0000001874.
    @example([(0.0, 1.94e-159), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)])
    def test_pearson_bounded(self, pairs):
        xs = [a for a, _b in pairs]
        ys = [b for _a, b in pairs]
        assert -1.0 - 1e-9 <= pearson_correlation(xs, ys) <= 1.0 + 1e-9


@functools.lru_cache(maxsize=None)
def _pattern_graph():
    return CompactGraph.freeze(build_dataset("dbpedia", seed=3, scale=0.3))


class TestPatternProperties:
    @given(st.data())
    def test_a_pattern_walks_step_by_step(self, data):
        """``follow_pattern`` over ``head + tail`` is the union of ``tail``
        walked from every node ``head`` reaches: the ground-truth sets of
        a multi-hop schema compose hop by hop."""
        graph = _pattern_graph()
        step = st.tuples(st.sampled_from(graph.predicate_names), st.sampled_from("+-"))
        head = data.draw(st.lists(step, max_size=2))
        tail = data.draw(st.lists(step, min_size=1, max_size=2))
        start = data.draw(st.integers(0, graph.num_nodes - 1))
        stepwise = set()
        for middle in follow_pattern(graph, start, head):
            stepwise |= follow_pattern(graph, middle, tail)
        assert follow_pattern(graph, start, head + tail) == stepwise


def _match(pivot, pss, stream=0):
    return PathMatch(
        subquery_index=stream, path=Path.single_node(pivot), pivot_uid=pivot, pss=pss
    )


@st.composite
def descending_streams(draw):
    """1-4 streams of arbitrary floats over a few pivots, descending up to
    rises of at most 5e-10 — inside the 1e-9 sortedness tolerance, so a
    repeated pivot can replace its component upwards."""
    specs = []
    for index in range(draw(st.integers(1, 4))):
        value = draw(st.floats(0.05, 1.0))
        matches = []
        steps = draw(
            st.lists(
                st.tuples(st.integers(0, 5), st.booleans(), st.floats(0.0, 0.3)),
                max_size=15,
            )
        )
        for pivot, rise, drop in steps:
            if rise:
                value += draw(st.floats(0.0, 5e-10))
            else:
                value = max(value - drop, 0.0)
            matches.append(_match(pivot, value, index))
        specs.append(matches)
    return specs


class _PullFailed(Exception):
    """Raised by a test pull part-way through a round."""


def _failing_pull(matches, fail_at):
    """A pull over ``matches`` whose call number ``fail_at`` raises."""
    items = iter(matches)
    calls = itertools.count()

    def pull():
        if next(calls) == fail_at:
            raise _PullFailed
        return next(items, None)

    return pull


class TestAssemblyProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        descending_streams(),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([{}, {"exhaustive": True}]),
        st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 20))),
    )
    def test_incremental_equals_reference(self, specs, k, kwargs, failure):
        """The incremental TA against the reference on non-grid floats:
        same matches, bit-equal scores, same component insertion order,
        rounds and accesses — and the same stream state afterwards, also
        when a pull raises part-way through a round (the kernel owns the
        stream state until its ``finally``)."""
        failing = None if failure is None else failure[0] % len(specs)
        outcomes = []
        for kernel in ("reference", "vectorized"):
            streams = [
                MatchStream(
                    _failing_pull(matches, failure[1] if index == failing else None)
                )
                for index, matches in enumerate(specs)
            ]
            try:
                result = assemble_top_k(streams, k, kernel=kernel, **kwargs)
            except _PullFailed:
                result = None
            state = [
                (s.accesses, s.last_pss, s.exhausted, s.current_pss) for s in streams
            ]
            outcomes.append((result, state))
        (reference, reference_state), (incremental, incremental_state) = outcomes
        assert incremental_state == reference_state
        assert (incremental is None) == (reference is None)
        if reference is None:
            return

        def summary(result):
            return (
                result.accesses,
                result.rounds,
                result.terminated_early,
                [
                    (
                        m.pivot_uid,
                        m.score.hex(),
                        m.expected_components,
                        list(m.components.items()),
                    )
                    for m in result.matches
                ],
            )

        assert summary(incremental) == summary(reference)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 15), st.floats(0.01, 1.0)),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_early_termination_equals_exhaustive(self, stream_specs, k):
        """Theorem 3 as a property: TA with early termination returns the
        same top-k (pivots and scores) as draining everything."""

        def build_streams():
            return [
                MatchStream.from_list(
                    [_match(pivot, pss, index) for pivot, pss in spec]
                )
                for index, spec in enumerate(stream_specs)
            ]

        eager = assemble_top_k(build_streams(), k=k)
        exhaustive = assemble_top_k(build_streams(), k=k, exhaustive=True)
        assert len(eager.matches) == len(exhaustive.matches)
        if not exhaustive.matches:
            return
        # NRA semantics: membership is certified up to score ties — every
        # returned pivot's *exact* score must reach the exhaustive k-th
        # score (no strictly-better candidate may be excluded).
        exact_scores = {}
        for index, spec in enumerate(stream_specs):
            for pivot, pss in spec:
                key = (index, pivot)
                exact_scores[key] = max(exact_scores.get(key, 0.0), pss)
        def exact(pivot):
            return sum(
                exact_scores.get((index, pivot), 0.0)
                for index in range(len(stream_specs))
            )
        kth = exhaustive.matches[-1].score
        for match in eager.matches:
            assert exact(match.pivot_uid) >= kth - 1e-9
        # And the lower-bound score never exceeds the exact score.
        for match in eager.matches:
            assert match.score <= exact(match.pivot_uid) + 1e-9
