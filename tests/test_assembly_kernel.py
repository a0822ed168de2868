"""Cross-kernel conformance: incremental TA assembly vs the reference.

The production kernel (`repro.core.assembly_kernel`) must make the same
Theorem 3 decision at the same round as the pure-Python reference on the
same streams — so matches, bit-equal scores, component order, sorted
access counts, round counts and termination flags must all be identical.

The fuzz suites draw pss values from a 1/64 grid, so every bound either
kernel computes (sums of at most a few dozen such values) is exact in
float64 and the suite asserts *exact* equality instead of tolerances.
"""

import random

import pytest

from repro.bench.equivalence import query_results_differ
from repro.core.assembly import MatchStream, assemble_top_k
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import FinalMatch, PathMatch
from repro.errors import SearchError
from repro.kg.paths import Path
from repro.utils.timing import BudgetClock

GRID = 64


def grid_match(stream, pivot, value):
    """A match whose pss is value/GRID (exactly representable)."""
    return PathMatch(
        subquery_index=stream,
        path=Path.single_node(pivot),
        pivot_uid=pivot,
        pss=value / GRID,
    )


def random_stream_specs(rng):
    """Random stream shapes: empty streams, duplicate pivots, many ties."""
    num_streams = rng.randint(1, 6)
    specs = []
    for stream in range(num_streams):
        length = 0 if rng.random() < 0.15 else rng.randint(1, 30)
        pivot_pool = rng.randint(1, 12)  # small pool → duplicates + overlap
        specs.append(
            [
                grid_match(stream, rng.randrange(pivot_pool), rng.randint(1, GRID))
                for _ in range(length)
            ]
        )
    return specs


def run_kernel(specs, k, kernel, **kwargs):
    streams = [MatchStream.from_list(matches) for matches in specs]
    return streams, assemble_top_k(streams, k, kernel=kernel, **kwargs)


def assert_identical(specs, k, **kwargs):
    ref_streams, reference = run_kernel(specs, k, "reference", **kwargs)
    vec_streams, vectorized = run_kernel(specs, k, "vectorized", **kwargs)
    assert reference.accesses == vectorized.accesses
    assert reference.rounds == vectorized.rounds
    assert reference.terminated_early == vectorized.terminated_early
    assert [s.accesses for s in ref_streams] == [s.accesses for s in vec_streams]
    assert len(reference.matches) == len(vectorized.matches)
    for a, b in zip(reference.matches, vectorized.matches):
        assert a.pivot_uid == b.pivot_uid
        assert a.score == b.score  # bit-identical, no tolerance
        assert a.expected_components == b.expected_components
        assert list(a.components) == list(b.components)  # same insertion order
        for index, pa in a.components.items():
            pb = b.components[index]
            assert pa.pss == pb.pss
            assert pa.path == pb.path
    return reference, vectorized


class TestFuzzConformance:
    @pytest.mark.parametrize("seed", range(60))
    def test_early_termination(self, seed):
        rng = random.Random(seed)
        assert_identical(random_stream_specs(rng), rng.randint(1, 8))

    @pytest.mark.parametrize("seed", range(201, 221))
    def test_exhaustive(self, seed):
        rng = random.Random(seed)
        assert_identical(
            random_stream_specs(rng), rng.randint(1, 8), exhaustive=True
        )

    @pytest.mark.parametrize("seed", range(601, 611))
    def test_k_exceeds_candidates(self, seed):
        rng = random.Random(seed)
        assert_identical(random_stream_specs(rng), rng.randint(20, 40))

    @pytest.mark.parametrize(
        "num_streams, length, pivot_pool, k, kwargs",
        [
            pytest.param(3, 150, 400, 8, {}, id="many-candidate"),
            pytest.param(6, 80, 200, 10, {}, id="many-stream"),
            pytest.param(3, 120, 50, 5, {}, id="dense-overlap"),
            pytest.param(3, 80, 250, 20, {"exhaustive": True}, id="exhaustive-drain"),
        ],
    )
    def test_large_shapes(self, num_streams, length, pivot_pool, k, kwargs):
        """Streams far longer than the random shapes above: hundreds of
        candidates alive at once, every unseen-stream mask populated."""
        rng = random.Random(pivot_pool)
        specs = [
            [
                grid_match(stream, rng.randrange(pivot_pool), rng.randint(1, GRID))
                for _ in range(length)
            ]
            for stream in range(num_streams)
        ]
        assert_identical(specs, k, **kwargs)


def joined_scores(specs):
    """The join both kernels must agree with: a pivot's exact score is
    the sum, over the streams it appears in, of its best pss there."""
    scores = {}
    for matches in specs:
        best = {}
        for m in matches:
            best[m.pivot_uid] = max(best.get(m.pivot_uid, 0.0), m.pss)
        for pivot, pss in best.items():
            scores[pivot] = scores.get(pivot, 0.0) + pss
    return scores


class TestJoinOracle:
    """Each kernel against a direct join of the streams rather than
    against the other kernel: an early stop (Theorem 3) returns pivots
    whose exact scores are the k best, and a drain ranks pivots by exact
    score, ties by uid."""

    @pytest.mark.parametrize("seed", range(401, 421))
    def test_early_termination_returns_the_true_top_k(self, seed):
        rng = random.Random(seed)
        specs = random_stream_specs(rng)
        k = rng.randint(1, 8)
        exact = joined_scores(specs)
        best = sorted(exact.values(), reverse=True)[:k]
        for kernel in ("reference", "vectorized"):
            _, result = run_kernel(specs, k, kernel)
            returned = sorted((exact[m.pivot_uid] for m in result.matches), reverse=True)
            assert returned == best, kernel

    def test_a_drain_ranks_every_pivot_by_its_join_score(self):
        rng = random.Random(250)
        specs = [
            [grid_match(stream, rng.randrange(250), rng.randint(1, GRID)) for _ in range(100)]
            for stream in range(3)
        ]
        ranked = sorted(joined_scores(specs).items(), key=lambda item: (-item[1], item[0]))
        for kernel in ("reference", "vectorized"):
            _, result = run_kernel(specs, 5, kernel, exhaustive=True)
            assert [(m.pivot_uid, m.score) for m in result.matches] == ranked[:5], kernel


class TestToleranceWiggleConformance:
    """Streams that rise by ≤1e-9 between pulls (the sortedness
    tolerance) exercise the kernel's lazy-heap liveness rules: ψ rises
    and components are replaced upwards, so a filed entry goes dead and
    a fresh one must be pushed.  Values are multiples of 2^-32, so sums
    stay exact and the identity assertions are sharp."""

    WIGGLE = 2.0 ** -32  # ≈2.3e-10; even 3 steps stay under the 1e-9 gate

    def wiggled_specs(self, rng):
        num_streams = rng.randint(2, 4)
        specs = []
        for stream in range(num_streams):
            value = rng.randint(8, GRID) / GRID
            pool = rng.randint(2, 6)  # tiny pool → replacements happen
            matches = []
            for _ in range(rng.randint(5, 25)):
                roll = rng.random()
                if roll < 0.3:
                    value += rng.randint(1, 3) * self.WIGGLE  # tolerated rise
                elif roll < 0.7:
                    value -= rng.randint(1, 4) / GRID  # real descent
                    if value <= 0.0:
                        break
                matches.append(grid_match(stream, rng.randrange(pool), 0))
                matches[-1] = PathMatch(
                    subquery_index=stream,
                    path=matches[-1].path,
                    pivot_uid=matches[-1].pivot_uid,
                    pss=value,
                )
            specs.append(matches)
        return specs

    @staticmethod
    def run_ordered(specs, k, kernel):
        """Streams in the given order (no from_list re-sort)."""
        streams = []
        for matches in specs:
            pulls = iter(matches)
            streams.append(MatchStream(lambda p=pulls: next(p, None)))
        return streams, assemble_top_k(streams, k, kernel=kernel)

    @pytest.mark.parametrize("seed", range(801, 841))
    def test_wiggled_streams_identical(self, seed):
        rng = random.Random(seed)
        specs = self.wiggled_specs(rng)
        k = rng.randint(1, 6)
        ref_streams, reference = self.run_ordered(specs, k, "reference")
        vec_streams, vectorized = self.run_ordered(specs, k, "vectorized")
        assert reference.accesses == vectorized.accesses
        assert reference.rounds == vectorized.rounds
        assert reference.terminated_early == vectorized.terminated_early
        assert [(m.pivot_uid, m.score) for m in reference.matches] == [
            (m.pivot_uid, m.score) for m in vectorized.matches
        ]


class TestEdgeCases:
    def test_all_streams_empty(self):
        reference, vectorized = assert_identical([[], [], []], k=3)
        assert vectorized.matches == []
        assert vectorized.rounds == 1  # the single probe round
        assert vectorized.accesses == 0
        assert not vectorized.terminated_early

    def test_one_empty_one_live_stream(self):
        specs = [[], [grid_match(1, pivot, GRID - pivot) for pivot in range(5)]]
        assert_identical(specs, k=2)

    def test_everything_ties(self):
        """All pss equal: boundary-tie selection must match the stable sort."""
        specs = [
            [grid_match(0, pivot, 32) for pivot in (4, 2, 7, 1, 9)],
            [grid_match(1, pivot, 32) for pivot in (7, 4, 3, 9, 2)],
        ]
        for k in (1, 2, 3, 5, 8):
            assert_identical(specs, k)

    def test_duplicate_pivot_within_stream(self):
        specs = [[grid_match(0, 1, 60), grid_match(0, 1, 40), grid_match(0, 2, 50)]]
        reference, vectorized = assert_identical(specs, k=2, exhaustive=True)
        assert vectorized.matches[0].score == pytest.approx(60 / GRID)

    def test_replacement_via_sortedness_tolerance(self):
        """A pull larger by ≤1e-9 passes the sortedness check and must
        replace the stored component in both kernels."""

        def specs():
            first = grid_match(0, 1, 32)
            bumped = PathMatch(
                subquery_index=0,
                path=Path.single_node(1),
                pivot_uid=1,
                pss=first.pss + 5e-10,
            )
            pulls = iter([first, bumped, grid_match(0, 2, 16)])
            return pulls

        results = []
        for kernel in ("reference", "vectorized"):
            pulls = specs()
            stream = MatchStream(lambda: next(pulls, None))
            results.append(assemble_top_k([stream], 2, kernel=kernel))
        reference, vectorized = results
        assert reference.accesses == vectorized.accesses
        assert reference.rounds == vectorized.rounds
        assert [m.score for m in reference.matches] == [
            m.score for m in vectorized.matches
        ]
        assert reference.matches[0].score == 32 / GRID + 5e-10

    def test_validation_matches_reference(self):
        for kernel in ("reference", "vectorized"):
            with pytest.raises(SearchError):
                assemble_top_k([], 1, kernel=kernel)
            with pytest.raises(SearchError):
                assemble_top_k(
                    [MatchStream.from_list([grid_match(0, 1, 10)])],
                    0,
                    kernel=kernel,
                )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SearchError):
            assemble_top_k(
                [MatchStream.from_list([grid_match(0, 1, 10)])], 1, kernel="numba"
            )


def stream_of(index, pairs):
    return [grid_match(index, pivot, value) for pivot, value in pairs]


class TestGroupedHeaps:
    """Directed cases for the top-k heap and the per-mask groups."""

    # Pivots 1-3 come only from stream 0, pivots 11-18 only from stream
    # 1; the long low tail keeps stream 0 yielding to the end.
    HEAD = [(1, 60), (2, 58), (3, 56), (4, 4)]
    TAIL = [(20 + i, 3) for i in range(8)]
    PLATEAU = [(11 + i, 12) for i in range(8)]

    def test_member_that_never_gets_its_missing_component(self):
        """Top-2 = pivots 1 and 2, neither ever seen in stream 1, and
        pivot 3 blocks Theorem 3 until ψ_1 reaches 0: stream 1 runs to
        exhaustion and the members keep their single component."""
        specs = [stream_of(0, self.HEAD + self.TAIL), stream_of(1, self.PLATEAU)]
        reference, vectorized = assert_identical(specs, k=2)
        assert vectorized.terminated_early
        assert vectorized.rounds == len(self.PLATEAU) + 1
        assert [m.pivot_uid for m in vectorized.matches] == [1, 2]
        assert all(list(m.components) == [0] for m in vectorized.matches)

    def test_boundary_tie_goes_to_the_first_seen_row(self):
        """Two candidates tie at L_k (k=1): one complete, one still
        lacking a stream.  Which of them the top-1 holds — the first
        seen — decides whether the other's upper bound blocks."""
        complete_first = [
            stream_of(0, [(5, 22), (7, 10), (8, 9)]),
            stream_of(1, [(3, 32), (5, 10), (9, 10), (6, 10)]),
        ]
        reference, vectorized = assert_identical(complete_first, k=1)
        # Pivot 5 (complete, first seen) holds the top-1; pivot 3 blocks
        # until stream 0 runs dry in round 4.  The ranking then breaks
        # the score tie by uid.
        assert vectorized.rounds == 4
        assert [m.pivot_uid for m in vectorized.matches] == [3]
        lacking_first = [
            stream_of(0, [(3, 32), (5, 10), (7, 10)]),
            stream_of(1, [(5, 22), (9, 10), (8, 9)]),
        ]
        reference, vectorized = assert_identical(lacking_first, k=1)
        assert vectorized.rounds == 2  # pivot 3 is the member, nothing blocks

    def test_upward_replacement_within_the_tolerance(self):
        """A stream re-emits a pivot 5e-10 higher (inside the sortedness
        tolerance): the filed entry goes dead, a fresh one is pushed."""
        bumped = PathMatch(
            subquery_index=1, path=Path.single_node(11), pivot_uid=11,
            pss=12 / GRID + 5e-10,
        )
        plateau = stream_of(1, self.PLATEAU)
        specs = [stream_of(0, self.HEAD + self.TAIL), plateau[:6] + [bumped] + plateau[6:]]
        run_ordered = TestToleranceWiggleConformance.run_ordered
        ref_streams, reference = run_ordered(specs, 2, "reference")
        vec_streams, vectorized = run_ordered(specs, 2, "vectorized")
        assert reference.accesses == vectorized.accesses
        assert reference.rounds == vectorized.rounds
        assert reference.terminated_early == vectorized.terminated_early
        assert [(m.pivot_uid, m.score) for m in reference.matches] == [
            (m.pivot_uid, m.score) for m in vectorized.matches
        ]

    def test_single_stream(self):
        specs = [stream_of(0, [(pivot, GRID - pivot) for pivot in range(10)])]
        reference, vectorized = assert_identical(specs, k=3)
        assert vectorized.rounds == 3 and vectorized.terminated_early

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_six_streams_every_mask(self, k):
        """m = 6: one pivot per proper seen-set, so all 62 masks between
        "seen everywhere" and "seen nowhere" hold a candidate."""
        rng = random.Random(k)
        specs = [
            stream_of(
                stream,
                [
                    (seen, rng.randint(1, GRID))
                    for seen in range(1, 63)
                    if seen >> stream & 1
                ],
            )
            for stream in range(6)
        ]
        assert_identical(specs, k)

    def test_k_larger_than_the_candidate_count(self):
        specs = [
            stream_of(0, [(1, 40), (2, 30)]),
            stream_of(1, [(2, 50), (3, 20)]),
        ]
        reference, vectorized = assert_identical(specs, k=10)
        assert len(vectorized.matches) == 3
        assert not vectorized.terminated_early

    @pytest.mark.parametrize(
        "plateau, depth, k", [(300, 250, 5), (500, 499, 5), (200, 120, 3)]
    )
    def test_ledger_shaped_plateau(self, plateau, depth, k):
        """The tail query's shape: the top-k pivots head streams 0 and 1
        but sit ``depth`` ties down stream 2's plateau; a pivot strong
        in streams 0 and 1 and absent from stream 2 blocks Theorem 3
        until they surface, hundreds of rounds and candidates later."""
        winners = list(range(1, k + 1))
        blocker = 1000

        def descending(offset):
            head = [(pivot, GRID) for pivot in winners] + [(blocker, 61)]
            body = [(offset + i, max(60 - 2 * i, 1)) for i in range(plateau)]
            return head + body

        ties = [(5000 + i, 62) for i in range(plateau)]
        ties[depth - k:depth] = [(pivot, 62) for pivot in winners]
        specs = [
            stream_of(0, descending(2000)),
            stream_of(1, descending(3000)),
            stream_of(2, ties + [(9000, 8)]),
        ]
        reference, vectorized = assert_identical(specs, k)
        assert vectorized.rounds >= depth and vectorized.terminated_early
        assert sorted(m.pivot_uid for m in vectorized.matches) == winners


class TestFinalMatchIncrementalScore:
    """Satellite: the incrementally maintained score equals the recomputed
    sum (values chosen exactly representable, so equality is exact)."""

    def test_additions_match_recomputed_sum(self):
        final = FinalMatch(pivot_uid=1, expected_components=3)
        for stream, value in enumerate((48, 17, 33)):
            final.add_component(grid_match(stream, 1, value))
        assert final.score == sum(m.pss for m in final.components.values())
        assert final.score == (48 + 17 + 33) / GRID

    def test_replacement_matches_recomputed_sum(self):
        final = FinalMatch(pivot_uid=1, expected_components=2)
        final.add_component(grid_match(0, 1, 16))
        final.add_component(grid_match(1, 1, 8))
        final.add_component(grid_match(0, 1, 32))  # replaces stream 0
        assert final.components[0].pss == 32 / GRID
        assert final.score == sum(m.pss for m in final.components.values())

    def test_worse_duplicate_ignored(self):
        final = FinalMatch(pivot_uid=1, expected_components=1)
        final.add_component(grid_match(0, 1, 32))
        final.add_component(grid_match(0, 1, 16))
        assert final.components[0].pss == 32 / GRID
        assert final.score == 32 / GRID


class TestEngineCallSites:
    """The kernels are interchangeable through every engine path."""

    @pytest.fixture(scope="class")
    def engines(self, small_bundle):
        return {
            kernel: SemanticGraphQueryEngine(
                small_bundle.kg,
                small_bundle.space,
                small_bundle.library,
                assembly_kernel=kernel,
            )
            for kernel in ("reference", "vectorized")
        }

    def test_sgq_identical(self, engines, small_bundle):
        for item in small_bundle.workload:
            reference = engines["reference"].search(item.query, k=10)
            vectorized = engines["vectorized"].search(item.query, k=10)
            problem = query_results_differ(item.qid, reference, vectorized)
            assert problem is None, problem

    def test_tbq_identical_under_budget_clock(self, engines, small_bundle):
        item = small_bundle.workload[0]
        results = {}
        for kernel, engine in engines.items():
            clock = BudgetClock(seconds_per_tick=0.001)
            results[kernel] = engine.search_time_bounded(
                item.query, k=10, time_bound=0.05, clock=clock
            )
        reference, vectorized = results["reference"], results["vectorized"]
        assert reference.ta_accesses == vectorized.ta_accesses
        assert reference.ta_rounds == vectorized.ta_rounds
        assert [m.pivot_uid for m in reference.matches] == [
            m.pivot_uid for m in vectorized.matches
        ]
        assert [m.score for m in reference.matches] == [
            m.score for m in vectorized.matches
        ]

    def test_exhaustive_assembly_identical(self, engines, small_bundle):
        item = small_bundle.workload[0]
        reference = engines["reference"].search(
            item.query, k=10, exhaustive_assembly=True
        )
        vectorized = engines["vectorized"].search(
            item.query, k=10, exhaustive_assembly=True
        )
        assert reference.ta_accesses == vectorized.ta_accesses
        assert [m.score for m in reference.matches] == [
            m.score for m in vectorized.matches
        ]

    def test_engine_rejects_unknown_kernel(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            assembly_kernel="simd",
        )
        with pytest.raises(SearchError):
            engine.search(small_bundle.workload[0].query, k=3)

    def test_timing_split_reported(self, engines, small_bundle):
        result = engines["vectorized"].search(small_bundle.workload[0].query, k=5)
        assert result.assembly_seconds >= 0.0
        assert result.search_seconds >= 0.0
        assert (
            result.assembly_seconds + result.search_seconds
            <= result.elapsed_seconds + 1e-9
        )
