"""Tests for TA-based assembly (Section V-C, Theorem 3).

Parametrised over both assembly kernels (the pure-Python reference and
the incremental vectorized kernel) — every behavioural contract here must
hold identically for both; `tests/test_assembly_kernel.py` additionally
asserts cross-kernel equality on randomized inputs.
"""

import pytest

from repro.core.assembly import AssemblyResult, MatchStream, assemble_top_k
from repro.core.results import PathMatch
from repro.errors import SearchError
from repro.kg.paths import Path


@pytest.fixture(params=["reference", "vectorized"])
def kernel(request):
    return request.param


def match(subquery_index, pivot, pss):
    return PathMatch(
        subquery_index=subquery_index,
        path=Path.single_node(pivot),
        pivot_uid=pivot,
        pss=pss,
    )


def figure10_streams():
    """The Fig. 10 example: two match sets assembled at pivot matches.

    M1: u2=0.98, u1=0.82, u3=0.71, u4=0.52
    M2: u1=1.0(wait, Fig 10 uses 1.0? values approximated), u2=0.77...
    We use values that reproduce the early-termination situation.
    """
    m1 = [match(0, 2, 0.98), match(0, 1, 0.82), match(0, 3, 0.71), match(0, 4, 0.52)]
    m2 = [match(1, 1, 0.89), match(1, 2, 0.77), match(1, 4, 0.58), match(1, 3, 0.40)]
    return [MatchStream.from_list(m1), MatchStream.from_list(m2)]


class TestMatchStream:
    def test_from_list_sorts_descending(self):
        stream = MatchStream.from_list([match(0, 1, 0.5), match(0, 2, 0.9)])
        assert stream.next().pss == 0.9
        assert stream.next().pss == 0.5

    def test_exhaustion(self):
        stream = MatchStream.from_list([match(0, 1, 0.5)])
        stream.next()
        assert stream.next() is None
        assert stream.exhausted
        assert stream.current_pss == 0.0

    def test_exhaustion_probe_not_counted_as_access(self):
        """The pull that discovers the end reads nothing — counting it
        would inflate the paper's sorted-access reporting."""
        stream = MatchStream.from_list([match(0, 1, 0.9), match(0, 2, 0.5)])
        stream.next()
        stream.next()
        assert stream.accesses == 2
        assert stream.next() is None
        assert stream.accesses == 2
        assert stream.next() is None  # idempotent after exhaustion
        assert stream.accesses == 2

    def test_empty_stream_counts_zero_accesses(self):
        stream = MatchStream.from_list([])
        assert stream.next() is None
        assert stream.accesses == 0

    def test_current_pss_before_access_is_one(self):
        stream = MatchStream.from_list([match(0, 1, 0.5)])
        assert stream.current_pss == 1.0

    def test_unsorted_pull_rejected(self):
        pulls = iter([match(0, 1, 0.5), match(0, 2, 0.9)])
        stream = MatchStream(lambda: next(pulls, None))
        stream.next()
        with pytest.raises(SearchError):
            stream.next()


class TestAssembly:
    def test_top1_is_best_joint_score(self, kernel):
        result = assemble_top_k(figure10_streams(), k=1, kernel=kernel)
        assert result.matches[0].pivot_uid in (1, 2)
        # u2: 0.98 + 0.77 = 1.75; u1: 0.82 + 0.89 = 1.71 -> u2 wins.
        assert result.matches[0].pivot_uid == 2
        assert result.matches[0].score == pytest.approx(1.75)

    def test_top2_matches_fig10(self, kernel):
        result = assemble_top_k(figure10_streams(), k=2, kernel=kernel)
        assert [m.pivot_uid for m in result.matches] == [2, 1]
        assert result.matches[1].score == pytest.approx(0.82 + 0.89)

    def test_early_termination_skips_accesses(self, kernel):
        eager = assemble_top_k(figure10_streams(), k=2, kernel=kernel)
        exhaustive = assemble_top_k(
            figure10_streams(), k=2, exhaustive=True, kernel=kernel
        )
        assert eager.terminated_early
        assert eager.accesses < exhaustive.accesses

    def test_exhaustive_equals_early_result(self, kernel):
        """Theorem 3: early termination returns exactly the true top-k."""
        eager = assemble_top_k(figure10_streams(), k=2, kernel=kernel)
        exhaustive = assemble_top_k(
            figure10_streams(), k=2, exhaustive=True, kernel=kernel
        )
        assert [m.pivot_uid for m in eager.matches] == [
            m.pivot_uid for m in exhaustive.matches
        ]
        for a, b in zip(eager.matches, exhaustive.matches):
            assert a.score == pytest.approx(b.score)

    def test_components_recorded(self, kernel):
        result = assemble_top_k(figure10_streams(), k=1, kernel=kernel)
        top = result.matches[0]
        assert set(top.components) == {0, 1}
        assert top.is_complete

    def test_single_stream_needs_k_accesses_plus_termination(self, kernel):
        stream = MatchStream.from_list([match(0, i, 1.0 - i * 0.1) for i in range(8)])
        result = assemble_top_k([stream], k=3, kernel=kernel)
        assert len(result.matches) == 3
        assert result.accesses <= 4  # k pulls + at most one extra round

    def test_fewer_matches_than_k(self, kernel):
        stream = MatchStream.from_list([match(0, 1, 0.9)])
        result = assemble_top_k([stream], k=5, kernel=kernel)
        assert len(result.matches) == 1

    def test_incomplete_candidates_rank_below_complete(self, kernel):
        m1 = [match(0, 1, 0.9), match(0, 2, 0.8)]
        m2 = [match(1, 1, 0.9)]  # pivot 2 never matched in stream 2
        result = assemble_top_k(
            [MatchStream.from_list(m1), MatchStream.from_list(m2)],
            k=2,
            kernel=kernel,
        )
        assert result.matches[0].pivot_uid == 1
        assert result.matches[0].is_complete
        assert not result.matches[1].is_complete

    def test_duplicate_pivot_in_stream_keeps_best(self, kernel):
        m1 = [match(0, 1, 0.9), match(0, 1, 0.7)]
        result = assemble_top_k(
            [MatchStream.from_list(m1)], k=1, exhaustive=True, kernel=kernel
        )
        assert result.matches[0].score == pytest.approx(0.9)

    def test_validation(self, kernel):
        with pytest.raises(SearchError):
            assemble_top_k([], k=1, kernel=kernel)
        with pytest.raises(SearchError):
            assemble_top_k(figure10_streams(), k=0, kernel=kernel)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SearchError):
            assemble_top_k(figure10_streams(), k=1, kernel="gpu")

    def test_ties_break_by_pivot_uid(self, kernel):
        m1 = [match(0, 5, 0.8), match(0, 3, 0.8)]
        result = assemble_top_k(
            [MatchStream.from_list(m1)], k=2, exhaustive=True, kernel=kernel
        )
        assert [m.pivot_uid for m in result.matches] == [3, 5]


class TestRounds:
    """`rounds` and `terminated_early` say how the TA ended."""

    def test_clean_drain_counts_the_probe_round(self, kernel):
        stream = MatchStream.from_list([match(0, 1, 0.9)])
        result = assemble_top_k([stream], k=5, kernel=kernel)
        assert not result.terminated_early
        # One productive round plus the final all-exhausted probe round.
        assert result.rounds == 2

    def test_early_termination(self, kernel):
        result = assemble_top_k(figure10_streams(), k=2, kernel=kernel)
        assert result.terminated_early
        assert result.rounds >= 1

    def test_a_drain_reads_every_match_and_probes_once(self, kernel):
        long = MatchStream.from_list([match(0, i, 0.9 - i * 0.1) for i in range(4)])
        short = MatchStream.from_list([match(1, i, 0.8 - i * 0.1) for i in range(2)])
        result = assemble_top_k([long, short], k=2, exhaustive=True, kernel=kernel)
        assert not result.terminated_early
        assert (long.accesses, short.accesses, result.accesses) == (4, 2, 6)
        # The longest stream's four rounds, then the all-exhausted probe.
        assert result.rounds == 5

    def test_a_round_reads_each_live_stream_once(self, kernel):
        streams = figure10_streams()
        result = assemble_top_k(streams, k=2, kernel=kernel)
        assert [stream.accesses for stream in streams] == [result.rounds] * 2
        assert result.accesses == 2 * result.rounds

    def test_an_early_stop_ends_before_the_drain(self, kernel):
        early = assemble_top_k(figure10_streams(), k=2, kernel=kernel)
        drain = assemble_top_k(
            figure10_streams(), k=2, exhaustive=True, kernel=kernel
        )
        assert drain.rounds == 5  # four matches per stream, then the probe
        assert early.rounds < drain.rounds

    def test_default_fields(self):
        result = AssemblyResult(matches=[], accesses=0, terminated_early=False)
        assert result.rounds == 0
