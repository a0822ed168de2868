"""Time-bounded A* semantic search — TBQ (Algorithms 2-3, Section VI).

Three modifications to Algorithm 1, exactly as the paper lists them:

1. matches are harvested into the non-optimal set M̂_i the moment they are
   *generated* during expansion (not when they pop) — implemented by
   passing a harvest list into :meth:`SubQuerySearch.step`;
2. the termination condition becomes an execution-time check;
3. a synchronised estimator decides when to stop searching and launch the
   TA assembly so the whole query finishes inside the bound ``T``:

       T̂ = max{T_A*} + Σ|M̂_i|·t ,  stop when T̂ ≥ T·r%      (Algorithm 3)

**Threading substitution (documented in DESIGN.md).**  The paper runs one
thread per sub-query; under CPython's GIL real threads buy no parallelism,
so the coordinator interleaves the searches round-robin on one thread.
``max{T_A*}`` — the wall time of the slowest parallel thread — is then the
elapsed time of the interleaved loop itself, which is also exactly the
quantity that must stay under the bound for the user-visible SRT, so the
estimator uses it directly.  A deterministic :class:`~repro.utils.timing.
BudgetClock` can replace the wall clock in tests (one tick per expansion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.astar import SubQuerySearch
from repro.core.config import SearchConfig
from repro.core.results import PathMatch, PendingMatch
from repro.errors import TimeBudgetError
from repro.utils.timing import Clock, Stopwatch, WallClock


@dataclass
class TimeBoundedOutcome:
    """What the coordinator produced for one TBQ run.

    ``harvests`` holds the matches as the searches emitted them: the
    array-backed kernel's are path-less
    :class:`~repro.core.results.PendingMatch` values, which the engine
    materialises for the assembled top-k only.
    """

    harvests: List[List[Union[PathMatch, PendingMatch]]]
    elapsed_search_seconds: float
    estimated_assembly_seconds: float
    stopped_by_time: bool
    time_checks: int = 0

    @property
    def total_harvested(self) -> int:
        return sum(len(h) for h in self.harvests)


class TimeBoundedCoordinator:
    """Round-robin driver of several time-bounded sub-query searches.

    ``searches`` may mix search kernels: anything with the
    :class:`SubQuerySearch` pull surface (``step(harvest=)`` /
    ``exhausted``) qualifies, so the array-backed
    :class:`~repro.core.search_kernel.VectorizedSubQuerySearch` harvests
    through the same path as the reference search.
    """

    def __init__(
        self,
        searches: Sequence[SubQuerySearch],
        time_bound: float,
        config: SearchConfig,
        clock: Optional[Clock] = None,
        check_interval: int = 8,
    ):
        if time_bound <= 0:
            raise TimeBudgetError("time bound T must be positive")
        if check_interval < 1:
            raise TimeBudgetError("check_interval must be at least 1")
        if not searches:
            raise TimeBudgetError("coordinator needs at least one search")
        self.searches = list(searches)
        self.time_bound = time_bound
        self.config = config
        self.clock = clock if clock is not None else WallClock()
        self.check_interval = check_interval

    def _estimate_total(self, elapsed: float, harvested: int) -> float:
        """Algorithm 3's T̂ = max{T_A*} + Σ|M̂_i|·t."""
        return elapsed + harvested * self.config.assembly_seconds_per_match

    def run(self) -> TimeBoundedOutcome:
        """Search until the time estimate fires or every search exhausts."""
        harvest_maps: List[dict] = [{} for _ in self.searches]
        watch = Stopwatch(self.clock)
        steps_since_check = 0
        time_checks = 0
        stopped_by_time = False
        alert = self.time_bound * self.config.alert_ratio

        active = True
        while active:
            active = False
            for search, harvest in zip(self.searches, harvest_maps):
                if search.exhausted:
                    continue
                search.step(harvest=harvest)
                if not search.exhausted:
                    active = True
                steps_since_check += 1
                if steps_since_check >= self.check_interval:
                    steps_since_check = 0
                    time_checks += 1
                    harvested = sum(len(h) for h in harvest_maps)
                    if self._estimate_total(watch.elapsed(), harvested) >= alert:
                        stopped_by_time = True
                        active = False
                        break

        elapsed = watch.elapsed()
        harvests = [list(h.values()) for h in harvest_maps]
        harvested = sum(len(h) for h in harvests)
        return TimeBoundedOutcome(
            harvests=harvests,
            elapsed_search_seconds=elapsed,
            estimated_assembly_seconds=harvested
            * self.config.assembly_seconds_per_match,
            stopped_by_time=stopped_by_time,
            time_checks=time_checks,
        )


def calibrate_assembly_seconds_per_match(
    sample_matches: int = 2000, kernel: str = "vectorized"
) -> float:
    """Measure the empirical per-match TA cost ``t`` of Algorithm 3.

    Runs a simulated assembly over synthetic single-stream matches (the
    paper: "we get this empirical time via the simulated TA based
    assembly") and returns seconds per match.  ``kernel`` selects the
    assembly implementation to calibrate; the default matches the
    engine's default (the vectorized kernel), so TBQ's time-budget
    estimate reflects the assembler that will actually run.
    """
    from repro.core.assembly import MatchStream, assemble_top_k
    from repro.kg.paths import Path

    if sample_matches < 10:
        raise TimeBudgetError("need at least 10 samples to calibrate")
    matches = [
        PathMatch(
            subquery_index=0,
            path=Path.single_node(i),
            pivot_uid=i,
            pss=1.0 - i / (sample_matches + 1),
        )
        for i in range(sample_matches)
    ]
    watch = Stopwatch()
    assemble_top_k(
        [MatchStream.from_list(matches)],
        k=sample_matches,
        exhaustive=True,
        kernel=kernel,
    )
    return max(watch.elapsed() / sample_matches, 1e-9)
