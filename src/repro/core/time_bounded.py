"""Time-bounded query — TBQ (Algorithms 2-3, Section VI) as a budgeted SGQ.

TBQ runs the *same* search SGQ runs — TA assembly pulling
``next_match`` out of the sub-query A* searches — under Algorithm 3's
budget, and falls back to the generated-goal sets only when the budget
runs out first:

1. every search is built with the :class:`TimeBoundedCoordinator` as its
   budget and charges it once per expansion; every ``check_interval``
   charges the coordinator evaluates the synchronised estimate

       T̂ = max{T_A*} + Σ|M̂_i|·t ,  alert when T̂ ≥ T·r%      (Algorithm 3)

   and raises :class:`TimeAlert` out of the pull when it fires;
2. if TA terminates first (Theorem 3) the answer is the exact SGQ answer
   — nothing was approximated, and no time past the certificate is
   spent;
3. if the alert fires first, the pull is abandoned and the answer is
   assembled from M̂_i, every goal state search *i* has **generated** so
   far, popped or not, best per pivot — Algorithm 2's harvest-on-generate
   set, which each search keeps as it pushes goals (``generated_goals``)
   and hands out as matches on request (``harvest()``).  Every goal was
   τ-checked at generation and carries its exact pss, and the searches
   are a prefix of the SGQ run's, so a bounded answer never scores an
   entity above what SGQ gives it and converges to SGQ as ``T`` grows
   (Theorem 4).

``t`` is ``SearchConfig.assembly_seconds_per_match``, a fixed constant.

**Threading substitution (see docs/architecture.md).**  The paper runs
one thread per sub-query; under CPython's GIL real threads buy no
parallelism, so the searches interleave on one thread in TA's
sorted-access order.  ``max{T_A*}`` — the wall time of the slowest
parallel thread — is then the elapsed time of the budgeted pull itself,
which is also exactly the quantity that must stay under the bound for
the user-visible SRT, so the estimator uses it directly.  A
deterministic :class:`~repro.utils.timing.BudgetClock` can replace the
wall clock in tests (one tick per expansion).

The coordinator holds no search: the searches hold it (as their budget)
and it holds only their goal tables, so there is no reference cycle and
a finished query's state pools are freed by reference counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.core.config import SearchConfig
from repro.core.results import PathMatch, PendingMatch
from repro.errors import TimeBudgetError
from repro.utils.stats import finite_positive
from repro.utils.timing import Clock, Stopwatch, WallClock


class TimeAlert(Exception):
    """Algorithm 3's alert fired inside a pull (control flow, not an error)."""


@dataclass
class TimeBoundedOutcome:
    """What one budgeted run produced.

    ``answer`` is whatever the pull returned when it finished inside the
    budget; when the alert fired instead, ``harvests`` holds M̂_i per
    search — the array-backed kernel's are path-less
    :class:`~repro.core.results.PendingMatch` values, which the engine
    materialises for the assembled top-k only.
    """

    answer: Any = None
    harvests: Optional[List[List[Union[PathMatch, PendingMatch]]]] = None

    @property
    def stopped_by_time(self) -> bool:
        return self.harvests is not None


class TimeBoundedCoordinator:
    """Algorithm 3's estimator and the driver of the budgeted pull.

    Pass it as ``budget=`` to
    :func:`~repro.core.astar.build_subquery_search` (either kernel), then
    :meth:`run` the pull over those searches.
    """

    def __init__(
        self,
        time_bound: float,
        config: SearchConfig,
        clock: Optional[Clock] = None,
        check_interval: int = 8,
    ):
        if not finite_positive(time_bound):
            raise TimeBudgetError(f"time bound T must be positive, got {time_bound}")
        if check_interval < 1:
            raise TimeBudgetError("check_interval must be at least 1")
        self.clock = clock if clock is not None else WallClock()
        self.check_interval = check_interval
        self._alert = time_bound * config.alert_ratio
        self._seconds_per_match = config.assembly_seconds_per_match
        self._until_check = check_interval
        self._watch = Stopwatch(self.clock)
        self._goal_tables: Sequence[dict] = ()

    def charge(self) -> None:
        """Account one A* expansion; raise :class:`TimeAlert` on the alert."""
        self._until_check -= 1
        if self._until_check:
            return
        self._until_check = self.check_interval
        generated = sum(map(len, self._goal_tables))
        estimate = self._watch.elapsed() + generated * self._seconds_per_match
        if estimate >= self._alert:
            raise TimeAlert

    def run(self, searches: Sequence, pull: Callable[[], Any]) -> TimeBoundedOutcome:
        """Run ``pull`` (which drives ``searches``) until it returns or the
        alert fires; on the alert, harvest M̂ from the searches."""
        if not searches:
            raise TimeBudgetError("coordinator needs at least one search")
        self._goal_tables = [search.generated_goals for search in searches]
        self._watch.restart()
        try:
            return TimeBoundedOutcome(answer=pull())
        except TimeAlert:
            return TimeBoundedOutcome(
                harvests=[search.harvest() for search in searches]
            )
