"""Result value types: sub-query matches, final matches, query results."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.kg.graph import Edge, KnowledgeGraph
from repro.kg.paths import Path, PathStep


@dataclass(frozen=True)
class PathMatch:
    """A match of one sub-query graph (Definition 7).

    ``path`` runs from a φ-match of the sub-query's specific start node to
    ``pivot_uid`` (a φ-match of the pivot); ``pss`` is its exact path
    semantic similarity (Eq. 6).
    """

    subquery_index: int
    path: Path
    pivot_uid: int
    pss: float

    def describe(self, kg: KnowledgeGraph) -> str:
        return f"[g{self.subquery_index}] {self.path.describe(kg)} (pss={self.pss:.3f})"


class PendingMatch(NamedTuple):
    """A sub-query match whose path has not been built yet.

    What the array-backed search kernel emits: everything TA assembly
    reads (sub-query index, pivot, pss) plus the goal state's entry,
    which reaches its ancestors through their parent fields.  The
    emitting search turns it into a :class:`PathMatch`
    (``search.materialise(match)``), and the engine does so for the
    components of the returned top-k alone — a pending match never
    leaves the engine.
    """

    subquery_index: int
    pivot_uid: int
    pss: float
    entry: tuple


@dataclass
class FinalMatch:
    """A final match ``fm(u^p)`` assembled at a pivot entity (Eq. 2).

    ``components`` maps sub-query index → its :class:`PathMatch` (missing
    indexes were never matched before TA terminated); ``score`` is the
    match score ``S_m`` — the sum of component pss values, i.e. the lower
    bound at termination, exact once every sub-query contributed.  The
    score is maintained incrementally by :meth:`add_component` (add the
    new pss, subtract a replaced one) rather than re-summed on every add;
    for pure additions the running value is bit-identical to summing the
    components in insertion order.
    """

    pivot_uid: int
    components: Dict[int, PathMatch] = field(default_factory=dict)
    score: float = 0.0

    @property
    def is_complete(self) -> bool:
        """True when every sub-query contributed a component.

        The component dict alone cannot know the sub-query count, so the
        assembler sets this via ``expected_components``.
        """
        return self.expected_components is not None and len(self.components) == self.expected_components

    expected_components: Optional[int] = None

    def add_component(self, match: PathMatch) -> None:
        existing = self.components.get(match.subquery_index)
        if existing is None:
            self.components[match.subquery_index] = match
            self.score += match.pss
        elif match.pss > existing.pss:
            self.components[match.subquery_index] = match
            self.score += match.pss - existing.pss

    def describe(self, kg: KnowledgeGraph) -> str:
        entity = kg.entity(self.pivot_uid)
        parts = "; ".join(
            m.describe(kg) for _i, m in sorted(self.components.items())
        )
        return f"{entity.name}<{entity.etype}> score={self.score:.3f} via {parts}"


@dataclass
class SearchStats:
    """Instrumentation of one A* sub-query search.

    ``stale_pops`` counts EXPAND-policy heap entries that popped after a
    better path to the same fine-grained state superseded them (the lazy
    decrease-key leaves the old entry in the queue).  They cost a pop
    each without becoming expansions, so queue-health reporting needs
    them separately; under the GENERATE policy the counter stays 0.
    ``pruned_by_reach`` counts arrivals (and seeds) dropped because no
    φ-match of their segment's closing node lies within the hops they
    have left (the view's ``hop_label``); it stays 0 under GENERATE and
    on views that offer no label.
    ``edges_weighted`` / ``nodes_touched`` are the query's *view's*
    counters, copied onto every sub-query's stats by the engine: pair
    weights the view computed (per pair on the lazy view, per whole row
    on the compact and sharded views — one row per query predicate for
    the whole shard set, whatever the shard count — 0 for what a shared
    cache served),
    and nodes whose incidence the lazy ``SG_Q`` view materialised
    (Example 5) — 0 on views that materialise rows and touch no node.
    :meth:`QueryResult.total_stats` therefore takes them once rather
    than summing them.
    """

    expansions: int = 0
    states_generated: int = 0
    pruned_by_tau: int = 0
    pruned_by_visited: int = 0
    pruned_by_bound: int = 0
    pruned_by_reach: int = 0
    stale_pops: int = 0
    goals_emitted: int = 0
    max_queue_size: int = 0
    edges_weighted: int = 0
    nodes_touched: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Aggregate stats across sub-queries (for reporting)."""
        return SearchStats(
            expansions=self.expansions + other.expansions,
            states_generated=self.states_generated + other.states_generated,
            pruned_by_tau=self.pruned_by_tau + other.pruned_by_tau,
            pruned_by_visited=self.pruned_by_visited + other.pruned_by_visited,
            pruned_by_bound=self.pruned_by_bound + other.pruned_by_bound,
            pruned_by_reach=self.pruned_by_reach + other.pruned_by_reach,
            stale_pops=self.stale_pops + other.stale_pops,
            goals_emitted=self.goals_emitted + other.goals_emitted,
            max_queue_size=max(self.max_queue_size, other.max_queue_size),
            edges_weighted=self.edges_weighted + other.edges_weighted,
            nodes_touched=self.nodes_touched + other.nodes_touched,
            elapsed_seconds=max(self.elapsed_seconds, other.elapsed_seconds),
        )


@dataclass
class QueryResult:
    """Everything a query run returns.

    ``matches`` are the top-k final matches, best first.  ``approximate``
    is True exactly when a TBQ run's time alert fired and the answer was
    assembled from the goals generated so far (the match set may differ
    from the global optimum); a TBQ run whose TA terminated inside the
    bound is the SGQ answer and says False, with ``time_bound`` still
    recording the bound it ran under.  ``elapsed_seconds`` is the measured
    system response time.

    TA bookkeeping: ``ta_accesses`` counts sorted accesses and
    ``ta_rounds`` the assembly rounds.  ``assembly_seconds`` is the time spent
    inside the TA itself — sorted-access pull time (which for SGQ *is*
    the A* search) is excluded, so ``search_seconds`` +
    ``assembly_seconds`` ≈ ``elapsed_seconds``.
    """

    matches: List[FinalMatch]
    elapsed_seconds: float
    approximate: bool = False
    subquery_stats: List[SearchStats] = field(default_factory=list)
    ta_accesses: int = 0
    ta_rounds: int = 0
    assembly_seconds: float = 0.0
    time_bound: Optional[float] = None

    @property
    def search_seconds(self) -> float:
        """Time outside the TA (decomposition + view + A* search)."""
        return max(self.elapsed_seconds - self.assembly_seconds, 0.0)

    # Search-side counters, aggregated across sub-queries — the queue
    # health of the A* half of the query, surfaced next to the TA
    # bookkeeping so workload reports can split a slow query into
    # search-bound vs assembly-bound without digging into per-sub-query
    # stats.
    @property
    def expansions(self) -> int:
        """A* pop-and-expand iterations across all sub-query searches."""
        return sum(stats.expansions for stats in self.subquery_stats)

    @property
    def pruned_by_tau(self) -> int:
        """Arrivals dropped by the τ estimate bound (Lemma 3)."""
        return sum(stats.pruned_by_tau for stats in self.subquery_stats)

    @property
    def pruned_by_visited(self) -> int:
        """Arrivals dropped by the visited policy (either flavour)."""
        return sum(stats.pruned_by_visited for stats in self.subquery_stats)

    @property
    def pruned_by_reach(self) -> int:
        """Arrivals and seeds dropped by the hop label (no φ-match in reach)."""
        return sum(stats.pruned_by_reach for stats in self.subquery_stats)

    @property
    def stale_pops(self) -> int:
        """EXPAND-policy pops discarded as superseded heap entries."""
        return sum(stats.stale_pops for stats in self.subquery_stats)

    @property
    def max_queue_size(self) -> int:
        """Peak A* frontier size over all sub-query searches."""
        return max(
            (stats.max_queue_size for stats in self.subquery_stats), default=0
        )

    def answer_uids(self) -> List[int]:
        """The answer entities (pivot matches), best first."""
        return [match.pivot_uid for match in self.matches]

    def total_stats(self) -> SearchStats:
        """The per-search counters summed across sub-queries.

        ``edges_weighted`` / ``nodes_touched`` are taken once, not
        summed: they are the query's one view's counters, copied onto
        every sub-query's stats.
        """
        total = SearchStats()
        for stats in self.subquery_stats:
            total = total.merge(stats)
        if self.subquery_stats:
            view = self.subquery_stats[0]
            total.edges_weighted = view.edges_weighted
            total.nodes_touched = view.nodes_touched
        return total


#: SearchStats fields in declaration order: a payload's wire stats row.
_stats_row = attrgetter(*(f.name for f in fields(SearchStats)))


@dataclass(frozen=True)
class QueryResultPayload:
    """A detached, picklable snapshot of one :class:`QueryResult`.

    The request/response boundary of the multiprocess serving backend:
    a worker process cannot hand back anything referencing its live
    engine (views, caches, searches), so it detaches the result into
    this payload — the final matches (``FinalMatch``/``PathMatch``/
    ``Path`` are pure value objects sharing nothing with the engine),
    the per-sub-query :class:`SearchStats` and the TA bookkeeping.  The
    derived counters (``expansions``, ``search_seconds``, …) are not
    stored: :meth:`to_result` recomputes them from ``subquery_stats``,
    so each number crosses the boundary once.

    In memory a payload holds the object form, which is what the answer
    cache stores and re-inflates on a hit without building anything.  It
    *pickles* as builtins only (see :meth:`__reduce__`): tuples of ints,
    floats, strs, bools and ``None`` that :func:`_payload_from_wire`
    turns back into equal value objects.

    :meth:`from_result` / :meth:`to_result` are inverses for everything
    a conformance check compares: matches, scores, component order,
    stats and counters round-trip bit-identically, through ``pickle``
    too.
    """

    matches: Tuple[FinalMatch, ...]
    elapsed_seconds: float
    approximate: bool
    subquery_stats: Tuple[SearchStats, ...]
    ta_accesses: int
    ta_rounds: int
    assembly_seconds: float
    time_bound: Optional[float]

    @classmethod
    def from_result(cls, result: QueryResult) -> "QueryResultPayload":
        return cls(
            matches=tuple(result.matches),
            elapsed_seconds=result.elapsed_seconds,
            approximate=result.approximate,
            subquery_stats=tuple(result.subquery_stats),
            ta_accesses=result.ta_accesses,
            ta_rounds=result.ta_rounds,
            assembly_seconds=result.assembly_seconds,
            time_bound=result.time_bound,
        )

    def to_result(self) -> QueryResult:
        """Reinflate a :class:`QueryResult` (the serving layer's unit)."""
        return QueryResult(
            matches=list(self.matches),
            elapsed_seconds=self.elapsed_seconds,
            approximate=self.approximate,
            subquery_stats=list(self.subquery_stats),
            ta_accesses=self.ta_accesses,
            ta_rounds=self.ta_rounds,
            assembly_seconds=self.assembly_seconds,
            time_bound=self.time_bound,
        )

    def __reduce__(self):
        """Pickle as builtins: what crosses the process seam per request.

        ``steps`` holds every hop of every path, four fields each (edge
        source, predicate, target, forward), in match → component →
        path order.  A final match is ``(pivot, score,
        expected_components, components)`` with its components in
        insertion order, each ``(sub-query index, pivot, pss, path
        start, hop count)``.  A stats row is the :class:`SearchStats`
        fields in declaration order.
        """
        steps: List[object] = []
        finals = []
        for final in self.matches:
            components = []
            for index, match in final.components.items():
                path = match.path
                for step in path.steps:
                    edge = step.edge
                    steps += (edge.source, edge.predicate, edge.target, step.forward)
                components.append(
                    (index, match.pivot_uid, match.pss, path.start, len(path.steps))
                )
            finals.append(
                (final.pivot_uid, final.score, final.expected_components,
                 tuple(components))
            )
        return _payload_from_wire, (
            tuple(steps),
            tuple(finals),
            tuple(map(_stats_row, self.subquery_stats)),
            self.elapsed_seconds,
            self.approximate,
            self.ta_accesses,
            self.ta_rounds,
            self.assembly_seconds,
            self.time_bound,
        )


@lru_cache(maxsize=4096)
def _wire_step(source: int, predicate: str, target: int, forward: bool) -> PathStep:
    """A path step named on the wire, one object per distinct step.

    Steps are immutable values and top-k paths keep walking the same
    edges, so the replies that name a step share one object instead of
    building an ``Edge`` and a ``PathStep`` each time.
    """
    return PathStep(Edge(source, predicate, target), forward)


def _payload_from_wire(
    steps, finals, stats, elapsed, approximate, accesses, rounds, assembly,
    bound,
) -> QueryResultPayload:
    """Rebuild a payload from its pickled form (see ``__reduce__``)."""
    hops = map(_wire_step, steps[0::4], steps[1::4], steps[2::4], steps[3::4])
    matches = []
    for pivot, score, expected, components in finals:
        built = {}
        for index, match_pivot, pss, start, count in components:
            path = Path(start, tuple(islice(hops, count)))
            built[index] = PathMatch(index, path, match_pivot, pss)
        matches.append(FinalMatch(pivot, built, score, expected))
    return QueryResultPayload(
        tuple(matches),
        elapsed,
        approximate,
        tuple(SearchStats(*row) for row in stats),
        accesses,
        rounds,
        assembly,
        bound,
    )
