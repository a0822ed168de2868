"""The SGQ / TBQ query engine — the paper's Fig. 5 pipeline, online half.

Wires together decomposition (Section III-A), the on-demand semantic graph
(Section IV-B), per-sub-query A* semantic search (Section V-B), TA final-
match assembly (Section V-C) and the time-bounded approximate mode
(Section VI) behind two calls:

    engine = SemanticGraphQueryEngine(kg, predicate_space, library)
    result = engine.search(query, k=100)                      # SGQ
    result = engine.search_time_bounded(query, k=100, T=0.05) # TBQ

The SGQ path is fully lazy: TA sorted access pulls matches straight out of
the still-running A* searches, which realises the paper's "repeat the A*
semantic search for each g_i until sufficient final matches are returned"
without guessing how many matches each sub-query must contribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union, get_args

from repro.core.assembly import AssemblyResult, MatchStream, assemble_top_k
from repro.core.astar import SubQuerySearch, build_subquery_search
from repro.core.compact_view import CompactViewFactory, LazyViewFactory, ViewFactory
from repro.core.config import SearchConfig
from repro.core.results import FinalMatch, QueryResult
from repro.core.semantic_graph import SemanticGraphView, WeightCache, WeightedGraphView
from repro.core.time_bounded import TimeBoundedCoordinator
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import SearchError
from repro.kg.compact import CompactGraph, CompactGraphHandle, FrozenGraphReader
from repro.kg.graph import GraphReader, KnowledgeGraph
from repro.kg.sharded import ShardedGraph, ShardedViewFactory
from repro.query.decompose import Decomposition, decompose_query
from repro.query.model import QueryGraph
from repro.query.transform import NodeMatcher, TransformationLibrary
from repro.utils.timing import Clock, Stopwatch


class _PullTimer:
    """Accumulates wall time spent inside sorted-access pulls.

    For SGQ the TA's sorted access *is* the A* search, so the engine
    subtracts pull time from the assembly wall time to report an honest
    search-vs-assembly split (``QueryResult.assembly_seconds``).
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, pull: Callable) -> Callable:
        def timed():
            started = time.perf_counter()
            try:
                return pull()
            finally:
                self.seconds += time.perf_counter() - started

        return timed


def _materialise_paths(
    matches: List[FinalMatch], searches: List[SubQuerySearch]
) -> None:
    """Swap every returned component for its path-carrying ``PathMatch``.

    The array-backed kernel emits path-less pending matches (sub-query
    ``i``'s matches come from ``searches[i]``); building paths here, for
    the final top-k only, keeps every match TA assembly merely looked at
    path-free — and leaves nothing in the result that refers back to a
    search's state pool.
    """
    for final in matches:
        for index, component in final.components.items():
            final.components[index] = searches[index].materialise(component)


#: What an :class:`EngineSpec` can be built over — the type *is* the
#: choice of view: a frozen ``CompactGraph`` (by value, or by shared-memory
#: handle) is served through the CSR kernel, a ``ShardedGraph`` (by value
#: only) through the rank-merged fan-out view.  The paper's lazy view is
#: the test oracle: ``SemanticGraphQueryEngine(kg, ...)`` freezes ``kg``
#: and builds it directly, never from a spec.
GraphStore = Union[CompactGraph, CompactGraphHandle, ShardedGraph]


@dataclass(frozen=True)
class EngineSpec:
    """A frozen, picklable description of one engine over one graph store.

    The construction half of the engine split: everything
    :func:`build_engine` needs to bootstrap a
    :class:`SemanticGraphQueryEngine` in another process — the store, the
    predicate space, the transformation library and the search config —
    with **no** live runtime state (no weight cache, no worker pool, no
    view factory closures).  A process-backend worker unpickles one spec
    as it starts, builds its engine once, and serves every subsequent
    request from it.

    ``store`` is exactly one :data:`GraphStore`, a frozen store by value
    or by shared-memory handle, and the only graph the engine reads —
    entities and edges alike (see :func:`build_engine`).  A handle (what
    a process-backend :class:`~repro.serve.service.QueryService` ships
    its workers) makes the spec pickle O(metadata) instead of O(graph):
    workers attach the one segment zero-copy.  A lazy-view engine has no
    spec.

    ``fault_plan`` optionally carries a picklable chaos-injection plan
    (see :class:`repro.serve.faults.FaultPlan`) to the worker
    initializer.  It is deliberately untyped here: the core layer never
    interprets it (a typed field would pull a serve import into core),
    it only rides along so deterministic fault injection reaches process
    workers through the same vehicle as the engine description.

    Everything here must stay picklable: ``PredicateSpace`` drops its
    lock on pickle, a frozen store ships only its numeric tables, and a
    handle ships only a segment name and its column manifest.
    """

    store: GraphStore
    space: PredicateSpace
    library: Optional[TransformationLibrary] = None
    config: Optional[SearchConfig] = None
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if not isinstance(self.store, get_args(GraphStore)):
            raise SearchError(
                "an EngineSpec store must be a CompactGraph, its "
                "shared-memory handle or a ShardedGraph, got "
                f"{type(self.store).__name__}"
            )


def build_engine(
    spec: EngineSpec, *, weight_cache: Optional[WeightCache] = None
) -> "SemanticGraphQueryEngine":
    """Materialise the engine an :class:`EngineSpec` describes.

    ``weight_cache`` is deliberately *not* part of the spec — it is
    per-process runtime state; a multiprocess worker passes its own
    private cache here.  A handle store is *attached* from shared memory
    (zero-copy, O(metadata)).  Every engine reads only its store: edges
    through the store's view factory, entities through a
    :class:`~repro.kg.compact.FrozenGraphReader` — so an engine built in
    the caller's process, a process worker and a sharded engine answer
    from the same snapshot, whatever happens to the source graph after
    the freeze.
    """
    store = spec.store
    if isinstance(store, CompactGraphHandle):
        store = CompactGraph.from_handle(store)
    if isinstance(store, CompactGraph):
        view_factory = CompactViewFactory(store)
    else:
        view_factory = ShardedViewFactory(store)
    return SemanticGraphQueryEngine(
        FrozenGraphReader(store),
        spec.space,
        spec.library,
        spec.config,
        weight_cache=weight_cache,
        view_factory=view_factory,
    )


class SemanticGraphQueryEngine:
    """Top-k semantic similarity search over one knowledge graph.

    Args:
        kg: the knowledge graph to query: a ``KnowledgeGraph``, frozen
            once here, whose snapshot the engine then reads alone — or,
            with a ``view_factory``, any
            :class:`~repro.kg.graph.GraphReader` of the factory's store.
        space: predicate semantic space (trained embedding or oracle).
        library: synonym/abbreviation transformation library for node
            matching; ``None`` allows identical matches only.
        config: search configuration (paper defaults when omitted).
        weight_cache: optional cross-query
            :class:`~repro.core.semantic_graph.WeightCache` (e.g. the
            serving layer's ``SemanticGraphCache``).  When set, every
            query's view shares whole-graph rows through it, so
            repeated queries stop re-deriving the same weight, ``m(u)``
            and hop-label rows (the lazy view computes only the last
            kind); when ``None`` each query builds a private view, the
            paper's one-shot behaviour.
        view_factory: the view-construction seam — a callable
            ``(kg, space, *, min_weight, cache) -> WeightedGraphView``.
            Default builds the paper's lazy :class:`SemanticGraphView`,
            the oracle, over the engine's own freeze; :func:`build_engine`
            wires the frozen stores' factories (same results, only cost
            changes).
        assembly_kernel / search_kernel: the oracle seam.  Production is
            ``"vectorized"`` TA assembly plus ``"auto"`` A* (the
            array-backed :mod:`repro.core.search_kernel` on every view
            exposing the compact CSR surface under the paper's
            configuration, the Algorithm 1 transcription otherwise — so
            an ablation ``config`` always searches on the transcription);
            ``"reference"`` selects the pure-Python transcriptions the
            conformance suites and golden passes compare against,
            ``search_kernel="vectorized"`` forces the array kernel and
            raises on an ablation.  Results are identical; only cost
            changes.
            The names are validated where they are dispatched
            (:func:`~repro.core.assembly.assemble_top_k`,
            :func:`~repro.core.astar.build_subquery_search`), i.e. on
            the first query.
    """

    def __init__(
        self,
        kg: GraphReader,
        space: PredicateSpace,
        library: Optional[TransformationLibrary] = None,
        config: Optional[SearchConfig] = None,
        *,
        weight_cache: Optional[WeightCache] = None,
        view_factory: Optional[ViewFactory] = None,
        assembly_kernel: str = "vectorized",
        search_kernel: str = "auto",
    ):
        if view_factory is None:
            if not isinstance(kg, KnowledgeGraph):
                raise SearchError(
                    "the default engine freezes a KnowledgeGraph; a frozen "
                    "store is served through its view factory (got "
                    f"{type(kg).__name__} and no view_factory)"
                )
            store = CompactGraph.freeze(kg)
            kg = FrozenGraphReader(store)
            view_factory = LazyViewFactory(store)
        self.assembly_kernel = assembly_kernel
        self.search_kernel = search_kernel
        self.kg = kg
        self.space = space
        self.library = library
        self.config = config if config is not None else SearchConfig()
        self.matcher = NodeMatcher(kg, library)
        self.weight_cache = weight_cache
        self.view_factory: ViewFactory = view_factory

    def _make_view(self) -> WeightedGraphView:
        """A per-query ``SG_Q`` view, shared-cache-backed when configured."""
        return self.view_factory(
            self.kg,
            self.space,
            min_weight=self.config.min_weight,
            cache=self.weight_cache,
        )

    # ------------------------------------------------------------------
    def decompose(
        self,
        query: QueryGraph,
        *,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        seed: int = 0,
    ) -> Decomposition:
        """Decompose a query around a pivot (Eq. 1's minCost by default)."""
        return decompose_query(
            query,
            kg=self.kg,
            matcher=self.matcher,
            strategy=strategy,
            pivot=pivot,
            path_bound=self.config.path_bound,
            seed=seed,
        )

    def _build_searches(
        self,
        decomposition: Decomposition,
        view: WeightedGraphView,
        clock: Optional[Clock] = None,
        budget: Optional[TimeBoundedCoordinator] = None,
    ) -> List[SubQuerySearch]:
        return [
            build_subquery_search(
                view,
                subquery,
                self.matcher,
                self.config,
                subquery_index=index,
                clock=clock,
                kernel=self.search_kernel,
                budget=budget,
            )
            for index, subquery in enumerate(decomposition.subqueries)
        ]

    def _pull_top_k(
        self, searches: List[SubQuerySearch], k: int, exhaustive: bool = False
    ) -> Tuple[AssemblyResult, float]:
        """Lazy TA over the still-running searches — the whole of SGQ.

        Returns the assembly and the seconds spent inside the TA itself
        (sorted-access pull time, which *is* the A* search, subtracted).
        """
        pull_timer = _PullTimer()
        streams = [
            MatchStream(pull_timer.wrap(search.next_match)) for search in searches
        ]
        started = time.perf_counter()
        assembly = assemble_top_k(
            streams, k, exhaustive=exhaustive, kernel=self.assembly_kernel
        )
        seconds = time.perf_counter() - started - pull_timer.seconds
        return assembly, max(seconds, 0.0)

    def _result(
        self,
        watch: Stopwatch,
        view: WeightedGraphView,
        searches: List[SubQuerySearch],
        assembly: AssemblyResult,
        assembly_seconds: float,
        approximate: bool = False,
        time_bound: Optional[float] = None,
    ) -> QueryResult:
        _materialise_paths(assembly.matches, searches)
        for search in searches:
            # getattr: the stats attributes are view extras, not part of
            # the WeightedGraphView protocol a custom view_factory must
            # satisfy — a minimal view just reports zeros.
            search.stats.nodes_touched = getattr(view, "touched_nodes", 0)
            search.stats.edges_weighted = getattr(view, "edges_weighted", 0)
        return QueryResult(
            matches=assembly.matches,
            elapsed_seconds=watch.elapsed(),
            approximate=approximate,
            subquery_stats=[search.stats for search in searches],
            ta_accesses=assembly.accesses,
            ta_rounds=assembly.rounds,
            assembly_seconds=assembly_seconds,
            time_bound=time_bound,
        )

    # ------------------------------------------------------------------
    def search(
        self,
        query: QueryGraph,
        k: int = 10,
        *,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        decomposition: Optional[Decomposition] = None,
        exhaustive_assembly: bool = False,
    ) -> QueryResult:
        """SGQ: globally optimal top-k matches (Problem 1 / Eq. 3).

        Args:
            query: the query graph.
            k: number of final matches.
            pivot: force a pivot node label (Table V experiments).
            strategy: pivot-selection strategy when ``pivot`` is ``None``.
            decomposition: reuse a precomputed decomposition.
            exhaustive_assembly: ablation switch disabling TA early
                termination.
        """
        if k < 1:
            raise SearchError("k must be at least 1")
        watch = Stopwatch()
        if decomposition is None:
            decomposition = self.decompose(query, pivot=pivot, strategy=strategy)
        view = self._make_view()
        searches = self._build_searches(decomposition, view)
        assembly, assembly_seconds = self._pull_top_k(
            searches, k, exhaustive_assembly
        )
        return self._result(watch, view, searches, assembly, assembly_seconds)

    # ------------------------------------------------------------------
    def search_time_bounded(
        self,
        query: QueryGraph,
        k: int = 10,
        *,
        time_bound: float,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        decomposition: Optional[Decomposition] = None,
        clock: Optional[Clock] = None,
        check_interval: int = 8,
    ) -> QueryResult:
        """TBQ: top-k within ``time_bound`` seconds (Problem 2).

        Runs :meth:`search`'s lazy TA under Algorithm 3's budget.  If the
        TA certifies the top-k first, the result *is* :meth:`search`'s
        (``approximate=False``) and no time past the certificate is
        spent; if the time alert fires first, the goals generated so far
        (M̂) are assembled with the same TA and the result is flagged
        ``approximate=True``.  Given enough time the first case always
        wins (Theorem 4).
        """
        if k < 1:
            raise SearchError("k must be at least 1")
        watch = Stopwatch()
        coordinator = TimeBoundedCoordinator(
            time_bound, self.config, clock=clock, check_interval=check_interval
        )
        if decomposition is None:
            decomposition = self.decompose(query, pivot=pivot, strategy=strategy)
        view = self._make_view()
        searches = self._build_searches(
            decomposition, view, clock=coordinator.clock, budget=coordinator
        )
        outcome = coordinator.run(searches, lambda: self._pull_top_k(searches, k))
        if outcome.stopped_by_time:
            # The M̂ replay (sort + TA) is wholly assembly work.
            started = time.perf_counter()
            assembly = assemble_top_k(
                [MatchStream.from_list(harvest) for harvest in outcome.harvests],
                k,
                kernel=self.assembly_kernel,
            )
            assembly_seconds = time.perf_counter() - started
        else:
            assembly, assembly_seconds = outcome.answer
        return self._result(
            watch,
            view,
            searches,
            assembly,
            assembly_seconds,
            approximate=outcome.stopped_by_time,
            time_bound=time_bound,
        )
