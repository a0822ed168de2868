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

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.assembly import (
    ASSEMBLY_KERNELS,
    AssemblyResult,
    MatchStream,
    assemble_top_k,
)
from repro.core.astar import SEARCH_KERNELS, SubQuerySearch, build_subquery_search
from repro.core.compact_view import CompactViewFactory, ViewFactory, lazy_view_factory
from repro.core.config import SearchConfig
from repro.core.results import FinalMatch, QueryResult
from repro.core.semantic_graph import SemanticGraphView, WeightCache, WeightedGraphView
from repro.core.time_bounded import TimeBoundedCoordinator
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import SearchError
from repro.kg.compact import (
    CompactGraph,
    CompactGraphHandle,
    CompactKnowledgeGraph,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.sharded import (
    ShardedGraph,
    ShardedGraphHandle,
    ShardedKnowledgeGraph,
    ShardedViewFactory,
)
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


@dataclass(frozen=True)
class EngineSpec:
    """A frozen, picklable description of one engine configuration.

    The construction half of the engine split: everything
    :func:`build_engine` needs to bootstrap a
    :class:`SemanticGraphQueryEngine` in another process — the graph, the
    predicate space, the transformation library, the search config, and
    the kernel/view flags — with **no** live runtime state (no weight
    cache, no worker pool, no view factory closures).  A
    ``ProcessPoolExecutor`` worker unpickles one spec in its initializer,
    builds its engine once, and serves every subsequent request from it.

    ``compact_graph`` optionally carries the pre-frozen CSR kernel so a
    worker does not redo the O(V+E) freeze; on unpickle the snapshot's
    source-graph reference is dropped (``CompactGraph.__setstate__``) and
    the view factory keeps it as long as its counts still match ``kg``.

    ``graph_handle`` is the zero-copy alternative: a
    :class:`~repro.kg.compact.CompactGraphHandle` naming a shared-memory
    segment published by the service process
    (``QueryService.build(shared_graph=True)``).  A spec carrying a
    handle may drop ``kg`` entirely — workers attach the segment and
    serve the graph API through a
    :class:`~repro.kg.compact.CompactKnowledgeGraph` facade, so the spec
    pickle is O(metadata) instead of O(graph).  ``compact_graph`` and
    ``graph_handle`` are mutually exclusive (arrays by value vs by
    reference).

    ``sharded_graph`` / ``sharded_handle`` are the entity-partitioned
    equivalents (:mod:`repro.kg.sharded`): N per-shard kernels by value,
    or one O(metadata) :class:`~repro.kg.sharded.ShardedGraphHandle`
    naming N shared segments.  Mutually exclusive with
    ``compact_graph``/``graph_handle`` — one spec describes one store —
    and served through a
    :class:`~repro.kg.sharded.ShardedKnowledgeGraph` facade plus a
    rank-merging :class:`~repro.kg.sharded.ShardedGraphView` when ``kg``
    is absent.  ``shard_fanout`` picks the per-shard gather schedule
    (``"inline"`` or ``"pool"``); results are bit-identical either way.

    ``fault_plan`` optionally carries a picklable chaos-injection plan
    (see :class:`repro.serve.faults.FaultPlan`) to the worker
    initializer.  It is deliberately untyped here: the core layer never
    interprets it (a typed field would pull a serve import into core),
    it only rides along so deterministic fault injection reaches process
    workers through the same vehicle as the engine description.

    Everything here must stay picklable: ``KnowledgeGraph`` is plain
    dataclasses and dicts, ``PredicateSpace`` drops its lock on pickle,
    ``CompactGraph`` ships only its numeric tables, and a handle ships
    only segment names and column manifests.
    """

    kg: Optional[KnowledgeGraph]
    space: PredicateSpace
    library: Optional[TransformationLibrary] = None
    config: Optional[SearchConfig] = None
    compact: bool = False
    assembly_kernel: str = "vectorized"
    search_kernel: str = "auto"
    compact_graph: Optional[CompactGraph] = None
    graph_handle: Optional[CompactGraphHandle] = None
    sharded_graph: Optional[ShardedGraph] = None
    sharded_handle: Optional[ShardedGraphHandle] = None
    shard_fanout: str = "inline"
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.assembly_kernel not in ASSEMBLY_KERNELS:
            raise SearchError(
                f"unknown assembly kernel {self.assembly_kernel!r} "
                f"(expected one of {ASSEMBLY_KERNELS})"
            )
        if self.search_kernel not in SEARCH_KERNELS:
            raise SearchError(
                f"unknown search kernel {self.search_kernel!r} "
                f"(expected one of {SEARCH_KERNELS})"
            )
        if self.compact_graph is not None and not self.compact:
            raise SearchError("compact_graph requires compact=True")
        if self.graph_handle is not None and not self.compact:
            raise SearchError("graph_handle requires compact=True")
        if self.graph_handle is not None and self.compact_graph is not None:
            raise SearchError(
                "pass either compact_graph (arrays by value) or "
                "graph_handle (arrays by shared-memory reference), not both"
            )
        if self.sharded_graph is not None and not self.compact:
            raise SearchError("sharded_graph requires compact=True")
        if self.sharded_handle is not None and not self.compact:
            raise SearchError("sharded_handle requires compact=True")
        if self.sharded_graph is not None and self.sharded_handle is not None:
            raise SearchError(
                "pass either sharded_graph (arrays by value) or "
                "sharded_handle (arrays by shared-memory reference), not both"
            )
        sharded = self.sharded_graph is not None or self.sharded_handle is not None
        if sharded and (
            self.compact_graph is not None or self.graph_handle is not None
        ):
            raise SearchError(
                "sharded_graph/sharded_handle are mutually exclusive with "
                "compact_graph/graph_handle — one spec describes one store"
            )
        if self.shard_fanout not in ("inline", "pool"):
            raise SearchError(
                f"unknown shard_fanout {self.shard_fanout!r} "
                "(expected 'inline' or 'pool')"
            )
        if (
            self.kg is None
            and self.graph_handle is None
            and self.sharded_graph is None
            and self.sharded_handle is None
        ):
            raise SearchError(
                "a spec without kg needs a graph_handle (or a sharded "
                "graph/handle) to rebuild the graph surface from"
            )
        if self.search_kernel == "vectorized" and sharded:
            raise SearchError(
                "search_kernel='vectorized' needs a single compact CSR; "
                "the sharded view fans out across shards and only feeds "
                "the reference kernel (use search_kernel='auto')"
            )
        if self.search_kernel == "vectorized" and not self.compact:
            raise SearchError(
                "search_kernel='vectorized' needs compact views; set "
                "compact=True on the spec"
            )

    def build(self, *, weight_cache: Optional[WeightCache] = None
              ) -> "SemanticGraphQueryEngine":
        """Alias of :func:`build_engine` for fluent call sites."""
        return build_engine(self, weight_cache=weight_cache)


def build_engine(
    spec: EngineSpec, *, weight_cache: Optional[WeightCache] = None
) -> "SemanticGraphQueryEngine":
    """Materialise the engine an :class:`EngineSpec` describes.

    ``weight_cache`` is deliberately *not* part of the spec — it is
    per-process runtime state; a multiprocess worker passes its own
    private cache here.  When the spec carries a pre-frozen
    ``compact_graph`` the engine is wired through a
    :class:`~repro.core.compact_view.CompactViewFactory` holding that
    snapshot instead of re-freezing.  When it carries a ``graph_handle``
    the kernel is *attached* from shared memory (zero-copy, O(metadata))
    and — absent an explicit ``kg`` — the graph API is served by a
    :class:`~repro.kg.compact.CompactKnowledgeGraph` facade over the
    shared columns.
    """
    if spec.sharded_graph is not None or spec.sharded_handle is not None:
        sharded = (
            spec.sharded_graph
            if spec.sharded_graph is not None
            else ShardedGraph.from_handle(spec.sharded_handle)
        )
        kg = spec.kg if spec.kg is not None else ShardedKnowledgeGraph(sharded)
        engine = SemanticGraphQueryEngine(
            kg,
            spec.space,
            spec.library,
            spec.config,
            weight_cache=weight_cache,
            view_factory=ShardedViewFactory(sharded, fanout=spec.shard_fanout),
            assembly_kernel=spec.assembly_kernel,
            search_kernel=spec.search_kernel,
        )
        engine._compact = True
        engine._spec = spec
        return engine
    if spec.graph_handle is not None:
        attached = CompactGraph.from_handle(spec.graph_handle)
        kg = spec.kg if spec.kg is not None else CompactKnowledgeGraph(attached)
        engine = SemanticGraphQueryEngine(
            kg,
            spec.space,
            spec.library,
            spec.config,
            weight_cache=weight_cache,
            view_factory=CompactViewFactory(attached),
            assembly_kernel=spec.assembly_kernel,
            search_kernel=spec.search_kernel,
        )
        engine._compact = True
    elif spec.compact and spec.compact_graph is not None:
        engine = SemanticGraphQueryEngine(
            spec.kg,
            spec.space,
            spec.library,
            spec.config,
            weight_cache=weight_cache,
            view_factory=CompactViewFactory(spec.compact_graph),
            assembly_kernel=spec.assembly_kernel,
            search_kernel=spec.search_kernel,
        )
        engine._compact = True
    else:
        engine = SemanticGraphQueryEngine(
            spec.kg,
            spec.space,
            spec.library,
            spec.config,
            weight_cache=weight_cache,
            compact=spec.compact,
            assembly_kernel=spec.assembly_kernel,
            search_kernel=spec.search_kernel,
        )
    engine._spec = spec
    return engine


class SemanticGraphQueryEngine:
    """Top-k semantic similarity search over one knowledge graph.

    Args:
        kg: the knowledge graph to query.
        space: predicate semantic space (trained embedding or oracle).
        library: synonym/abbreviation transformation library for node
            matching; ``None`` allows identical matches only.
        config: search configuration (paper defaults when omitted).
        weight_cache: optional cross-query
            :class:`~repro.core.semantic_graph.WeightCache` (e.g. the
            serving layer's ``SemanticGraphCache``).  When set, every
            query's view is backed by it, so repeated queries stop
            re-weighting the same knowledge-graph edges; when ``None``
            each query builds a private view, the paper's one-shot
            behaviour.
        view_factory: the view-construction seam — a callable
            ``(kg, space, *, min_weight, cache) -> WeightedGraphView``.
            Default builds the paper's lazy :class:`SemanticGraphView`.
        compact: convenience flag: build views over the frozen CSR kernel
            (:class:`~repro.core.compact_view.CompactViewFactory`), which
            vectorises weight materialisation and ``m(u)`` bounds.
            Results are identical to the lazy view; only cost changes.
            Mutually exclusive with ``view_factory``.
        assembly_kernel: TA assembly implementation — ``"vectorized"``
            (default; the incremental numpy kernel,
            :mod:`repro.core.assembly_kernel`) or ``"reference"`` (the
            pure-Python Eq. 8-11 transcription).  Results are identical;
            only assembly cost changes.
        search_kernel: per-sub-query A* implementation — ``"auto"``
            (default: the array-backed
            :mod:`repro.core.search_kernel` whenever the query view
            exposes the compact CSR surface, the reference search
            otherwise), ``"vectorized"`` (force the array kernel;
            raises on views that cannot feed it) or ``"reference"``
            (the Algorithm 1 transcription, :mod:`repro.core.astar`).
            Results are identical; only search cost changes.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateSpace,
        library: Optional[TransformationLibrary] = None,
        config: Optional[SearchConfig] = None,
        *,
        weight_cache: Optional[WeightCache] = None,
        view_factory: Optional[ViewFactory] = None,
        compact: bool = False,
        assembly_kernel: str = "vectorized",
        search_kernel: str = "auto",
    ):
        if compact and view_factory is not None:
            raise SearchError("pass either compact=True or view_factory, not both")
        if assembly_kernel not in ASSEMBLY_KERNELS:
            raise SearchError(
                f"unknown assembly kernel {assembly_kernel!r} "
                f"(expected one of {ASSEMBLY_KERNELS})"
            )
        if search_kernel not in SEARCH_KERNELS:
            raise SearchError(
                f"unknown search kernel {search_kernel!r} "
                f"(expected one of {SEARCH_KERNELS})"
            )
        if search_kernel == "vectorized" and not compact and view_factory is None:
            # Statically knowable misconfiguration: the default lazy view
            # can never feed the vectorized kernel, so fail at
            # construction rather than on every query.  A custom
            # view_factory is checked per query (it may produce compact
            # views).
            raise SearchError(
                "search_kernel='vectorized' needs compact views; pass "
                "compact=True (or a view_factory producing compact views)"
            )
        self.assembly_kernel = assembly_kernel
        self.search_kernel = search_kernel
        self.kg = kg
        self.space = space
        self.library = library
        self.config = config if config is not None else SearchConfig()
        self.matcher = NodeMatcher(kg, library)
        self.weight_cache = weight_cache
        self._compact = compact
        self._custom_view_factory = view_factory is not None
        self._spec: Optional[EngineSpec] = None
        if compact:
            # Freeze eagerly: construction is the predictable place to
            # pay the O(V+E) snapshot, not the first query's latency.
            self.view_factory: ViewFactory = CompactViewFactory(
                CompactGraph.freeze(kg)
            )
        else:
            self.view_factory = view_factory or lazy_view_factory

    def to_spec(self) -> EngineSpec:
        """The :class:`EngineSpec` this engine could be rebuilt from.

        Engines built by :func:`build_engine` return their originating
        spec; directly constructed engines derive one (including the
        already-frozen compact kernel, so workers skip the re-freeze).
        An engine wired through a *custom* ``view_factory`` has no
        picklable description and raises.
        """
        if self._spec is not None:
            spec = self._spec
            if (
                spec.compact
                and spec.compact_graph is None
                and spec.graph_handle is None
                and isinstance(self.view_factory, CompactViewFactory)
                and self.view_factory.frozen_graph is not None
            ):
                # The originating spec predates the freeze; graft the
                # kernel on so shipped workers skip redoing it.
                spec = dataclasses.replace(
                    spec, compact_graph=self.view_factory.frozen_graph
                )
                self._spec = spec
            return spec
        if self._custom_view_factory:
            raise SearchError(
                "an engine built on a custom view_factory cannot be "
                "described by an EngineSpec (the factory may close over "
                "unpicklable state); construct via EngineSpec/build_engine "
                "or use compact=True instead"
            )
        compact_graph = None
        if self._compact and isinstance(self.view_factory, CompactViewFactory):
            compact_graph = self.view_factory.frozen_graph
        spec = EngineSpec(
            kg=self.kg,
            space=self.space,
            library=self.library,
            config=self.config,
            compact=self._compact,
            assembly_kernel=self.assembly_kernel,
            search_kernel=self.search_kernel,
            compact_graph=compact_graph,
        )
        self._spec = spec
        return spec

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
            ta_truncated=assembly.truncated,
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
