"""A* semantic search over the partially-materialised semantic graph
(Algorithm 1 of the paper, Section V-B).

The search finds, for one sub-query graph ``g_i = v^s … v^t``, the paths in
the knowledge graph with the greatest path semantic similarity, in
descending pss order, expanding the semantic graph on demand.

**Generalisation to multi-edge sub-queries.**  The paper presents
Algorithm 1 for a single query edge; sub-queries like ``g2 = <v4-e3-v3-e2-
v1>`` (Example 2) carry several.  We search a *layered* state space
``(knowledge-graph node, segment)`` where ``segment`` counts the query
edges already fully matched: within segment ``s`` edges are weighted
against the predicate of query edge ``s``; arriving at a φ-match of the
next query node *may* close the segment (the arrival spawns both the
advanced and the continuing state, so a node that incidentally matches an
intermediate query node does not truncate deeper matches).  Each query
edge may expand to at most n̂ knowledge-graph hops, matching the paper's
edge-to-path semantics, so a full match has at most ``N̂ = m·n̂`` hops and
the Eq. 7 estimate uses ``N̂`` as its root.

**Resumability.**  Section V-C notes the engine "repeats the A* semantic
search for each g_i until sufficient final matches are returned"; the
implementation therefore exposes a pull interface (:meth:`next_match`)
that keeps queue state between calls — the TA assembler's sorted access
drives it lazily.

**Visited policy.**  ``GENERATE`` marks states visited when first pushed —
Algorithm 1, line 6, verbatim.  ``EXPAND`` is the textbook A* closed list
with re-opening, which makes Theorem 2's optimality unconditional even on
adversarial weight layouts; the ablation bench quantifies the (tiny)
difference.  Under both policies each emitted match ends at a distinct
pivot entity, which is what TA assembly joins on.

**Reach prune.**  Eq. 7 knows how *good* a continuation could be and
nothing about whether one *exists*.  When the view offers a
``hop_label`` (``d_s[u]``: hops from ``u`` to the nearest φ-match of the
node closing segment ``s``, at least 1), a continuing arrival at ``v``
with ``h'`` hops spent in segment ``s`` is dropped when ``h' + d_s[v] >
n̂``, and an advance into segment ``s + 1`` or a seed when its label
exceeds ``n̂`` — before its estimate is computed, counted in
``SearchStats.pruned_by_reach``.  Under ``EXPAND`` this only deletes
work: a dropped state has no goal descendant; deadness is a function of
``(uid, segment, hops_in_segment)``, all part of the closed-set key, so
two states sharing a key are both dead or both live and a dead state can
only have closed a key for (or made stale) other dead states; and the
heap breaks ties on a monotone insertion counter, so deleting insertions
keeps the relative order of the rest.  Goal emission order, every pss,
``generated_goals`` and every TA round and access are therefore those of
the unpruned search; only ``expansions`` / ``states_generated`` /
``stale_pops`` / ``max_queue_size`` and the ``pruned_by_*`` split fall.
Under ``GENERATE`` a dead arrival marks ``(u, segment)`` visited and
blocks later live ones, so dropping it would change Algorithm 1's
literal output (and not monotonically); that policy runs unpruned.  The
array kernel serves geometric scoring under ``EXPAND`` only and makes
this search's decisions there, reach prune included; every other
configuration runs here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.pss import estimate_pss, exact_pss_from_log, log_weight
from repro.core.results import PathMatch, SearchStats
from repro.core.semantic_graph import WeightedGraphView
from repro.errors import SearchError
from repro.kg.paths import Path, PathStep
from repro.query.model import SubQueryGraph
from repro.query.transform import NodeMatcher
from repro.utils.heap import MaxHeap
from repro.utils.timing import Clock, Stopwatch, WallClock

#: Valid ``kernel=`` names for the per-sub-query search, owned here (the
#: dispatch point) the way ``assembly.ASSEMBLY_KERNELS`` owns the TA
#: kernel names.  ``"auto"`` resolves per view and configuration: the
#: vectorized kernel when the view exposes the compact CSR surface and
#: the configuration is the paper's, the reference search otherwise.
SEARCH_KERNELS = ("auto", "vectorized", "reference")


def build_subquery_search(
    view: WeightedGraphView,
    subquery: SubQueryGraph,
    matcher: NodeMatcher,
    config: SearchConfig,
    subquery_index: int = 0,
    clock: Optional[Clock] = None,
    *,
    kernel: str = "auto",
    budget=None,
):
    """Construct the A* search for one sub-query behind the kernel seam.

    ``kernel="reference"`` always builds :class:`SubQuerySearch` (the
    Algorithm 1 transcription below), which serves every configuration;
    ``"vectorized"`` builds the array-backed
    :class:`~repro.core.search_kernel.VectorizedSubQuerySearch` and raises
    when the view cannot feed it or the configuration is an ablation
    (``config.ablated_fields()``); ``"auto"`` (the default) picks the
    vectorized kernel exactly when it could be built.  Where both can
    run they are decision-identical — same matches, same pss, same
    emission order, same search stats, same reach prune — so the choice
    only moves cost.
    ``budget`` is TBQ's :class:`~repro.core.time_bounded.
    TimeBoundedCoordinator`, charged once per expansion; ``None`` (SGQ)
    searches unbudgeted.
    """
    if kernel not in SEARCH_KERNELS:
        raise SearchError(
            f"unknown search kernel {kernel!r} (expected one of {SEARCH_KERNELS})"
        )
    if kernel != "reference":
        from repro.core.search_kernel import (
            VectorizedSubQuerySearch,
            supports_vectorized_search,
        )

        compact = supports_vectorized_search(view)
        if kernel == "vectorized" and not compact:
            raise SearchError(
                "search kernel 'vectorized' needs a compact view exposing "
                "the CSR surface (graph / weight_row_array / "
                "bounds_row_array and their log twins / hop_label); "
                f"{type(view).__name__} does not — build the engine "
                "over a frozen store (build_engine) or pass kernel='auto'"
            )
        # Forced, an ablation config raises in the constructor.
        if kernel == "vectorized" or (compact and not config.ablated_fields()):
            return VectorizedSubQuerySearch(
                view, subquery, matcher, config, subquery_index, clock, budget
            )
    return SubQuerySearch(
        view, subquery, matcher, config, subquery_index, clock, budget
    )


@dataclass
class _State:
    """One partial path ``u^s … u_i`` plus its segment bookkeeping."""

    uid: int
    segment: int
    hops_total: int
    hops_in_segment: int
    log_product: float
    weight_sum: float
    parent: Optional["_State"]
    step: Optional[PathStep]
    priority: float = 0.0

    def key(self) -> Tuple[int, int]:
        """Coarse state identity — the paper's visited-set granularity."""
        return (self.uid, self.segment)

    def fine_key(self) -> Tuple[int, int, int, int]:
        """Exact state identity for the EXPAND policy's closed set.

        Hop counts are part of the state: the geometric-mean pss of a goal
        depends on both the weight product *and* the path length, so a
        shorter path with a smaller product is not dominated by a longer
        one with a larger product — pruning on log-product alone would be
        unsound.
        """
        return (self.uid, self.segment, self.hops_total, self.hops_in_segment)

    def to_path(self) -> Path:
        steps: List[PathStep] = []
        state: Optional[_State] = self
        while state is not None and state.step is not None:
            steps.append(state.step)
            state = state.parent
        steps.reverse()
        start = state.uid if state is not None else self.uid
        return Path(start=start, steps=tuple(steps))

    def visits(self, uid: int) -> bool:
        """Whether ``uid`` already lies on this partial path.

        Matches are *simple* paths: revisiting a node would let the
        geometric mean be inflated by bouncing over one good edge
        (Germany → Audi → Germany → …), which is never a meaningful
        match.  The check walks the parent chain (≤ N̂ nodes).
        """
        state: Optional[_State] = self
        while state is not None:
            if state.uid == uid:
                return True
            state = state.parent
        return False


class SubQuerySearch:
    """A* semantic search for one sub-query graph (Algorithm 1).

    Args:
        view: shared semantic-graph view — anything satisfying
            :class:`~repro.core.semantic_graph.WeightedGraphView`; in
            practice a :class:`~repro.core.semantic_graph.SemanticGraphView`,
            optionally backed by the serving layer's cross-query
            :class:`~repro.serve.cache.SemanticGraphCache`.
        subquery: the path-shaped sub-query to match.
        matcher: node-match relation φ.
        config: τ, n̂ and policy knobs.
        subquery_index: position of this sub-query in the decomposition
            (recorded on emitted matches for assembly).
        clock: time source; TBQ passes a shared clock, SGQ measures wall
            time for stats.
        budget: TBQ's coordinator, charged once per expansion by
            :meth:`next_match` (its ``charge`` may raise
            :class:`~repro.core.time_bounded.TimeAlert`); ``None`` for SGQ.
    """

    def __init__(
        self,
        view: WeightedGraphView,
        subquery: SubQueryGraph,
        matcher: NodeMatcher,
        config: SearchConfig,
        subquery_index: int = 0,
        clock: Optional[Clock] = None,
        budget=None,
    ):
        self.view = view
        self.subquery = subquery
        self.matcher = matcher
        self.config = config
        self.subquery_index = subquery_index
        self.clock = clock if clock is not None else WallClock()
        self._charge = budget.charge if budget is not None else None
        self.stats = SearchStats()
        #: Wall seconds spent inside :meth:`next_match`, summed (see the
        #: array kernel's attribute of the same name).
        self.pull_seconds = 0.0
        #: pivot -> the best goal state pushed for it so far, popped or
        #: not: Algorithm 2's harvest-on-generate set M̂_i.
        self.generated_goals: Dict[int, _State] = {}

        self._predicates = subquery.predicates()
        self._num_segments = len(self._predicates)
        self._total_bound = self._num_segments * config.path_bound
        # Query nodes that close each segment: node_labels[1..m].
        self._boundary_nodes = [
            subquery.query.node(label) for label in subquery.node_labels[1:]
        ]
        # The reach prune applies exactly when the view offers a label
        # and the policy is EXPAND (see the module docstring).
        self._hop_label = (
            getattr(view, "hop_label", None)
            if config.visited_policy is VisitedPolicy.EXPAND
            else None
        )
        self._reach_memo: Dict[int, bytes] = {}

        self._queue: MaxHeap[_State] = MaxHeap()
        self._visited: Set[Tuple[int, int]] = set()
        self._best_g: Dict[Tuple[int, int], float] = {}
        self._emitted_pivots: Set[int] = set()
        self._exhausted = False
        self._watch = Stopwatch(self.clock)
        self._seed_start_states()

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def _remaining_predicates(self, segment: int) -> List[str]:
        return self._predicates[segment:]

    def _estimate(self, state: _State) -> float:
        """ψ̂ for a non-goal state (Eq. 7 with the layered N̂)."""
        max_remaining = self.view.max_adjacent_weight_any(
            state.uid, self._remaining_predicates(state.segment)
        )
        return estimate_pss(
            state.log_product,
            state.hops_total,
            max_remaining,
            self._total_bound,
            mode=self.config.scoring,
            weight_sum=state.weight_sum,
        )

    def _reach(self, segment: int) -> bytes:
        """``d_segment``: hops to the nearest φ-match closing ``segment``."""
        label = self._reach_memo.get(segment)
        if label is None:
            node = self._boundary_nodes[segment]
            label = self._hop_label(
                self.matcher.phi_key(node),
                self.matcher.matches(node),
                self.config.path_bound,
            )
            self._reach_memo[segment] = label
        return label

    def _seed_start_states(self) -> None:
        start_node = self.subquery.start
        bound = self.config.path_bound
        for uid in self.matcher.matches(start_node):
            if self._hop_label is not None and self._reach(0)[uid] > bound:
                self.stats.pruned_by_reach += 1
                continue
            state = _State(
                uid=uid,
                segment=0,
                hops_total=0,
                hops_in_segment=0,
                log_product=0.0,
                weight_sum=0.0,
                parent=None,
                step=None,
            )
            state.priority = self._estimate(state)
            self._push(state)

    # ------------------------------------------------------------------
    # queue plumbing (policy-aware)
    # ------------------------------------------------------------------
    def _push(self, state: _State) -> bool:
        """Admit a generated state subject to the visited policy."""
        if self.config.visited_policy is VisitedPolicy.GENERATE:
            key = state.key()
            if key in self._visited:
                self.stats.pruned_by_visited += 1
                return False
            self._visited.add(key)
        else:  # EXPAND: lazy decrease-key with re-opening
            fine = state.fine_key()
            best = self._best_g.get(fine)
            if best is not None and state.log_product <= best:
                self.stats.pruned_by_visited += 1
                return False
            self._best_g[fine] = state.log_product
        self._queue.push(state.priority, state)
        if self._is_goal(state):
            held = self.generated_goals.get(state.uid)
            if held is None or state.priority > held.priority:
                self.generated_goals[state.uid] = state
        self.stats.states_generated += 1
        if len(self._queue) > self.stats.max_queue_size:
            self.stats.max_queue_size = len(self._queue)
        return True

    def _pop(self) -> Optional[_State]:
        while self._queue:
            _priority, state = self._queue.pop_max()
            if self.config.visited_policy is VisitedPolicy.EXPAND:
                best = self._best_g.get(state.fine_key())
                if best is not None and state.log_product < best:
                    # Stale entry superseded by a better path — the lazy
                    # decrease-key leaves it in the heap, so it costs a
                    # pop without becoming an expansion.
                    self.stats.stale_pops += 1
                    continue
            return state
        return None

    # ------------------------------------------------------------------
    # expansion (Algorithm 1 lines 3-10)
    # ------------------------------------------------------------------
    def _is_goal(self, state: _State) -> bool:
        return state.segment == self._num_segments

    def _make_match(self, state: _State) -> PathMatch:
        return PathMatch(
            subquery_index=self.subquery_index,
            path=state.to_path(),
            pivot_uid=state.uid,
            pss=state.priority,
        )

    def materialise(self, match: PathMatch) -> PathMatch:
        """The match with its path built — here, the match itself.

        Part of the pull surface the engine drives: the array-backed
        kernel emits path-less pending matches and builds paths on
        request; this search builds them eagerly at emission.
        """
        return match

    def harvest(self) -> List[PathMatch]:
        """M̂_i as matches: the best generated goal per pivot, popped or not.

        What TBQ assembles from when the time alert fires (Algorithm 2,
        lines 10-11).  Every goal passed the τ check when it was pushed
        and its priority is its exact pss; ties keep the first generated,
        the one :meth:`next_match` would emit.
        """
        return [self._make_match(state) for state in self.generated_goals.values()]

    def _arrivals(self, state: _State) -> List[_State]:
        """All states generated by expanding ``state`` one hop."""
        if self._is_goal(state):
            return []
        if state.hops_in_segment >= self.config.path_bound:
            return []  # segment exhausted its n̂ hops; only advances survive
        out: List[_State] = []
        bound = self.config.path_bound
        predicate = self._predicates[state.segment]
        boundary = self._boundary_nodes[state.segment]
        advance_is_goal = state.segment + 1 == self._num_segments
        prune = self._hop_label is not None
        for edge, neighbor, weight in self.view.weighted_incident(state.uid, predicate):
            if weight <= 0.0:
                self.stats.pruned_by_tau += 1
                continue
            if state.visits(neighbor):
                continue  # simple paths only
            step = PathStep(edge=edge, forward=(edge.source == state.uid))
            log_product = state.log_product + log_weight(weight)
            weight_sum = state.weight_sum + weight
            hops_total = state.hops_total + 1
            hops_in_segment = state.hops_in_segment + 1

            if self.matcher.is_match(boundary, neighbor):
                if (
                    prune
                    and not advance_is_goal
                    and self._reach(state.segment + 1)[neighbor] > bound
                ):
                    self.stats.pruned_by_reach += 1
                else:
                    advanced = _State(
                        uid=neighbor,
                        segment=state.segment + 1,
                        hops_total=hops_total,
                        hops_in_segment=0,
                        log_product=log_product,
                        weight_sum=weight_sum,
                        parent=state,
                        step=step,
                    )
                    if advance_is_goal:
                        advanced.priority = exact_pss_from_log(
                            log_product,
                            hops_total,
                            mode=self.config.scoring,
                            weight_sum=weight_sum,
                        )
                    else:
                        advanced.priority = self._estimate(advanced)
                    out.append(advanced)

            if hops_in_segment >= bound:
                self.stats.pruned_by_bound += 1
            elif (
                prune
                and hops_in_segment + self._reach(state.segment)[neighbor] > bound
            ):
                self.stats.pruned_by_reach += 1
            else:
                continuing = _State(
                    uid=neighbor,
                    segment=state.segment,
                    hops_total=hops_total,
                    hops_in_segment=hops_in_segment,
                    log_product=log_product,
                    weight_sum=weight_sum,
                    parent=state,
                    step=step,
                )
                continuing.priority = self._estimate(continuing)
                out.append(continuing)
        return out

    def step(self) -> Optional[PathMatch]:
        """One pop-and-expand iteration.

        Returns a :class:`PathMatch` when the popped state is a goal,
        otherwise ``None``.  Raises nothing on exhaustion; check
        :attr:`exhausted`.
        """
        if self._exhausted:
            return None
        state = self._pop()
        if state is None:
            self._exhausted = True
            return None
        self.stats.expansions += 1
        self.clock.tick()

        if self._is_goal(state):
            if state.uid in self._emitted_pivots:
                return None  # EXPAND policy can re-pop a pivot; keep first
            self._emitted_pivots.add(state.uid)
            self.stats.goals_emitted += 1
            return self._make_match(state)

        for arrival in self._arrivals(state):
            if arrival.priority < self.config.tau:
                self.stats.pruned_by_tau += 1
            else:
                self._push(arrival)
        return None

    # ------------------------------------------------------------------
    # public pull interface
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def next_match(self) -> Optional[PathMatch]:
        """Run until the next match pops (Algorithm 1's top-k loop body).

        Returns ``None`` when the search space is exhausted.  Successive
        calls return matches in non-increasing pss order (Theorem 2: the
        first pop is the global optimum among n̂-bounded matches, the
        second is the runner-up, and so on).  Under a TBQ budget every
        expansion is charged, and the charge that fires the time alert
        raises out of this call.
        """
        charge = self._charge
        entered = time.perf_counter()
        try:
            while not self._exhausted:
                match = self.step()
                if charge is not None:
                    charge()
                if match is not None:
                    return match
            return None
        finally:
            self.pull_seconds += time.perf_counter() - entered
            self.stats.elapsed_seconds = self._watch.elapsed()

    def run(self, k: int) -> List[PathMatch]:
        """Collect up to ``k`` matches (Algorithm 1 in one call)."""
        if k < 1:
            raise SearchError("k must be at least 1")
        matches: List[PathMatch] = []
        while len(matches) < k:
            match = self.next_match()
            if match is None:
                break
            matches.append(match)
        return matches


def brute_force_matches(
    view: WeightedGraphView,
    subquery: SubQueryGraph,
    matcher: NodeMatcher,
    config: SearchConfig,
    subquery_index: int = 0,
) -> List[PathMatch]:
    """Reference oracle: exhaustively enumerate every n̂-bounded match.

    Exponential; used by tests to validate the A* search's optimality
    (Theorem 2) and by nothing else.  Returns the best match per pivot
    entity, sorted by descending pss.
    """
    from repro.core.pss import exact_pss

    predicates = subquery.predicates()
    boundaries = [subquery.query.node(label) for label in subquery.node_labels[1:]]
    best_per_pivot: Dict[int, PathMatch] = {}

    def _extend(
        uid: int, segment: int, hops_in_segment: int, weights: List[float], path: Path
    ) -> None:
        if segment == len(predicates):
            pss = exact_pss(weights, config.scoring)
            if pss < config.tau:
                return
            current = best_per_pivot.get(uid)
            if current is None or pss > current.pss:
                best_per_pivot[uid] = PathMatch(
                    subquery_index=subquery_index, path=path, pivot_uid=uid, pss=pss
                )
            return
        if hops_in_segment >= config.path_bound:
            return
        for edge, neighbor, weight in view.weighted_incident(uid, predicates[segment]):
            if weight <= 0.0:
                continue
            if neighbor in path.nodes():
                continue  # simple paths only, matching the A*'s visited set
            step = PathStep(edge=edge, forward=(edge.source == uid))
            extended = path.extend(step)
            if matcher.is_match(boundaries[segment], neighbor):
                _extend(neighbor, segment + 1, 0, weights + [weight], extended)
            _extend(neighbor, segment, hops_in_segment + 1, weights + [weight], extended)

    for start in matcher.matches(subquery.start):
        _extend(start, 0, 0, [], Path.single_node(start))

    matches = sorted(best_per_pivot.values(), key=lambda m: -m.pss)
    return matches
