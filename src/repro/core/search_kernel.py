"""Array-backed A* search kernel: batched frontier expansion over the CSR.

:class:`~repro.core.astar.SubQuerySearch` is the Algorithm 1
transcription — one linked ``_State`` object per arrival, a parent-chain
walk per neighbour for the simple-path check, a ``NodeMatcher.is_match``
probe per boundary arrival and a scalar Eq. 7 estimate assembled from
per-predicate view probes for every generated state.  With weight
materialisation (PR 2) and TA assembly (PR 3) vectorized, that
pop-and-expand loop is where D12-class queries spend ~90% of their time.

:class:`VectorizedSubQuerySearch` re-implements the search over the
compact CSR kernel (:class:`~repro.kg.compact.CompactGraph`, via
:class:`~repro.core.compact_view.CompactSemanticGraphView`), for one
configuration: the paper's geometric pss (Eq. 6) under the re-opening
``EXPAND`` closed set.  The ablations (arithmetic scoring, the
``GENERATE`` visited policy) run on the reference search, which
:func:`~repro.core.astar.build_subquery_search` routes them to:

- a **state is one tuple that is its own heap entry**:
  ``(-priority, counter, log_product, key, uid, segment, hops,
  hops_in_segment, ancestors, parent, slot)`` — the heap
  orders on the first two fields (the counter is unique, so a comparison
  never reads further), ``key`` is the state's closed-set key, ``parent``
  the entry it was expanded from (``None`` on a seed) and ``slot`` the
  CSR slot it arrived through (it resolves to the edge id and travel
  direction).  A push is one tuple build and one ``heappush``, a pop one
  ``heappop`` and one unpack; a child holds its parent and nothing holds
  a child, so a state whose expansion generated nothing is freed as it
  pops;
- **per-segment tables are predicate- and node-sized, never
  slot-sized, and node-sized rows are read where they lie**: a slot
  resolves to its interned predicate id through the graph's memoized
  ``slot_predicate_list()`` mirror, and the id indexes the query
  predicate's weight row and its exact-log twin (two ``tolist`` calls
  over |P| entries per segment); the segment-max ``m(u)`` bounds and
  their logs are memoryviews over the view's cached read-only
  arrays (over one ``np.where`` merge when the remaining suffix has
  several predicates) — no |V|-sized copy per search — and the
  boundary's φ-matches are a set built from ``NodeMatcher.matches``; so
  nothing a search sets up is proportional to |E|, and the per-arrival
  cost of a weight probe, an ``is_match`` call and a per-predicate
  ``m(u)`` scan is a handful of indexed reads and one set probe;
- **one loop per match**: ``next_match`` is a single pop → stale-check
  → goal-or-expand loop; the heap, CSR mirrors and search constants are
  bound to locals once per call and the segment table's rows only when
  a pop changes segment, and a popped state's CSR row runs a lean scalar
  loop over them in slot order, counting the reference's ``weight <= 0``
  prunes as it meets them (a vectorized τ-gather for hub rows measured
  slower on the ledger and is gone);
- **paths are built on request**: a pop (or TBQ's ``harvest()``) emits a
  :class:`~repro.core.results.PendingMatch` — pivot, pss and the goal
  state's entry — and :meth:`VectorizedSubQuerySearch.materialise`
  follows the parent entries into a :class:`~repro.kg.paths.Path` only
  for the matches the engine returns;
- the **simple-path check walks no chains**: each entry carries its
  hop-bounded ancestor tuple (≤ N̂ + 1 uids), and membership is one C
  containment test per arrival.

**Decision identity.**  The kernel makes the same decision as the
reference search at every step: same seeds in the same order, same
arrival order (advance before continue, CSR slot order), the same
reach / τ / visited / bound prunes (the reach prune and why it only
deletes work under ``EXPAND`` are in :mod:`repro.core.astar`), the same
heap tie-breaking
(monotone insertion counter), and bit-identical priorities — which is
why every transcendental stays on ``math.exp`` / ``math.log``: numpy's
SIMD ``np.exp`` / ``np.log`` loops may differ from libm by an ulp, and
one flipped bit in a priority reorders the heap.  The exact logs come
from the view as rows (``log_weight_row_array`` /
``log_bounds_row_array``), computed once per query predicate and shared
across queries like the rows they mirror, so no log is taken per search.
``tests/test_search_kernel.py`` pins matches, pss, emission order, the
materialised path of every emitted match and every search counter
against the reference across randomized graphs and τ sweeps.

The public surface mirrors :class:`SubQuerySearch` exactly —
``next_match`` / ``run`` / ``step`` / ``materialise`` / ``exhausted`` /
``stats``, plus ``generated_goals`` / ``harvest`` for TBQ — so TA
assembly's sorted access and TBQ's
:class:`~repro.core.time_bounded.TimeBoundedCoordinator` drive either
kernel unchanged.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.pss import LOG_ZERO
from repro.core.results import PathMatch, PendingMatch, SearchStats
from repro.errors import SearchError
from repro.kg.paths import Path, PathStep
from repro.query.model import SubQueryGraph
from repro.query.transform import NodeMatcher
from repro.utils.timing import Clock, Stopwatch, WallClock

#: Log-product collapse threshold, matching ``estimate_pss`` /
#: ``exact_pss_from_log`` (anything at or below reads as weight 0).
_LOG_PRUNE = LOG_ZERO / 2

#: Positions in a state entry (layout in the module docstring) that the
#: cold paths index; the search loop unpacks a whole entry instead.
_NEG_PRIORITY, _UID, _PARENT, _SLOT = 0, 4, 9, 10


def supports_vectorized_search(view) -> bool:
    """Whether ``view`` exposes the compact surface this kernel needs.

    Duck-typed on the capabilities the kernel consumes — the frozen CSR
    graph (static topology mirrors), a predicate-sized weight row and a
    node-sized ``m(u)`` row per query predicate, each with its exact-log
    twin, and the node-sized hop label per φ set — so any future view
    over a
    :class:`~repro.kg.compact.CompactGraph` (a shard proxy, say)
    qualifies without inheriting from
    :class:`~repro.core.compact_view.CompactSemanticGraphView`.
    """
    return getattr(view, "graph", None) is not None and all(
        hasattr(view, name)
        for name in (
            "weight_row_array",
            "log_weight_row_array",
            "bounds_row_array",
            "log_bounds_row_array",
            "hop_label",
        )
    )


class _SegmentTable:
    """Per-segment expansion tables, none of them slot-sized.

    ``w_l`` / ``lw_l`` are lists indexed by interned predicate id (a
    slot reaches them through the graph's ``slot_predicate_list()``);
    ``m_*`` / ``logm_*`` are node-indexed memoryviews of float64
    rows (see ``_m_any``); ``phi`` is the set of
    φ-matches of the node closing the segment.  ``m_adv_l`` /
    ``logm_adv_l`` are ``None`` on the last segment, where an advance is
    a goal and gets an exact pss instead of an estimate.  ``d_cont`` /
    ``d_adv`` are the hop labels of this segment's and the next
    segment's closing node (``d_adv`` all zero on the last segment: a
    goal has nowhere left to go).
    """

    __slots__ = (
        "w_l",
        "lw_l",
        "phi",
        "m_cont_l",
        "logm_cont_l",
        "m_adv_l",
        "logm_adv_l",
        "d_cont",
        "d_adv",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])


class VectorizedSubQuerySearch:
    """Array-backed A* semantic search for one sub-query (Algorithm 1).

    Drop-in sibling of :class:`~repro.core.astar.SubQuerySearch` with the
    same constructor and pull interface; build it through
    :func:`~repro.core.astar.build_subquery_search` rather than directly
    so the kernel seam stays in one place.

    Args:
        view: a compact view (see :func:`supports_vectorized_search`);
            anything else raises :class:`~repro.errors.SearchError`.
        subquery: the path-shaped sub-query to match.
        matcher: node-match relation φ (consulted once per boundary at
            construction to build the φ-match sets, never in the hot loop).
        config: τ and n̂ (read once, at construction); an ablation
            ``scoring`` or ``visited_policy`` raises
            :class:`~repro.errors.SearchError` naming the field.
        subquery_index: position of this sub-query in the decomposition.
        clock: time source; TBQ passes a shared clock.
        budget: TBQ's coordinator, charged once per expansion by
            :meth:`next_match`; ``None`` for SGQ.
    """

    def __init__(
        self,
        view,
        subquery: SubQueryGraph,
        matcher: NodeMatcher,
        config: SearchConfig,
        subquery_index: int = 0,
        clock: Optional[Clock] = None,
        budget=None,
    ):
        if not supports_vectorized_search(view):
            raise SearchError(
                "vectorized search kernel needs a compact view exposing "
                "graph / weight_row_array / bounds_row_array, their log "
                f"twins and hop_label; {type(view).__name__} does not"
            )
        ablated = config.ablated_fields()
        if ablated:
            raise SearchError(
                "vectorized search kernel serves geometric scoring under "
                "the EXPAND visited policy only; "
                + ", ".join(f"{name}={getattr(config, name).value}" for name in ablated)
                + " runs on the reference search (kernel='auto' or 'reference')"
            )
        self.view = view
        self.subquery = subquery
        self.matcher = matcher
        self.config = config
        self.subquery_index = subquery_index
        self.clock = clock if clock is not None else WallClock()
        self._charge = budget.charge if budget is not None else None
        self.stats = SearchStats()
        #: pivot -> entry of the best goal state pushed for it so far,
        #: popped or not: Algorithm 2's harvest-on-generate set M̂_i.
        self.generated_goals: Dict[int, tuple] = {}

        graph = view.graph
        self.graph = graph
        self._predicates = subquery.predicates()
        self._num_segments = len(self._predicates)
        self._total_bound = self._num_segments * config.path_bound
        # Closed-set keys are single ints (cheaper to build and hash than
        # tuples): ((uid * (m+1) + segment) * hops_mult + hops) * his_mult
        # + hops_in_segment, i.e. ``uid * stride`` plus a term every
        # arrival of one pop shares.  Injective, so the set partitions
        # states exactly as the reference's ``fine_key`` tuples do.
        hops_mult = self._total_bound + 1
        his_mult = config.path_bound + 1
        self._stride = (self._num_segments + 1) * hops_mult * his_mult
        # Per-boundary φ-match set: node_labels[1..m] close segments
        # 0..m-1; matcher.matches is the φ oracle and is consulted
        # exactly once per boundary, here.
        boundary_nodes = [
            subquery.query.node(label) for label in subquery.node_labels[1:]
        ]
        self._phi: List[FrozenSet[int]] = [
            frozenset(matcher.matches(node)) for node in boundary_nodes
        ]
        self._phi_keys = [matcher.phi_key(node) for node in boundary_nodes]
        # What a goal advance reads in place of a hop label: zeros never
        # exceed a hop budget.
        self._no_label = bytes(graph.num_nodes)

        # CSR scalars for the hot loop (python ints, no np boxing),
        # memoized on the frozen graph — pure mirrors, shared by every
        # search over it.
        self._indptr_l: List[int] = graph.indptr_list()
        self._nbr_l: List[int] = graph.slot_neighbor_list()
        self._spred_l: List[int] = graph.slot_predicate_list()

        # Lazy per-segment tables and segment-max m(u) rows (the values
        # and their exact logs).
        self._tables: Dict[int, _SegmentTable] = {}
        self._m_memo: Dict[int, Tuple[memoryview, memoryview]] = {}

        # The open list: a heapq of state entries, max-first on priority
        # with ties broken by the insertion counter (the reference's
        # MaxHeap order).
        self._heap: List[tuple] = []
        self._best_g: Dict[int, float] = {}
        self._emitted_pivots: Set[int] = set()
        self._exhausted = False
        self._watch = Stopwatch(self.clock)
        # What _advance binds on entry, in one unpack.  It must hold no
        # bound method of this search: the tuple would then refer back to
        # it, and a finished query's state pools would wait for the cyclic
        # collector instead of dying with the search.
        self._loop = (
            config.path_bound, config.tau, self.clock.tick, subquery_index,
            self._num_segments, self._total_bound, self._stride, hops_mult,
            his_mult, self._indptr_l, self._nbr_l, self._spred_l, self._best_g,
            self._emitted_pivots, self.generated_goals, self._heap,
            heapq.heappush, heapq.heappop, math.exp, _LOG_PRUNE,
            tuple.__new__,  # builds a PendingMatch without its Python __new__
        )
        self._seed_start_states()
        stats = self.stats
        # The nine counters between two calls, in _advance's order.
        self._counts = (
            stats.states_generated, stats.expansions, stats.pruned_by_tau,
            stats.pruned_by_visited, stats.pruned_by_bound,
            stats.pruned_by_reach, stats.stale_pops, stats.goals_emitted,
            stats.max_queue_size,
        )

    # ------------------------------------------------------------------
    # precomputed tables
    # ------------------------------------------------------------------
    def _m_any(self, segment: int) -> Tuple[memoryview, memoryview]:
        """``m(u)`` against predicates[segment:] for all nodes, plus logs.

        The elementwise max over the remaining predicates' bounds rows —
        the batched equivalent of the reference's
        ``max_adjacent_weight_any`` scan (max of floats is exact, so the
        values match bit for bit) — with each log taken from the row
        that supplied the max, so it equals ``log_weight`` of that max
        whatever libm does.  Returns memoryviews (an indexed read
        yields the same Python float ``tolist`` would): over the view's
        cached read-only arrays themselves for a single remaining
        predicate, over this search's own merge otherwise.
        """
        entry = self._m_memo.get(segment)
        if entry is None:
            first, *rest = self._predicates[segment:]
            m = self.view.bounds_row_array(first)
            log_m = self.view.log_bounds_row_array(first)
            for predicate in rest:
                row = self.view.bounds_row_array(predicate)
                higher = row > m
                m = np.where(higher, row, m)
                log_m = np.where(
                    higher, self.view.log_bounds_row_array(predicate), log_m
                )
            entry = (memoryview(m), memoryview(log_m))
            self._m_memo[segment] = entry
        return entry

    def _reach(self, segment: int) -> bytes:
        """``d_segment``: hops to the nearest φ-match closing ``segment``.

        The view memoises labels per φ key, so this is a dict probe after
        the process's first search against that key.
        """
        if segment == self._num_segments:
            return self._no_label
        return self.view.hop_label(
            self._phi_keys[segment], self._phi[segment], self.config.path_bound
        )

    def _segment_table(self, segment: int) -> _SegmentTable:
        """Predicate-sized weight and node-sized φ/m tables, built once.

        Built on the segment's first non-isolated expansion, so a
        segment the search never reaches costs no row and no label.
        """
        table = self._tables.get(segment)
        if table is not None:
            return table
        predicate = self._predicates[segment]
        m_cont_l, logm_cont_l = self._m_any(segment)
        if segment + 1 < self._num_segments:
            m_adv_l, logm_adv_l = self._m_any(segment + 1)
        else:
            m_adv_l = logm_adv_l = None
        table = _SegmentTable(
            w_l=self.view.weight_row_array(predicate).tolist(),
            lw_l=self.view.log_weight_row_array(predicate).tolist(),
            phi=self._phi[segment],
            m_cont_l=m_cont_l,
            logm_cont_l=logm_cont_l,
            m_adv_l=m_adv_l,
            logm_adv_l=logm_adv_l,
            d_cont=self._reach(segment),
            d_adv=self._reach(segment + 1),
        )
        self._tables[segment] = table
        return table

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def _seed_start_states(self) -> None:
        """Push φ(start), reach-pruned, subject to the closed set.

        The expansion loop inlines the same admit-then-push sequence for
        every later state; a seed is never a goal (a sub-query has at
        least one edge).  Its Eq. 7 estimate is ``estimate_pss`` at zero
        hops and an empty product: ``exp(log m(u) / N̂)``, or 0 where
        ``m(u)`` is.
        """
        seeds = self.matcher.matches(self.subquery.start)
        if not seeds:
            return
        bound = self.config.path_bound
        reach = self._reach(0)
        live = [uid for uid in seeds if reach[uid] <= bound]
        stats = self.stats
        stats.pruned_by_reach += len(seeds) - len(live)
        m, log_m = self._m_any(0)
        best_g = self._best_g
        counter = 0
        for uid in live:
            key = uid * self._stride  # segment 0, no hops yet
            if key in best_g:  # a repeated seed
                stats.pruned_by_visited += 1
                continue
            best_g[key] = 0.0
            priority = math.exp(log_m[uid] / self._total_bound) if m[uid] > 0.0 else 0.0
            seed = (-priority, counter, 0.0, key, uid, 0, 0, 0, (uid,), None, -1)
            heapq.heappush(self._heap, seed)
            counter += 1
        stats.states_generated = counter
        stats.max_queue_size = len(self._heap)

    # ------------------------------------------------------------------
    # matches
    # ------------------------------------------------------------------
    def materialise(self, match: PendingMatch) -> PathMatch:
        """Build the path of a match this search emitted.

        Follows the parent entries from the match's goal state back to
        its seed; each edge is built from the kernel's columns and equals
        the source graph's, so the result equals the reference search's
        eager match.
        """
        graph = self.graph
        slot_edge = graph.slot_edge
        slot_forward = graph.slot_forward
        steps: List[PathStep] = []
        entry = match.entry
        while entry[_PARENT] is not None:
            slot = entry[_SLOT]
            steps.append(
                PathStep(
                    edge=graph.edge(int(slot_edge[slot])),
                    forward=bool(slot_forward[slot]),
                )
            )
            entry = entry[_PARENT]
        steps.reverse()
        return PathMatch(
            subquery_index=match.subquery_index,
            path=Path(start=entry[_UID], steps=tuple(steps)),
            pivot_uid=match.pivot_uid,
            pss=match.pss,
        )

    def harvest(self) -> List[PendingMatch]:
        """M̂_i as matches (same contract as the reference ``harvest``)."""
        index = self.subquery_index
        return [
            PendingMatch(index, entry[_UID], -entry[_NEG_PRIORITY], entry)
            for entry in self.generated_goals.values()
        ]

    # ------------------------------------------------------------------
    # public pull interface
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def step(self) -> Optional[PendingMatch]:
        """One pop-and-expand iteration (same contract as the reference)."""
        return self._advance(None, True)

    def next_match(self) -> Optional[PendingMatch]:
        """Run until the next match pops; ``None`` when exhausted.

        Under a TBQ budget every expansion is charged, and the charge
        that fires the time alert raises out of this call.
        """
        return self._advance(self._charge, False)

    def _advance(self, charge, single: bool) -> Optional[PendingMatch]:
        """The search loop: pop, stale-check, then emit a goal or expand.

        One iteration is the reference's ``step`` — one ``clock.tick()``
        per expansion, one ``charge()`` per iteration including the one
        that finds the queue empty — and every
        branch mirrors the reference's pop / arrivals / τ / push
        sequence: same order, same counters.  Everything an iteration
        reads is bound to a local once per call (at ~3 generated states
        per pop the attribute and method dispatch cost as much as the
        decisions); the counters live in locals too and are written back
        in the ``finally``, which also runs when ``charge`` raises.  Both
        come out of one tuple each (``_loop``, built at construction, and
        ``_counts``, saved by the ``finally``), so a pull's set-up is two
        unpacks.  ``states_generated`` is the insertion counter, and the
        queue's peak is read once per expansion: the heap only grows
        between two pops.
        """
        if self._exhausted:
            return None
        (
            bound, tau, tick, subquery_index, num_segments, total_bound,
            stride, hops_mult, his_mult, indptr_l, nbr_l, spred_l, best_g,
            emitted, goals, heap, heap_push, heap_pop, exp, log_prune,
            new_tuple,
        ) = self._loop
        (
            counter, expansions, by_tau, by_visited, by_bound, by_reach,
            stale_pops, goals_emitted, max_queue,
        ) = self._counts
        # The segment table's rows, re-bound only when a pop changes segment.
        bound_segment = -1
        w_l = lw_l = phi = m_adv_l = logm_adv_l = m_cont_l = logm_cont_l = None
        d_cont = d_adv = None
        try:
            while True:
                match = None
                entry = None
                while heap:
                    entry = heap_pop(heap)
                    (
                        neg_priority, _, log_product, key, uid, segment,
                        hops, his, anc, _, _,
                    ) = entry
                    # Every pushed entry recorded its key.
                    if log_product >= best_g[key]:
                        break
                    stale_pops += 1  # superseded by a better path
                    entry = None
                if entry is None:
                    self._exhausted = True
                else:
                    expansions += 1
                    tick()
                    if segment == num_segments:
                        # EXPAND policy can re-pop a pivot; keep the first.
                        if uid not in emitted:
                            emitted.add(uid)
                            goals_emitted += 1
                            match = new_tuple(
                                PendingMatch,
                                (subquery_index, uid, -neg_priority, entry),
                            )
                    elif his < bound:  # else only advances survived
                        start = indptr_l[uid]
                        end = indptr_l[uid + 1]
                        if start != end and segment != bound_segment:
                            table = self._segment_table(segment)
                            w_l = table.w_l
                            lw_l = table.lw_l
                            phi = table.phi
                            m_adv_l = table.m_adv_l
                            logm_adv_l = table.logm_adv_l
                            m_cont_l = table.m_cont_l
                            logm_cont_l = table.logm_cont_l
                            d_cont = table.d_cont
                            d_adv = table.d_adv
                            bound_segment = segment
                        hops1 = hops + 1
                        his1 = his + 1
                        continuing = his1 < bound
                        slack = bound - his1  # hops a continuing arrival has left
                        segment1 = segment + 1
                        advance_is_goal = segment1 == num_segments
                        hops_over = hops1 > total_bound
                        # An arrival's closed-set key is neighbor * stride
                        # plus what this pop fixes (see __init__).
                        adv_key = (segment1 * hops_mult + hops1) * his_mult
                        cont_key = (segment * hops_mult + hops1) * his_mult + his1
                        for slot in range(start, end):
                            pid = spred_l[slot]
                            w = w_l[pid]
                            if w <= 0.0:
                                by_tau += 1  # the reference's weight <= 0 prune
                                continue
                            neighbor = nbr_l[slot]
                            if neighbor in anc:
                                continue  # simple paths only
                            lp = log_product + lw_l[pid]
                            if neighbor in phi:
                                if d_adv[neighbor] > bound:
                                    by_reach += 1  # cannot close the next segment
                                else:
                                    if advance_is_goal:  # exact pss (Eq. 6)
                                        if lp <= log_prune:
                                            priority = 0.0
                                        else:
                                            priority = exp(lp / hops1)
                                    else:
                                        m = m_adv_l[neighbor]
                                        if hops_over or m <= 0.0 or lp <= log_prune:
                                            priority = 0.0
                                        else:
                                            priority = exp(
                                                (lp + logm_adv_l[neighbor]) / total_bound
                                            )
                                    # τ, then the closed set, then the push.
                                    if priority < tau:
                                        by_tau += 1
                                    else:
                                        key = neighbor * stride + adv_key
                                        best = best_g.get(key)
                                        if best is not None and lp <= best:
                                            by_visited += 1
                                        else:
                                            best_g[key] = lp
                                            child = (
                                                -priority, counter, lp, key, neighbor,
                                                segment1, hops1, 0,
                                                anc + (neighbor,), entry, slot,
                                            )
                                            heap_push(heap, child)
                                            counter += 1
                                            if advance_is_goal:
                                                held = goals.get(neighbor)
                                                if held is None or child[0] < held[0]:
                                                    goals[neighbor] = child
                            if not continuing:
                                by_bound += 1
                            elif d_cont[neighbor] > slack:
                                by_reach += 1  # no φ-match within the hops left
                            else:
                                m = m_cont_l[neighbor]
                                priority = (
                                    0.0
                                    if hops_over or m <= 0.0 or lp <= log_prune
                                    else exp((lp + logm_cont_l[neighbor]) / total_bound)
                                )
                                if priority < tau:
                                    by_tau += 1
                                else:
                                    key = neighbor * stride + cont_key
                                    best = best_g.get(key)
                                    if best is not None and lp <= best:
                                        by_visited += 1
                                        continue
                                    best_g[key] = lp
                                    heap_push(
                                        heap,
                                        (
                                            -priority, counter, lp, key, neighbor,
                                            segment, hops1, his1,
                                            anc + (neighbor,), entry, slot,
                                        ),
                                    )
                                    counter += 1
                        if len(heap) > max_queue:
                            max_queue = len(heap)
                if charge is not None:
                    charge()
                if match is not None or single or entry is None:
                    return match
        finally:
            self._counts = (
                counter, expansions, by_tau, by_visited, by_bound, by_reach,
                stale_pops, goals_emitted, max_queue,
            )
            stats = self.stats
            stats.expansions = expansions
            stats.states_generated = counter
            stats.pruned_by_tau = by_tau
            stats.pruned_by_visited = by_visited
            stats.pruned_by_bound = by_bound
            stats.pruned_by_reach = by_reach
            stats.stale_pops = stale_pops
            stats.goals_emitted = goals_emitted
            stats.max_queue_size = max_queue
            stats.elapsed_seconds = self._watch.elapsed()

    def run(self, k: int) -> List[PendingMatch]:
        """Collect up to ``k`` matches (Algorithm 1 in one call)."""
        if k < 1:
            raise SearchError("k must be at least 1")
        matches: List[PendingMatch] = []
        while len(matches) < k:
            match = self.next_match()
            if match is None:
                break
            matches.append(match)
        return matches
