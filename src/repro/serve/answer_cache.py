"""Result-level answer cache: canonical query fingerprints + singleflight.

The serving layer caches semantic-graph state (weights, ``m(u)`` bounds,
rows, decompositions) but until now never *answers*: two identical hot
queries each repaid the full A*-search + TA-assembly cost.  This module
closes that gap with three pieces:

- :func:`canonicalize` derives a picklable :class:`CanonicalQueryKey`
  from a request *as it was declared*: the node signatures in declared
  order, the edges as ``(source position, predicate, target position)``
  in declared order, ``k``, the strategy and an explicit pivot's
  position.  Node labels are erased (a relabelled spelling of the same
  query shares the key) and node names and types are canonicalised
  through the :class:`~repro.query.transform.TransformationLibrary`
  (``Car`` and ``Automobile`` share a φ-candidate set, so they may share
  an answer); predicates are kept verbatim (predicate *paraphrases* go
  through the embedding space and must **not** collapse).  Declaration
  order is kept because decomposition reads it: it breaks ties between
  equal-cost pivots and between equal-cost edge covers, so two
  permutations of one query can return different answers and must not
  share a key.  Nothing of the engine enters the key: one cache serves
  one service, whose graph, space and search configuration never
  change.
- :class:`AnswerCache` is a bounded, thread-safe store of detached
  :class:`~repro.core.results.QueryResultPayload` entries that **keeps
  what is expensive to recompute**: an entry's retention priority is
  its use count times the search time the engine measured for it, over
  an aging floor (GreedyDual-Size-Frequency at unit size — see the
  class docstring), so a full cache gives up a 1 ms answer before a
  30 ms one.  **Singleflight** deduplication: N
  concurrent identical misses run the engine exactly once — one leader
  executes, N−1 followers get futures resolved from the leader's
  payload (their latency is the wait for the leader, never a second
  search).
- **One cache, one service**: a :class:`~repro.serve.service.QueryService`
  builds its own cache and no other service reads it.  The store it
  serves is immutable, so an entry never goes stale: there is no
  time-to-live and no invalidation.  A rebuilt KG is a new service with
  a new, empty cache.

Scope and safety:

- Only **exact** (SGQ, ``deadline is None``) results are cached.  A
  time-bounded answer is a function of the clock by design (anytime
  semantics), so TBQ requests always bypass the cache.
- An explicit ``pivot`` enters the key as its declared *position*, so
  forcing different pivots of the same shape never shares an answer;
  a pivot label the query does not declare is a
  :class:`~repro.errors.QueryError`, as it is on an uncached service.
- Cached payloads are shared by reference between hits (the same
  read-only contract process workers already rely on); a hit re-inflates
  via :meth:`~repro.core.results.QueryResultPayload.to_result` without
  copying the match objects.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.core.results import QueryResultPayload
from repro.errors import QueryError, ServeError
from repro.query.transform import TransformationLibrary, normalize_label

__all__ = [
    "AnswerCache",
    "AnswerCacheStats",
    "CanonicalQueryKey",
    "EngineFingerprint",
    "canonicalize",
]

# ----------------------------------------------------------------------
# engine fingerprint
# ----------------------------------------------------------------------

class EngineFingerprint:
    """What a key depends on beyond the request itself.

    Only ``library``, the transformation library used to canonicalise
    node aliases (``None`` = identical matches only, mirroring
    :meth:`TransformationLibrary.empty`).  Everything else an answer is
    a function of — the graph, the space, the search configuration — is
    fixed for the life of the one service whose cache holds the key, so
    it is the same for every key and enters none.
    """

    __slots__ = ("library",)

    def __init__(self, library: Optional[TransformationLibrary] = None):
        self.library = library

    @classmethod
    def from_engine(cls, engine) -> "EngineFingerprint":
        """Fingerprint a live engine (the inline backend)."""
        return cls(engine.library)

    @classmethod
    def from_spec(cls, spec) -> "EngineFingerprint":
        """Fingerprint a picklable spec (the process backend's parent side)."""
        return cls(spec.library)


# ----------------------------------------------------------------------
# canonical query key
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalQueryKey:
    """A picklable, hashable fingerprint of one answerable request.

    ``nodes`` holds one signature per node in declared order,
    ``(is_target, is_untyped, canonical type, canonical name)``;
    ``edges`` one ``(source position, predicate, target position)``
    triple per edge in declared order; ``pivot_position`` the declared
    position of an explicitly forced pivot (−1 = engine chooses).
    """

    nodes: Tuple[Tuple[bool, bool, str, str], ...]
    edges: Tuple[Tuple[int, str, int], ...]
    k: int
    strategy: str
    pivot_position: int = -1


def _node_signature(
    node, library: Optional[TransformationLibrary]
) -> Tuple[bool, bool, str, str]:
    """Alias-insensitive node signature (None-ness encoded explicitly)."""
    if library is not None:
        ctype = "" if node.etype is None else library.canonical_type(node.etype)
        cname = "" if node.name is None else library.canonical_name(node.name)
    else:
        ctype = "" if node.etype is None else normalize_label(node.etype)
        cname = "" if node.name is None else normalize_label(node.name)
    return (node.name is None, node.etype is None, ctype, cname)


def canonicalize(request, engine_fingerprint: EngineFingerprint) -> CanonicalQueryKey:
    """The canonical answer-cache key for one exact request.

    Pure function of ``(request, engine_fingerprint)`` — usable from any
    backend, any process.  Raises :class:`~repro.errors.ServeError` on a
    time-bounded request: TBQ answers are clock-dependent and must never
    be cached; :class:`~repro.errors.QueryError` on a pivot label the
    query does not declare.
    """
    if request.deadline is not None:
        raise ServeError(
            "time-bounded (TBQ) requests are never answer-cached — a "
            "deadline-bounded result is a function of the clock"
        )
    query = request.query
    nodes = query.nodes()
    position = {node.label: i for i, node in enumerate(nodes)}
    pivot_position = -1
    if request.pivot is not None:
        if request.pivot not in position:
            raise QueryError(f"unknown query node {request.pivot!r}")
        pivot_position = position[request.pivot]
    library = engine_fingerprint.library
    return CanonicalQueryKey(
        nodes=tuple(_node_signature(node, library) for node in nodes),
        edges=tuple(
            (position[e.source], e.predicate, position[e.target])
            for e in query.edges()
        ),
        k=request.k,
        strategy=request.strategy,
        pivot_position=pivot_position,
    )


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AnswerCacheStats:
    """A point-in-time snapshot of answer-cache effectiveness."""

    hits: int = 0
    misses: int = 0
    singleflight_collapsed: int = 0
    evictions: int = 0
    entries: int = 0
    in_flight: int = 0
    #: Σ ``cost`` over every hit and collapsed follower: the engine
    #: seconds the cache spared, which is what retention maximises
    #: (``hit_rate`` counts a spared 1 ms search like a spared 30 ms one).
    saved_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.singleflight_collapsed

    @property
    def hit_rate(self) -> float:
        """Served-without-search fraction (hits + collapsed followers)."""
        lookups = self.lookups
        served = self.hits + self.singleflight_collapsed
        return served / lookups if lookups else 0.0

    def since(self, baseline: "AnswerCacheStats") -> "AnswerCacheStats":
        """This snapshot with the counters taken relative to ``baseline``;
        the gauges (``entries``, ``in_flight``) are kept as they are."""
        return replace(
            self,
            **{
                f.name: getattr(self, f.name) - getattr(baseline, f.name)
                for f in fields(self)
                if f.name not in ("entries", "in_flight")
            },
        )

    def describe(self) -> str:
        return (
            f"hit_rate={self.hit_rate:.3f} "
            f"saved={self.saved_seconds * 1000:.1f}ms "
            f"(hits={self.hits}, misses={self.misses}, "
            f"collapsed={self.singleflight_collapsed}, "
            f"evictions={self.evictions}, entries={self.entries})"
        )


class _Flight:
    """One in-flight computation of a key (singleflight leader state)."""

    __slots__ = ("key", "followers")

    def __init__(self, key: CanonicalQueryKey):
        self.key = key
        self.followers: List[Future] = []


class _Entry:
    """One cached answer and what the retention policy knows about it."""

    __slots__ = ("key", "payload", "cost", "hits", "priority")

    def __init__(self, key, payload, cost, hits, priority):
        self.key = key
        self.payload = payload
        self.cost = cost
        self.hits = hits
        self.priority = priority


_PRIORITY = attrgetter("priority")


class AnswerCache:
    """Bounded, thread-safe, cost-aware answer store.

    Stores :class:`~repro.core.results.QueryResultPayload` values keyed
    by :class:`CanonicalQueryKey`.  One instance is safely shared by
    every request thread of a service — and, being front-of-process,
    by a process backend whose cached hits then skip IPC entirely.

    **Retention** is GreedyDual-Size-Frequency at unit size.  Search
    time is heavy-tailed (on the perf ledger's pool p95 is 14x p50), so
    once the cache is smaller than the working set, which answers it
    keeps decides the miss path's cost, not only its count.  Every
    entry carries

    - ``cost`` — ``payload.elapsed_seconds``, the engine's own measured
      time for the miss that produced the answer.  It is taken inside
      the engine, so it is the same number on the inline and process
      backends: no queue wait, pickling or IPC in it;
    - ``hits`` — the requests the entry has answered: the miss that
      paid for it, each collapsed singleflight follower, each later hit;
    - a priority ``H = L + hits × cost``, where ``L`` is the cache-wide
      *floor*.

    An insert that overflows ``capacity`` evicts the entry with the
    smallest ``H`` and raises ``L`` to that ``H``.  The floor is the
    aging: an entry's ``H`` is only re-based on the current ``L`` when
    it is used, so an old favourite that stopped being asked for is
    overtaken by newcomers priced above a risen floor — no entry is
    immortal.  Ties on ``H`` fall to the least recently used entry, so
    with equal costs and counts (or payloads that report no time) the
    policy *is* LRU.  Unit size is a stated simplification: every entry
    is one top-k payload and ``capacity`` counts entries, so payload
    bytes do not enter the priority.  Per-key counts restart when a key
    is evicted and comes back.

    The eviction is a linear scan for the minimum; it runs only on an
    overflowing insert, i.e. right after a miss that cost milliseconds
    of search (a few microseconds at 64 entries).

    Args:
        capacity: bound on cached answers (each entry is one top-k
            payload, small; the bound is a memory ceiling, not a
            correctness knob — a miss recomputes).
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ServeError(
                f"answer cache capacity must be at least 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        # Iteration order is recency order (oldest first): uses and
        # inserts move to the end, and the eviction scan's ``min``
        # returns the first minimum it meets — the LRU tie-break.
        self._entries: "OrderedDict[CanonicalQueryKey, _Entry]" = OrderedDict()
        self._floor = 0.0
        self._flights: dict = {}
        self._hits = 0
        self._misses = 0
        self._collapsed = 0
        self._evictions = 0
        self._saved_seconds = 0.0

    # -- retention (callers hold the lock) -----------------------------
    def _insert(
        self, key: CanonicalQueryKey, payload: QueryResultPayload, hits: int
    ) -> None:
        """Cache ``payload`` as most recent; evict the cheapest to lose."""
        cost = payload.elapsed_seconds
        self._entries[key] = _Entry(
            key, payload, cost, hits, self._floor + hits * cost
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            # The newcomer is a candidate like any other: a cheap
            # one-shot does not displace a cache of dearer answers, it
            # only raises the floor the next newcomer starts from.
            victim = min(self._entries.values(), key=_PRIORITY)
            del self._entries[victim.key]
            self._floor = victim.priority
            self._evictions += 1

    # -- singleflight protocol -----------------------------------------
    def acquire(self, key: CanonicalQueryKey):
        """Classify one lookup atomically.

        Returns one of::

            ("hit", payload)    # cached answer, serve immediately
            ("follow", future)  # identical key in flight; the future
                                # resolves when the leader completes
            ("lead", flight)    # caller must execute and then call
                                # complete(flight, ...) exactly once

        The classification, the follower registration and the counter
        update happen under one lock, so a flight can never complete
        between a caller being told to follow and its future being
        registered.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.hits += 1
                entry.priority = self._floor + entry.hits * entry.cost
                self._entries.move_to_end(key)
                self._hits += 1
                self._saved_seconds += entry.cost
                return "hit", entry.payload
            flight = self._flights.get(key)
            if flight is not None:
                future: Future = Future()
                flight.followers.append(future)
                self._collapsed += 1
                return "follow", future
            flight = _Flight(key)
            self._flights[key] = flight
            self._misses += 1
            return "lead", flight

    def complete(
        self,
        flight: _Flight,
        payload: Optional[QueryResultPayload] = None,
        error: Optional[BaseException] = None,
    ) -> Tuple[List[Future], Optional[QueryResultPayload], Optional[BaseException]]:
        """Settle a flight: store the payload, detach the followers.

        Returns ``(followers, payload, error)``; the caller resolves the
        follower futures *outside* the cache lock (resolution runs
        arbitrary ``add_done_callback`` code).  On ``error`` nothing is
        cached — the next identical request leads a fresh flight.  Each
        follower counts as a use of the new entry and as one search
        saved.
        """
        with self._lock:
            self._flights.pop(flight.key, None)
            followers = list(flight.followers)
            flight.followers = []
            if error is None and payload is not None:
                self._insert(flight.key, payload, 1 + len(followers))
                self._saved_seconds += len(followers) * payload.elapsed_seconds
        return followers, payload, error

    # -- plain map access (tests, warm priming) ------------------------
    def lookup(self, key: CanonicalQueryKey) -> Optional[QueryResultPayload]:
        """Policy-neutral peek: no counter, no use count, no reordering.

        A probe must not change what gets evicted.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry.payload if entry is not None else None

    # -- introspection -------------------------------------------------
    def stats(self) -> AnswerCacheStats:
        with self._lock:
            return AnswerCacheStats(
                hits=self._hits,
                misses=self._misses,
                singleflight_collapsed=self._collapsed,
                evictions=self._evictions,
                entries=len(self._entries),
                in_flight=len(self._flights),
                saved_seconds=self._saved_seconds,
            )
