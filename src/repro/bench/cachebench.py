"""Answer-cache gate: Zipf-skewed hot traffic must hit, and hit right.

The answer cache (:mod:`repro.serve.answer_cache`) claims that repeated
hot queries are served from memory bit-identically to recomputation, and
much faster.  This module owns the one measurement both the CI smoke
gate (``scripts/bench_smoke.py`` gate 8) and ad-hoc runs make, so the
claim cannot drift from what CI checks:

1. resample the held-out scenario under :data:`DEFAULT_POPULARITY` — a
   seeded Zipf law that turns the uniform workload into hot-key traffic
   (a few queries dominate, a long tail trickles);
2. replay that same request sequence with the answer cache off and on,
   on the inline backend and on a process pool with the shared-memory
   graph — four digests that must all be equal (a cache hit serving
   anything but the engine's exact answer is correctness loss, not a
   perf win);
3. measure the hot path: a sequential inline replay classifies every
   exact request as hit or miss via the service's own counters and
   times it — the gate requires a hot hit rate of at least
   :data:`MIN_HIT_RATE` and a p50 hit at least :data:`MIN_SPEEDUP`
   times faster than a p50 miss;
4. the **evicting arm**: the same sequence through a cache of
   :data:`EVICTING_CAPACITY` entries — fewer than the distinct exact
   queries — on both backends.  Both digests must equal the cache-off
   digest *and* both replays must actually have evicted, so the
   retention path is digest-gated, not only the roomy cache of step 2.
   The arm also records what retention bought on that trace: hit rate,
   evictions and saved search seconds of the cache's policy next to a
   recency-only oracle (an :class:`~repro.serve.cache.LruMap` of the
   same capacity) fed the same (key, cost) sequence (recorded, never
   gated — the costs are wall-clock measurements).

TBQ items bypass the cache by design (a deadline-bounded answer is a
function of the clock), so they appear in the replay but never in the
hit/miss accounting — same exclusion the scenario digest makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.scenarios.replay import (
    build_resources,
    replay_scenario,
    scenario_items,
)
from repro.scenarios.suite import Workload
from repro.serve.answer_cache import canonicalize
from repro.serve.cache import LruMap
from repro.serve.service import QueryService
from repro.serve.workload import PopularitySpec, apply_popularity

#: The gate's traffic shape: Zipf with a hot head (s=1.2) over 4x the
#: unique query count, so the replay contains genuine repetition without
#: the gate taking long.  ``length`` is resolved per-workload in
#: :func:`run_cache_gate` (``None`` here means "4x the item count").
DEFAULT_POPULARITY = PopularitySpec(kind="zipf", s=1.2, length=None)

#: Minimum served-without-search fraction over the exact hot traffic.
MIN_HIT_RATE = 0.5

#: Minimum p50 miss-to-hit latency ratio.  Conservative on purpose: hits
#: are a dict lookup + payload re-inflation (microseconds) against a
#: full A* + TA execution (milliseconds), so an order of magnitude of
#: headroom remains before shared-runner noise could flake the gate.
MIN_SPEEDUP = 5.0

#: Answer-cache capacity used by the gate (far above the unique query
#: count — the gate measures hit behaviour, not eviction pressure).
DEFAULT_CAPACITY = 256

#: Capacity of the evicting arm: half the six distinct exact queries the
#: gate's Zipf draw touches, so every replay of it must evict.
EVICTING_CAPACITY = 3


def _rounded(rows: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Counter rows for the artifact (``answer_saved_seconds`` is a float)."""
    return {
        backend: {name: round(value, 6) for name, value in row.items()}
        for backend, row in rows.items()
    }


def _retention_row(hits: int, misses: int, evictions: int, saved: float) -> dict:
    lookups = hits + misses
    return {
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "evictions": evictions,
        "saved_ms": round(saved * 1000.0, 3),
    }


@dataclass
class CacheBenchReport:
    """Everything the answer-cache gate measured and judged."""

    workload: str
    popularity: str
    capacity: int
    workers: int
    requests: int = 0
    unique_queries: int = 0
    #: backend -> {"off": digest, "on": digest}
    digests: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: answer-cache counter deltas of each cache-on replay, per backend.
    answers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    equivalent: bool = False
    hit_rate: float = 0.0
    hits: int = 0
    misses: int = 0
    p50_hit_ms: float = 0.0
    p50_miss_ms: float = 0.0
    min_hit_rate: float = MIN_HIT_RATE
    min_speedup: float = MIN_SPEEDUP
    #: the evicting arm: capacity, backend -> cache-on digest, backend ->
    #: counter deltas, and the policy / LRU-oracle retention rows.
    evicting_capacity: int = EVICTING_CAPACITY
    evicting_digests: Dict[str, str] = field(default_factory=dict)
    evicting_answers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    evicting_equivalent: bool = False
    retention: Dict[str, dict] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.p50_hit_ms <= 0.0:
            return float("inf")
        return self.p50_miss_ms / self.p50_hit_ms

    @property
    def evicted(self) -> bool:
        """Every evicting-arm replay really exercised the eviction path."""
        return bool(self.evicting_answers) and all(
            row.get("answer_evictions", 0) > 0
            for row in self.evicting_answers.values()
        )

    @property
    def passed(self) -> bool:
        """Digest-identical on and off across backends — also while
        evicting — hot traffic actually hitting, and hits materially
        faster than misses."""
        return (
            self.equivalent
            and self.evicting_equivalent
            and self.evicted
            and self.hit_rate >= self.min_hit_rate
            and self.speedup >= self.min_speedup
        )

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "popularity": self.popularity,
            "capacity": self.capacity,
            "workers": self.workers,
            "requests": self.requests,
            "unique_queries": self.unique_queries,
            "digests": {
                backend: dict(row) for backend, row in self.digests.items()
            },
            "answers": _rounded(self.answers),
            "equivalent": self.equivalent,
            "hit_rate": round(self.hit_rate, 4),
            "hits": self.hits,
            "misses": self.misses,
            "p50_hit_ms": round(self.p50_hit_ms, 4),
            "p50_miss_ms": round(self.p50_miss_ms, 4),
            "speedup": round(min(self.speedup, 1e9), 2),
            "min_hit_rate": self.min_hit_rate,
            "min_speedup": self.min_speedup,
            "evicting": {
                "capacity": self.evicting_capacity,
                "digests": dict(self.evicting_digests),
                "answers": _rounded(self.evicting_answers),
                "equivalent": self.evicting_equivalent,
                "evicted": self.evicted,
                "retention": dict(self.retention),
            },
            "passed": self.passed,
        }


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _measure_hot_path(
    workload: Workload,
    resources,
    popularity: PopularitySpec,
    capacity: int,
) -> Dict[str, object]:
    """Sequential inline replay timing every exact request as hit/miss.

    Classification uses the service's own ``answer_hits`` counter delta
    per request — the same signal the stats report exposes — so the
    measurement cannot disagree with the accounting it gates.  The
    ``trace`` is the (canonical key, engine seconds) sequence of the
    exact requests — a hit reports the seconds of the answer it served —
    and ``stats`` the service's final counters.
    """
    items = apply_popularity(
        scenario_items(workload), popularity, workload.seed
    )
    hit_seconds: List[float] = []
    miss_seconds: List[float] = []
    trace: List[Tuple[object, float]] = []
    with QueryService.build(
        resources.kg,
        resources.space,
        resources.library,
        resources.config,
        backend="inline",
        compact=True,
        answer_cache=capacity,
    ) as service:
        for item in items:
            if item.deadline is not None:
                service.submit_request(item.to_request()).result()
                continue
            request = item.to_request()
            hits_before = service.stats_snapshot().answer_hits
            start = time.perf_counter()
            result = service.submit_request(request).result()
            elapsed = time.perf_counter() - start
            if service.stats_snapshot().answer_hits > hits_before:
                hit_seconds.append(elapsed)
            else:
                miss_seconds.append(elapsed)
            trace.append(
                (
                    canonicalize(request, service.answer_cache.fingerprint),
                    result.elapsed_seconds,
                )
            )
        stats = service.stats_snapshot()
    served = len(hit_seconds)
    lookups = served + len(miss_seconds)
    return {
        "hits": len(hit_seconds),
        "misses": len(miss_seconds),
        "hit_rate": served / lookups if lookups else 0.0,
        "p50_hit_ms": _median(hit_seconds) * 1000.0,
        "p50_miss_ms": _median(miss_seconds) * 1000.0,
        "trace": trace,
        "stats": stats,
    }


def run_cache_gate(
    workload: Workload,
    *,
    workers: int = 2,
    capacity: int = DEFAULT_CAPACITY,
    popularity: Optional[PopularitySpec] = None,
) -> CacheBenchReport:
    """Replay ``workload`` Zipf-skewed with the cache off and on; judge.

    The engine inputs are built once and shared by every pass, and the
    popularity draw is seeded by the workload, so the only variable
    between any two digests is the answer cache itself.
    """
    popularity = popularity if popularity is not None else DEFAULT_POPULARITY
    if popularity.length is None:
        popularity = PopularitySpec(
            kind=popularity.kind,
            s=popularity.s,
            length=4 * len(workload.queries),
        )
    report = CacheBenchReport(
        workload=workload.name,
        popularity=popularity.describe(),
        capacity=capacity,
        workers=workers,
        requests=popularity.length or 0,
        unique_queries=len(workload.queries),
    )
    resources = build_resources(workload)

    digests: List[str] = []
    for backend, backend_kwargs in (
        ("inline", {}),
        ("process", {"workers": workers, "shared_graph": True}),
    ):
        off, on, evicting = (
            replay_scenario(
                workload,
                backend=backend,
                resources=resources,
                popularity=popularity,
                answer_cache=answer_cache,
                **backend_kwargs,
            )
            for answer_cache in (0, capacity, report.evicting_capacity)
        )
        report.digests[backend] = {"off": off.digest, "on": on.digest}
        report.answers[backend] = dict(on.report.answers)
        report.evicting_digests[backend] = evicting.digest
        report.evicting_answers[backend] = dict(evicting.report.answers)
        digests.extend([off.digest, on.digest])
    report.equivalent = len(set(digests)) == 1
    report.evicting_equivalent = set(report.evicting_digests.values()) == {
        report.digests["inline"]["off"]
    }

    scan = _measure_hot_path(
        workload, resources, popularity, report.evicting_capacity
    )
    # Recency-only retention, the policy the answer cache replaced.
    oracle = LruMap(report.evicting_capacity)
    oracle_saved = 0.0
    for key, cost in scan["trace"]:
        if oracle.get(key) is None:
            oracle.put(key, cost)
        else:
            oracle_saved += cost
    report.retention = {
        "requests": len(scan["trace"]),
        "policy": _retention_row(
            scan["stats"].answer_hits,
            scan["stats"].answer_misses,
            scan["stats"].answer_evictions,
            scan["stats"].answer_saved_seconds,
        ),
        "lru_oracle": _retention_row(
            oracle.hits, oracle.misses, oracle.evictions, oracle_saved
        ),
    }

    hot = _measure_hot_path(workload, resources, popularity, capacity)
    report.hits = hot["hits"]
    report.misses = hot["misses"]
    report.hit_rate = hot["hit_rate"]
    report.p50_hit_ms = hot["p50_hit_ms"]
    report.p50_miss_ms = hot["p50_miss_ms"]
    return report
