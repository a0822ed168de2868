"""Serving layer: shared row cache, batched query service, load driver.

The paper's engine (``repro.core``) answers one query at a time and
rebuilds its semantic-graph state per call.  This package amortises that
state across a workload:

- :class:`~repro.serve.cache.SemanticGraphCache` — thread-safe,
  LRU-bounded cross-query store of whole-graph rows (weights, ``m(u)``
  bounds, hop labels), with hit/miss statistics;
- :class:`~repro.serve.service.QueryService` — pool front-end with
  ``submit`` / ``search_many`` and per-query
  deadlines (mapped onto the TBQ coordinator), running on a pluggable
  execution backend; ``stats_snapshot()`` returns its one stats type,
  :class:`~repro.serve.service.ServiceStats`, each part read from the
  one place that counts it (the service, the backend's worker rows, the
  answer cache, the supervisor), and ``after.since(before)`` takes a
  phase's counters;
- :mod:`repro.serve.backends` — the execution-backend seam: ``inline``
  (caller's thread) and ``process`` (true multi-core parallelism;
  workers bootstrap private engines from a pickled
  :class:`~repro.core.engine.EngineSpec`);
- :mod:`repro.serve.workload` — open-loop replay driver (uniform or
  Poisson arrivals, mixed SGQ/TBQ) reporting throughput and latency
  percentiles (also the ``repro-serve-workload`` console script, which
  replays one :class:`~repro.scenarios.suite.Workload` per run);
- :mod:`repro.serve.resilience` + :mod:`repro.serve.faults` — the
  fault-tolerance layer: :class:`~repro.serve.resilience.SupervisedBackend`
  (retries with seeded backoff, in-place pool rebuild, circuit-breaker
  fallback, hard timeouts, load shedding) driven in tests and CI by a
  deterministic, picklable :class:`~repro.serve.faults.FaultPlan`.

Later scaling work (sharded graph stores, async front-ends) plugs in
behind these seams; see ``docs/architecture.md``.
"""

from repro.serve.backends import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    WorkerSnapshot,
)
from repro.serve.cache import SemanticGraphCache
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    ResilienceStats,
    SupervisedBackend,
)
from repro.serve.service import QueryRequest, QueryService, ServiceStats
from repro.serve.workload import ReplayReport, WorkloadItem, mix_deadlines, replay
from repro.utils.lru import CacheStats

__all__ = [
    "CacheStats",
    "SemanticGraphCache",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "WorkerSnapshot",
    "FaultPlan",
    "FaultInjector",
    "BackoffPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "SupervisedBackend",
    "QueryRequest",
    "QueryService",
    "ServiceStats",
    "ReplayReport",
    "WorkloadItem",
    "mix_deadlines",
    "replay",
]
