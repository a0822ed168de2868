"""Exception hierarchy for the ``repro`` library.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one type to handle any library
failure while letting programming errors (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised for malformed knowledge-graph operations.

    Examples: adding an edge whose endpoint does not exist, requesting an
    unknown entity id, or loading a corrupt triple file.
    """


class UnknownEntityError(GraphError):
    """Raised when an entity id or name is not present in the graph."""

    def __init__(self, key: object):
        super().__init__(f"unknown entity: {key!r}")
        self.key = key

    def __reduce__(self):
        # The default re-calls __init__ with the formatted message.
        return type(self), (self.key,)


class UnknownPredicateError(GraphError):
    """Raised when a predicate is not present in the graph or space."""

    def __init__(self, predicate: str):
        super().__init__(f"unknown predicate: {predicate!r}")
        self.predicate = predicate

    def __reduce__(self):
        return type(self), (self.predicate,)


class SchemaError(ReproError):
    """Raised for invalid domain-schema definitions or generator configs."""


class QueryError(ReproError):
    """Raised for malformed query graphs.

    Examples: a query edge between undeclared nodes, a query graph with no
    target node, or a sub-query path that is not connected.
    """


class DecompositionError(QueryError):
    """Raised when a query graph cannot be decomposed into sub-queries."""


class EmbeddingError(ReproError):
    """Raised for embedding-model misuse (untrained model, bad dimensions)."""


class SearchError(ReproError):
    """Raised for invalid search configuration or internal search failure."""


class ConfigError(ReproError):
    """Raised when a :class:`~repro.core.config.SearchConfig` is invalid."""


class TimeBudgetError(ReproError):
    """Raised for invalid time-bound parameters in TBQ."""


class ScenarioError(ReproError):
    """Raised for scenario-synthesis misuse.

    Examples: an empty intent mix in a
    :class:`~repro.scenarios.suite.WorkloadBuilder`, loading a
    :class:`~repro.scenarios.suite.Workload` artifact written by an
    incompatible format version, or an augmentation budget that names a
    resource (predicate space, transformation library) the caller did
    not supply.
    """


class ServeError(ReproError):
    """Raised for serving-layer misuse.

    Examples: binding one :class:`~repro.serve.cache.SemanticGraphCache`
    to two different (graph, space) combinations, or submitting work to a
    closed :class:`~repro.serve.service.QueryService`.
    """


# ----------------------------------------------------------------------
# serving failure taxonomy: retryable vs fatal
# ----------------------------------------------------------------------
#
# The supervision layer (:mod:`repro.serve.resilience`) classifies every
# request failure into exactly two buckets.  *Retryable* failures are
# transient conditions of the serving substrate — a worker died, an
# engine hiccuped — where re-running the request is both safe (queries
# are read-only and therefore idempotent) and likely to succeed.
# Everything else is *fatal to the request*: retrying a malformed query
# or a shed request would burn capacity without changing the outcome.


class RetryableServeError(ServeError):
    """Transient serving failures that are safe to retry.

    The marker base of the retryable half of the taxonomy: queries are
    read-only, so re-executing one after a failure of the serving
    substrate can never corrupt state — it can only cost time.  A
    :class:`~repro.serve.resilience.SupervisedBackend` retries these
    (with capped, seeded-jitter backoff) and treats every other
    exception as fatal to the request.
    """


class TransientEngineError(RetryableServeError):
    """A one-off engine failure expected to succeed on re-execution.

    Raised by the fault-injection layer (:mod:`repro.serve.faults`) and
    available to engine integrations for genuinely transient conditions
    (e.g. a momentarily unavailable resource).
    """


class WorkerCrashError(RetryableServeError):
    """A worker died while serving a request.

    Raised on the inline backend, where an injected crash cannot
    actually kill the serving process.  On the process backend a
    real worker death breaks the whole pool and surfaces as
    :class:`PoolBrokenError` instead.
    """


class PoolBrokenError(RetryableServeError):
    """A process-pool worker died, so the whole pool is unusable.

    Raised by :class:`~repro.serve.backends.ProcessBackend` for every
    accepted and every later request once any worker ends abruptly.  The
    supervisor retries it and, unlike any other retryable failure,
    rebuilds the pool first.
    """


class OverloadError(ServeError):
    """Request shed by the bounded admission queue.

    Fatal to the request by design: shedding exists to keep latency
    bounded under overload, and retrying a shed request immediately
    would defeat it.  Callers should back off and resubmit.
    """


class RequestTimeoutError(ServeError):
    """A request exceeded the serving-level hard timeout.

    Distinct from a TBQ deadline: a deadline is a *search budget* the
    engine honours by returning an anytime answer, while the hard
    timeout is a promise that the request's future resolves at all —
    the backstop against a hung worker or a wedged pool.
    """


class RetryExhaustedError(ServeError):
    """A retryable failure persisted past the retry budget.

    ``__cause__`` carries the last underlying failure.
    """
