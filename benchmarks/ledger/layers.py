"""Per-layer metrics: what each module of the program costs and counts.

Three sources, all outside the program (it has no tracing of its own yet):

- **standalone probes** time one public call of one layer on the generated
  inputs (freeze the graph, publish it, pickle a request, ...).  They
  describe the program on this input set and read the same on every
  workload;
- **differential probes** price what cannot be entered from outside — the
  process pool, the supervisor, the dispatch path — as the difference
  between two ways of answering the same query;
- the **replay** runs the workload's own request sequence with one client,
  once untraced and then with the span wrappers of :mod:`trace` installed,
  and reads the program's public result and statistics objects.

A metric whose mechanism a workload does not have (no answer cache, no
deadline, no queue) reads 0 there.  Times are in reference-speed units like
the end-to-end metrics; ``machine.speed`` gives the factor and ``raw.*``
the wall-clock readings.
"""

from __future__ import annotations

import pickle
import statistics
import time
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inputs, trace, workloads
from .clock import VirtualClock

#: name -> (unit, better).  The order is the order of the README glossary.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "scenarios.generate_s": ("s", "lower"),
    "query.decompose_ms": ("ms", "lower"),
    "query.subqueries_per_query": ("count", "lower"),
    "embedding.similarity_row_ms": ("ms", "lower"),
    "embedding.row_hit_rate": ("share", "higher"),
    "kg.freeze_s": ("s", "lower"),
    "kg.shard_build_s": ("s", "lower"),
    "kg.shm_publish_s": ("s", "lower"),
    "kg.shm_attach_ms": ("ms", "lower"),
    "kg.resident_mb": ("MB", "lower"),
    "kg.shard_max_resident_mb": ("MB", "lower"),
    "kg.shard_cut_edge_share": ("share", "lower"),
    "kg.sharded_incident_us": ("us", "lower"),
    "core.view_incident_us": ("us", "lower"),
    "core.row_materialise_ms": ("ms", "lower"),
    "core.row_hit_rate": ("share", "higher"),
    "core.search_ms_per_query": ("ms", "lower"),
    "core.expansions_per_query": ("count", "lower"),
    "core.us_per_expansion": ("us", "lower"),
    "core.stale_pop_share": ("share", "lower"),
    "core.pruned_by_tau_share": ("share", "higher"),
    "core.assembly_ms_per_query": ("ms", "lower"),
    "core.ta_rounds_per_query": ("count", "lower"),
    "core.ta_accesses_per_query": ("count", "lower"),
    "core.tbq_bound_use_share": ("share", "lower"),
    "core.tbq_overrun_p95_ms": ("ms", "lower"),
    "core.tbq_slower_than_exact_share": ("share", "lower"),
    "serve.dispatch_overhead_us": ("us", "lower"),
    "serve.supervised_overhead_us": ("us", "lower"),
    "serve.cache_probe_us": ("us", "lower"),
    "serve.hit_latency_us": ("us", "lower"),
    "serve.answer_hit_rate": ("share", "higher"),
    "serve.answer_evictions": ("count", "lower"),
    "serve.singleflight_collapsed": ("count", "higher"),
    "serve.request_pickle_bytes": ("B", "lower"),
    "serve.payload_pickle_bytes": ("B", "lower"),
    "serve.spec_pickle_bytes": ("B", "lower"),
    "serve.pickle_roundtrip_us": ("us", "lower"),
    "serve.ipc_overhead_ms": ("ms", "lower"),
    "serve.pool_start_s": ("s", "lower"),
    "serve.worker_rss_mb": ("MB", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.generator_lag_p95_ms": ("ms", "lower"),
    "serve.backlog_at_last_arrival": ("count", "lower"),
    "serve.cold_pass_s": ("s", "lower"),
    "serve.latency_p99_ms": ("ms", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.attributed_share": ("share", "higher"),
    # Share of request wall time that is each group's self time.
    "trace.self_share.query.decompose": ("share", "lower"),
    "trace.self_share.embedding.rows": ("share", "lower"),
    "trace.self_share.core.rows": ("share", "lower"),
    "trace.self_share.core.search": ("share", "lower"),
    "trace.self_share.core.assembly": ("share", "lower"),
    "trace.self_share.core.tbq_coordinator": ("share", "lower"),
    "trace.self_share.core.engine": ("share", "lower"),
    "trace.self_share.kg.sharded": ("share", "lower"),
    "trace.self_share.serve.answer_cache": ("share", "lower"),
    "trace.self_share.serve.backends": ("share", "lower"),
    "trace.self_share.serve.dispatch": ("share", "lower"),
    "trace.self_share.harness.wait": ("share", "lower"),
    # What the host was doing while all of the above was measured.
    "machine.speed": ("share", "higher"),
    "machine.speed_spread": ("share", "lower"),
    "raw.qps": ("1/s", "higher"),
    "raw.latency_p50_ms": ("ms", "lower"),
    "raw.latency_p95_ms": ("ms", "lower"),
}

Metric = Tuple[float, int]  # value, samples behind it

#: Requests per differential probe: every fifth pool query, all intents.
SAMPLE_STRIDE = 5
#: How many of those (the quickest) carry the microsecond-scale differences.
QUICK_SAMPLE = 20
PAIRED_REPEATS = 5
INCIDENT_PROBES = 1000


def _seconds(clock: VirtualClock, fn: Callable[[], object]) -> Tuple[float, object]:
    """Reference seconds ``fn`` took, probing the host on either side."""
    clock.probe()
    started = time.perf_counter()
    out = fn()
    ended = time.perf_counter()
    clock.probe()
    return (ended - started) * clock.speed(), out


# ----------------------------------------------------------------------
# standalone probes
# ----------------------------------------------------------------------

def standalone_probes(
    api: SimpleNamespace, pool: inputs.Pool, clock: VirtualClock
) -> Dict[str, Metric]:
    res = pool.resources
    out: Dict[str, Metric] = {"scenarios.generate_s": (pool.generate_s, 1)}
    n = len(pool)

    # query: cold decomposition of every pool query.
    engine = api.SemanticGraphQueryEngine(res.kg, res.space, res.library, res.config)
    spent, decompositions = _seconds(
        clock, lambda: [engine.decompose(r.query) for r in pool.requests]
    )
    out["query.decompose_ms"] = (spent / n * 1e3, n)
    out["query.subqueries_per_query"] = (
        sum(len(d.subqueries) for d in decompositions) / n, n,
    )

    # embedding: every similarity row once, on an empty row cache.
    space = res.space.with_private_rows()
    predicates = space.predicates()
    spent, _ = _seconds(
        clock, lambda: [space.similarity_row(p) for p in predicates]
    )
    out["embedding.similarity_row_ms"] = (spent / len(predicates) * 1e3, len(predicates))

    # kg: freeze, shard, publish, attach.
    spent, compact = _seconds(clock, lambda: api.CompactGraph.freeze(res.kg))
    out["kg.freeze_s"] = (spent, 1)
    spent, sharded = _seconds(
        clock, lambda: api.ShardedGraph.build(res.kg, 4, strategy="hash")
    )
    out["kg.shard_build_s"] = (spent, 1)
    spent, lease = _seconds(clock, compact.to_shared)
    try:
        out["kg.shm_publish_s"] = (spent, 1)
        spent, attached = _seconds(
            clock, lambda: api.CompactGraph.from_handle(lease.handle)
        )
        out["kg.shm_attach_ms"] = (spent * 1e3, 1)
        del attached
    finally:
        lease.close()
    out["kg.resident_mb"] = (api.compact_resident_bytes(compact) / 1e6, 1)
    out["kg.shard_max_resident_mb"] = (sharded.max_resident_bytes() / 1e6, 1)
    out["kg.shard_cut_edge_share"] = (sharded.cut_edges / res.kg.num_edges, 1)

    # The same seeded (uid, predicate) probes through both views.
    query_predicates = sorted(
        {e.predicate for r in pool.requests for e in r.query.edges()}
    )
    rng = np.random.default_rng([pool.pool_seed, 0x1C1D])
    probes = [
        (int(rng.integers(res.kg.num_entities)),
         query_predicates[int(rng.integers(len(query_predicates)))])
        for _ in range(INCIDENT_PROBES)
    ]
    min_weight = res.config.min_weight
    views = {
        "core.view_incident_us": api.CompactViewFactory(compact)(
            res.kg, res.space, min_weight=min_weight, cache=None
        ),
        "kg.sharded_incident_us": api.ShardedViewFactory(sharded)(
            res.kg, res.space, min_weight=min_weight, cache=None
        ),
    }
    for name, view in views.items():
        for predicate in query_predicates:  # rows first: time the gather only
            for _ in view.weighted_incident(0, predicate):
                break

        def gather(view=view):
            for uid, predicate in probes:
                for _ in view.weighted_incident(uid, predicate):
                    pass

        spent, _ = _seconds(clock, gather)
        out[name] = (spent / len(probes) * 1e6, len(probes))

    # core: one weight row plus one bounds row per query predicate, on a
    # view that has none (the space's similarity rows are warm by now).
    view = api.CompactViewFactory(compact)(
        res.kg, res.space, min_weight=min_weight, cache=None
    )
    spent, _ = _seconds(
        clock,
        lambda: [
            (view.weight_row_array(p), view.bounds_row_array(p))
            for p in query_predicates
        ],
    )
    out["core.row_materialise_ms"] = (
        spent / len(query_predicates) * 1e3, len(query_predicates),
    )
    return out


# ----------------------------------------------------------------------
# differential probes of the serving layer
# ----------------------------------------------------------------------

def _latency(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _paired_overhead(
    clock: VirtualClock,
    pairs: Sequence[Tuple[Callable[[], object], Callable[[], object]]],
) -> Metric:
    """Median, in reference seconds, of what the first of each ``(with,
    without)`` pair adds: the two are timed back to back, so a change of
    host speed between them cannot pass for a difference."""
    differences: List[float] = []
    clock.probe()
    for with_layer, without_layer in pairs:
        for _ in range(PAIRED_REPEATS):
            differences.append(_latency(with_layer) - _latency(without_layer))
        clock.maybe_probe()
    return statistics.median(differences) * clock.speed(), len(differences)


def serving_probes(
    api: SimpleNamespace, pool: inputs.Pool, clock: VirtualClock
) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    requests = pool.requests[::SAMPLE_STRIDE]

    def through(service, request) -> Callable[[], object]:
        return lambda: service.submit_request(request).result()

    with ExitStack() as stack:
        def serve(**kwargs):
            service = workloads.build_service(
                api, pool, {"backend": "inline", "compact": True, **kwargs}
            )
            stack.callback(service.close)
            return service

        inline = serve()
        engine = inline.engine
        for request in requests:  # warm
            through(inline, request)()
        inline_s = [_latency(through(inline, r)) for r in requests]
        # Microsecond differences need millisecond queries: the quickest.
        quick = [
            requests[i]
            for i in sorted(range(len(requests)), key=inline_s.__getitem__)
        ][:QUICK_SAMPLE]
        plans = [engine.decompose(r.query) for r in quick]
        direct = [
            lambda r=r, p=p: engine.search(r.query, r.k, decomposition=p)
            for r, p in zip(quick, plans)
        ]

        def added_by(service, unit: float) -> Metric:
            for request in quick:  # warm
                through(service, request)()
            seconds, n = _paired_overhead(
                clock, [(through(service, r), d) for r, d in zip(quick, direct)]
            )
            return seconds * unit, n

        out["serve.dispatch_overhead_us"] = added_by(inline, 1e6)
        out["serve.supervised_overhead_us"] = added_by(serve(supervised=True), 1e6)

        # One client through the process pool against the inline service on
        # the same queries: what pickling, the pool and the pipe add.
        spent, pooled = _seconds(
            clock,
            lambda: serve(**workloads.BY_NAME["exact-process-shm"].service),
        )
        out["serve.pool_start_s"] = (spent, 1)
        out["serve.spec_pickle_bytes"] = (len(pickle.dumps(pooled.spec)), 1)
        for request in quick:  # either worker may take a query: warm both
            through(pooled, request)()
        ipc_s, n = _paired_overhead(
            clock, [(through(pooled, r), through(inline, r)) for r in quick]
        )
        out["serve.ipc_overhead_ms"] = (ipc_s * 1e3, n)
        rows = pooled.worker_snapshots()
        out["serve.worker_rss_mb"] = (
            statistics.mean(row.max_rss_kb for row in rows) / 1024.0, len(rows),
        )

        # Bytes and time of what crosses the process boundary.
        payloads = [
            api.QueryResultPayload.from_result(through(inline, r)())
            for r in requests
        ]
        out["serve.request_pickle_bytes"] = (
            statistics.mean(len(pickle.dumps(r)) for r in requests), len(requests),
        )
        out["serve.payload_pickle_bytes"] = (
            statistics.mean(len(pickle.dumps(p)) for p in payloads), len(payloads),
        )

        def roundtrip() -> None:
            for request, payload in zip(requests, payloads):
                pickle.loads(pickle.dumps(request))
                pickle.loads(pickle.dumps(payload))

        spent, _ = _seconds(clock, roundtrip)
        out["serve.pickle_roundtrip_us"] = (spent / len(requests) * 1e6, len(requests))

        # The answer cache: the probe alone, then a whole hit.
        cached = serve(answer_cache=len(pool))
        fingerprint = api.EngineFingerprint.from_engine(cached.engine)
        for request in requests:  # fill
            through(cached, request)()
        spent, probed = _seconds(
            clock,
            lambda: [
                cached.answer_cache.lookup(api.canonicalize(r, fingerprint))
                for _ in range(PAIRED_REPEATS) for r in requests
            ],
        )
        out["serve.cache_probe_us"] = (spent / len(probed) * 1e6, len(probed))
        clock.probe()
        hits = [
            _latency(through(cached, r))
            for _ in range(PAIRED_REPEATS) for r in requests
        ]
        clock.probe()
        out["serve.hit_latency_us"] = (
            statistics.median(hits) * clock.speed() * 1e6, len(hits),
        )
    return out


# ----------------------------------------------------------------------
# the workload's own replay, untraced then traced
# ----------------------------------------------------------------------

def _hit_rates(service) -> Tuple[float, float]:
    """``(space row hit rate, weight row hit rate)`` of the serving caches;
    a sharded service keeps them per shard."""
    report = service.serving_stats()
    if report.shards:
        space_hits = sum(row.space.hits for row in report.shards if row.space)
        space_all = sum(row.space.lookups for row in report.shards if row.space)
        cache_hits = sum(row.cache.hits for row in report.shards)
        cache_all = sum(row.cache.lookups for row in report.shards)
        return (
            space_hits / space_all if space_all else 0.0,
            cache_hits / cache_all if cache_all else 0.0,
        )
    return report.space.hit_rate, report.cache.hit_rate


def _core_metrics(executed: Sequence, speed: float) -> Dict[str, Metric]:
    """Search and assembly cost from the program's own result objects."""
    count = len(executed)
    if not count:
        return {}
    expansions = sum(r.expansions for r in executed)
    stale = sum(r.stale_pops for r in executed)
    pruned = sum(r.pruned_by_tau for r in executed)
    arrivals = sum(
        st.states_generated + st.pruned_by_tau + st.pruned_by_visited
        for r in executed for st in r.subquery_stats
    )
    search_s = sum(r.search_seconds for r in executed) * speed
    assembly_s = sum(r.assembly_seconds for r in executed) * speed
    return {
        "core.search_ms_per_query": (search_s / count * 1e3, count),
        "core.expansions_per_query": (expansions / count, count),
        "core.us_per_expansion": (
            search_s / expansions * 1e6 if expansions else 0.0, expansions,
        ),
        "core.stale_pop_share": (
            stale / (expansions + stale) if expansions + stale else 0.0,
            expansions + stale,
        ),
        "core.pruned_by_tau_share": (
            pruned / arrivals if arrivals else 0.0, arrivals,
        ),
        "core.assembly_ms_per_query": (assembly_s / count * 1e3, count),
        "core.ta_rounds_per_query": (sum(r.ta_rounds for r in executed) / count, count),
        "core.ta_accesses_per_query": (
            sum(r.ta_accesses for r in executed) / count, count,
        ),
    }


def replay_metrics(
    api: SimpleNamespace,
    spec: workloads.WorkloadSpec,
    pool: inputs.Pool,
    golden: Dict[str, List[int]],
    seed: int,
    seconds: float,
    clock: VirtualClock,
    trace_path: Optional[Path],
) -> Tuple[Dict[str, Metric], workloads.Verdict]:
    out: Dict[str, Metric] = {name: (0.0, 0) for name in PER_LAYER}
    service = workloads.build_service(api, pool, spec.service)
    try:
        out["serve.cold_pass_s"] = (
            workloads.cold_pass(service, pool) * clock.speed(), len(pool),
        )
        make = workloads.request_maker(api, spec, pool, clock)

        def one_client(maker=make, **how) -> workloads.LoadResult:
            return workloads.run_closed(
                service, workloads.request_units(spec, pool, seed), maker, clock,
                clients=1, keep_results=True, **how,
            )

        untraced = one_client(seconds=0.0, max_units=1)
        # Warm exact one-client latency of each query, for the two
        # differences below (TBQ against exact, open loop against closed).
        exact = untraced if spec.exact else one_client(
            pool.requests.__getitem__, seconds=0.0, max_units=1
        )
        exact_s = {s.index: s.end - s.start for s in exact.samples}

        tracer = trace.Tracer()
        with trace.installed(tracer):
            traced = one_client(seconds=seconds, bracket=tracer.request)
        if trace_path is not None:
            tracer.write(trace_path)
        samples = traced.samples
        verdict = workloads.judge(spec, pool, golden, traced, clock)
        speed = clock.speed()

        # trace validity: the same first unit, traced against untraced
        unit = len(untraced.samples)
        t = clock.virtual([
            traced.started, samples[unit - 1].end, untraced.started, untraced.ended,
        ])
        out["trace.overhead_share"] = ((t[1] - t[0]) / (t[3] - t[2]) - 1.0, unit)
        roots = tracer.root_seconds()
        groups = tracer.group_self_seconds()
        for group, own in groups.items():
            out[f"trace.self_share.{group}"] = (own / roots, len(samples))
        if set(out) != set(PER_LAYER):
            raise KeyError(f"span groups without a metric: {set(out) - set(PER_LAYER)}")
        out["trace.attributed_share"] = (
            1.0 - groups.get(trace.ROOT_GROUP, 0.0) / roots, len(samples),
        )

        # An answer served from the cache did no search: only requests that
        # reached a backend count towards the core metrics.
        reached = tracer.requests_with("serve.backend_submit")
        out.update(_core_metrics(
            [s.result for n, s in enumerate(samples) if n in reached and s.result],
            speed,
        ))
        space_rate, row_rate = _hit_rates(service)
        out["embedding.row_hit_rate"] = (space_rate, len(samples))
        out["core.row_hit_rate"] = (row_rate, len(samples))

        stats = service.stats_snapshot()
        lookups = stats.answer_hits + stats.answer_misses
        out["serve.answer_hit_rate"] = (
            stats.answer_hits / lookups if lookups else 0.0, lookups,
        )
        out["serve.answer_evictions"] = (stats.answer_evictions, lookups)
        out["serve.singleflight_collapsed"] = (stats.singleflight_collapsed, lookups)

        if not spec.exact:
            bound_s = spec.deadline_ms / 1000.0
            latencies = verdict.latencies_s
            out["core.tbq_bound_use_share"] = (
                float(np.median(latencies)) / bound_s, len(latencies),
            )
            out["core.tbq_overrun_p95_ms"] = (
                workloads.percentile(np.maximum(latencies - bound_s, 0.0), 95) * 1e3,
                len(latencies),
            )
            slower = sum(
                raw > exact_s[s.index]
                for s, raw in zip(samples, verdict.raw_latencies_s)
            )
            out["core.tbq_slower_than_exact_share"] = (slower / len(samples), len(samples))

        if spec.loop == "open":
            # Queueing only exists with arrivals on a schedule: an untraced
            # open-loop phase, judged like the measured one.
            opened = workloads.run_open(
                service, workloads.request_units(spec, pool, seed), make, clock,
                rate=spec.rate, seconds=seconds, schedule_seed=pool.pool_seed,
            )
            judged = workloads.judge(spec, pool, golden, opened, clock)
            waits = [
                raw - exact_s[s.index]
                for s, raw in zip(opened.samples, judged.raw_latencies_s)
            ]
            lags = [s.submitted - s.start for s in opened.samples]
            out["serve.queue_wait_ms"] = (
                statistics.median(waits) * clock.speed() * 1e3, len(waits),
            )
            out["serve.generator_lag_p95_ms"] = (
                workloads.percentile(lags, 95) * clock.speed() * 1e3, len(lags),
            )
            out["serve.backlog_at_last_arrival"] = (opened.backlog_at_last_arrival, 1)
            verdict.failed += judged.failed
            verdict.attempted += judged.attempted
            verdict.examples.extend(judged.examples)

        raw = np.array([s.end - s.start for s in untraced.samples])
        out["serve.latency_p99_ms"] = (
            workloads.percentile(raw, 99) * clock.speed() * 1e3, unit,
        )
        out["raw.qps"] = (unit / (untraced.ended - untraced.started), unit)
        out["raw.latency_p50_ms"] = (workloads.percentile(raw, 50) * 1e3, unit)
        out["raw.latency_p95_ms"] = (workloads.percentile(raw, 95) * 1e3, unit)
    finally:
        service.close()
    return out, verdict
