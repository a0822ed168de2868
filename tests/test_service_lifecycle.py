"""A closed service is freed by reference counting alone.

The collector is off in every test here, so anything a service, its
backend or a request leaves in a reference cycle stays visible: after
``close(); del service`` the engine and the frozen store the service built
must already be dead, and one pass of requests through an inline service
must leave no cyclic garbage behind.  Otherwise every closed service (and
every set-up cycle of the perf ledger) would keep a whole engine and graph
store alive until CPython's next full collection.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.kg.compact import CompactGraph
from repro.kg.sharded import ShardedGraph
from repro.scenarios import WorkloadBuilder, build_resources
from repro.serve.faults import FaultPlan
from repro.serve.service import QueryRequest, QueryService


@pytest.fixture(scope="module")
def smoke_pool():
    """The perf ledger's smoke-sized pool: 25 queries over dbpedia at
    scale 1.0."""
    workload = (
        WorkloadBuilder("ledger", seed=7)
        .domain("dbpedia", scale=1.0, generator_seed=11)
        .intents(star=5, chain=5, noisy_predicate=5, entity_heavy=5, tau_stress=5)
        .top_k(5)
        .tau(0.8)
        .augment(
            paraphrase_fraction=0.25, node_noise_fraction=0.25,
            min_similarity=0.8,
        )
        .build()
    )
    requests = [
        QueryRequest(query=q.query, k=workload.k, tag=q.qid)
        for q in workload.queries
    ]
    return build_resources(workload), requests


@pytest.fixture()
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture()
def built_stores(monkeypatch):
    """Weak references to every frozen store built from here on."""
    stores = []
    for owner, name in ((CompactGraph, "freeze"), (ShardedGraph, "build")):
        build = getattr(owner, name)

        def recording(cls, *args, _build=build, **kwargs):
            store = _build(*args, **kwargs)
            stores.append(weakref.ref(store))
            return store

        monkeypatch.setattr(owner, name, classmethod(recording))
    return stores


def build_service(resources, **options):
    return QueryService.build(
        resources.kg, resources.space, resources.library, resources.config,
        **options,
    )


SERVICES = {
    "inline": {},
    "inline-answer-cache": {"answer_cache": 8},
    "inline-supervised": {"supervised": True},
    "process": {"backend": "process", "workers": 1},
    "process-supervised-faults": {
        "backend": "process",
        "workers": 1,
        "fault_plan": FaultPlan(crash_at=(2,), transient_at=(1,), seed=11),
    },
    "inline-4-shards": {"shards": 4},
}


@pytest.mark.parametrize("options", SERVICES.values(), ids=SERVICES.keys())
def test_close_then_del_frees_engine_and_store(
    smoke_pool, built_stores, collector_off, options
):
    resources, requests = smoke_pool
    service = build_service(resources, **options)
    results = service.search_many(requests[:4])
    assert all(result.matches for result in results)
    assert built_stores[-1]() is not None
    if "fault_plan" in options:  # the pool broke and was rebuilt
        assert service.stats_snapshot().resilience.pool_rebuilds == 1
    # A process service builds no engine in this process.
    engine = None if service.engine is None else weakref.ref(service.engine)
    assert (engine is None) == ("backend" in options)
    service.close()
    del service, results
    assert [ref() for ref in built_stores] == [None] * len(built_stores)
    if engine is not None:
        assert engine() is None


def test_five_set_up_cycles_keep_one_store(smoke_pool, built_stores, collector_off):
    """The perf ledger's set-up loop: each service is closed and dropped
    before the next one is built."""
    resources, requests = smoke_pool
    for _ in range(5):
        service = build_service(resources)
        service.search_many(requests[:2])
        service.close()
        alive = [ref for ref in built_stores if ref() is not None]
        assert len(alive) <= 1
    del service
    assert all(ref() is None for ref in built_stores)


@pytest.mark.parametrize(
    "options",
    [{}, {"answer_cache": 8}, {"supervised": True}],
    ids=["plain", "answer-cache", "supervised"],
)
def test_an_inline_pass_leaves_no_cyclic_garbage(smoke_pool, options):
    resources, requests = smoke_pool
    with build_service(resources, **options) as service:
        gc.collect()
        gc.disable()
        try:
            results = service.search_many(requests)
            assert len(results) == len(requests)
            del results
            assert gc.collect() == 0
        finally:
            gc.enable()
