"""What crosses the process seam per request, as it crosses it.

A process worker replies with a :class:`~repro.core.results.QueryResultPayload`
and a :class:`~repro.serve.backends.WorkerSnapshot`, and receives a
:class:`~repro.serve.service.QueryRequest`; each pickles as builtins only
and is rebuilt into equal value objects by one module-level function.
These tests hold that form to the object form on a five-intent query pool
(the perf ledger's smoke recipe): equal results, the components' order
and no class but the rebuild function named in a pickle.  That a process
service answers as the oracle does is a column of
``tests/test_conformance.py``.  A worker's failure crosses the same
seam, so every library error must survive ``pickle`` too.
"""

import inspect
import io
import pickle
import pickletools

import pytest

import repro.errors as errors
from repro.core.results import QueryResultPayload
from repro.scenarios import WorkloadBuilder, build_resources
from repro.serve.service import QueryRequest, QueryService

INTENTS = ("star", "chain", "noisy_predicate", "entity_heavy", "tau_stress")

#: Opcodes that instantiate a class or name a global other than through
#: the one STACK_GLOBAL a rebuild function needs.
OBJECT_OPCODES = {"GLOBAL", "INST", "OBJ", "NEWOBJ", "NEWOBJ_EX", "BUILD"}


@pytest.fixture(scope="module")
def pool():
    workload = (
        WorkloadBuilder("wire", seed=7)
        .domain("dbpedia", scale=1.0, generator_seed=11)
        .intents(**{intent: 5 for intent in INTENTS})
        .top_k(5)
        .tau(0.8)
        .augment(paraphrase_fraction=0.25, node_noise_fraction=0.25, min_similarity=0.8)
        .build()
    )
    return workload, build_resources(workload)


@pytest.fixture(scope="module")
def answered(pool):
    """``(intent, request, inline result)`` for every pool query."""
    workload, res = pool
    with QueryService.build(res.kg, res.space, res.library, res.config) as service:
        out = []
        for query in workload.queries:
            request = QueryRequest(query=query.query, k=workload.k, tag=query.qid)
            result = service.submit_request(request).result()
            out.append((query.intent, request, result))
    return out


def _globals_named(blob: bytes):
    """``module.name`` of every global the pickle loads, in load order."""
    named = []

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            named.append(f"{module}.{name}")
            return super().find_class(module, name)

    Recorder(io.BytesIO(blob)).load()
    return named


def _assert_builtins_only(blob: bytes, rebuild: str) -> None:
    opcodes = [op.name for op, _arg, _pos in pickletools.genops(blob)]
    assert not OBJECT_OPCODES & set(opcodes), sorted(OBJECT_OPCODES & set(opcodes))
    assert opcodes.count("STACK_GLOBAL") == 1
    assert _globals_named(blob) == [rebuild]


class TestPayloadWireForm:
    def test_pool_covers_every_intent_and_multi_subquery(self, answered):
        intents = {intent.replace("-", "_") for intent, _r, _res in answered}
        assert intents == set(INTENTS)
        assert any(len(result.subquery_stats) > 1 for _i, _r, result in answered)
        assert any(result.matches for _i, _r, result in answered)

    def test_roundtrip_to_result_equals_result(self, answered):
        for _intent, request, result in answered:
            payload = QueryResultPayload.from_result(result)
            thawed = pickle.loads(pickle.dumps(payload))
            assert thawed == payload, request.tag
            assert thawed.to_result() == result, request.tag

    def test_component_order_survives(self, answered):
        # Dict equality ignores insertion order; the TA's does not.
        for _intent, request, result in answered:
            thawed = pickle.loads(pickle.dumps(QueryResultPayload.from_result(result)))
            assert [list(final.components) for final in thawed.matches] == [
                list(final.components) for final in result.matches
            ], request.tag

    def test_pickle_names_only_the_rebuild_function(self, answered):
        for _intent, _request, result in answered:
            _assert_builtins_only(
                pickle.dumps(QueryResultPayload.from_result(result)),
                "repro.core.results._payload_from_wire",
            )

    def test_request_pickle_names_only_the_rebuild_function(self, answered):
        for _intent, request, _result in answered:
            blob = pickle.dumps(request)
            _assert_builtins_only(blob, "repro.serve.service._request_from_wire")
            thawed = pickle.loads(blob)
            assert thawed.query.nodes() == request.query.nodes()
            assert thawed.query.edges() == request.query.edges()
            assert (thawed.k, thawed.tag) == (request.k, request.tag)

    def test_snapshot_pickle_names_only_the_rebuild_function(self, pool, answered):
        _workload, res = pool
        with QueryService.build(res.kg, res.space, res.library, res.config) as service:
            service.submit_request(answered[0][1]).result()
            (snapshot,) = service.worker_snapshots()
        blob = pickle.dumps(snapshot)
        _assert_builtins_only(blob, "repro.serve.backends._snapshot_from_wire")
        assert pickle.loads(blob) == snapshot
        assert snapshot.cache.lookups > 0


def _error_classes():
    return sorted(
        (
            cls
            for _name, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.ReproError)
        ),
        key=lambda cls: cls.__name__,
    )


#: Constructor arguments of the errors that format their own message.
_ERROR_ARGS = {
    errors.UnknownEntityError: ("Person_9",),
    errors.UnknownPredicateError: ("bornIn",),
}


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_library_error_survives_pickle(cls):
    error = cls(*_ERROR_ARGS.get(cls, ("something went wrong",)))
    thawed = pickle.loads(pickle.dumps(error))
    assert type(thawed) is cls
    assert str(thawed) == str(error)
    assert vars(thawed) == vars(error)


def test_unknown_entity_message_is_not_wrapped_twice():
    thawed = pickle.loads(pickle.dumps(errors.UnknownEntityError("Person_9")))
    assert str(thawed) == "unknown entity: 'Person_9'"
    assert thawed.key == "Person_9"
