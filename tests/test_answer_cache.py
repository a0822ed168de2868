"""Answer-cache suite: canonical keys, retention, singleflight, composition.

Covers the three claims the result-level cache makes:

1. :func:`~repro.serve.answer_cache.canonicalize` is a *sound* key —
   relabelled and alias spellings of the same declared query share one
   picklable key, while anything of the request that is result-relevant
   (``k``, pivot, strategy, predicates, declaration order) keeps keys
   apart, and equal keys always mean equal engine answers; the engine's
   graph, space and configuration enter no key, because a cache serves
   the one service that owns it;
2. :class:`~repro.serve.answer_cache.AnswerCache` is a correct bounded
   store that retains by hits × measured search time over an
   aging floor (LRU on ties), with a singleflight protocol: N
   concurrent identical misses run the engine exactly once;
3. composed into :class:`~repro.serve.service.QueryService`, a hit is
   bit-identical to recomputation, bypasses TBQ by design, and — under
   supervision — consumes no retry budget and is never shed by
   ``max_pending`` admission (it never becomes a backend attempt).
"""

import pickle
import random
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.equivalence import final_matches_differ
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.errors import OverloadError, QueryError, ServeError
from repro.kg.schema import preset_schema
from repro.query.builder import QueryGraphBuilder
from repro.query.model import QueryEdge, QueryGraph, QueryNode
from repro.query.transform import TransformationLibrary
from repro.scenarios.suite import WorkloadBuilder
from repro.serve.answer_cache import (
    AnswerCache,
    CanonicalQueryKey,
    EngineFingerprint,
    canonicalize,
)
from repro.serve.service import QueryRequest, QueryService

K = 5


def _fingerprint(library=None):
    return EngineFingerprint(library)


def _product_query(target_type="Automobile", name="Germany", name_type="Country"):
    return (
        QueryGraphBuilder()
        .target("v1", target_type)
        .specific("v2", name, name_type)
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _flipped_product_query():
    """Same query as :func:`_product_query`, nodes declared in reverse."""
    return (
        QueryGraphBuilder()
        .specific("v2", "Germany", "Country")
        .target("v1", "Automobile")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _relabelled_product_query():
    """Same query as :func:`_product_query`, every label renamed."""
    return (
        QueryGraphBuilder()
        .target("car", "Automobile")
        .specific("origin", "Germany", "Country")
        .edge("made_in", "car", "product", "origin")
        .build()
    )


def _two_target_chain(country_first):
    """``Person_211 -team-> ?SoccerClub -friendlyMatchIn-> ?Country
    <-assembly- Automobile_122``: both targets cost the same as a pivot,
    so the one declared first wins the tie and is what gets answered."""
    builder = QueryGraphBuilder().specific("p", "Person_211", "Person")
    if country_first:
        builder = builder.target("c", "Country").target("s", "SoccerClub")
    else:
        builder = builder.target("s", "SoccerClub").target("c", "Country")
    return (
        builder.specific("a", "Automobile_122", "Automobile")
        .edge("e1", "p", "team", "s")
        .edge("e2", "s", "friendlyMatchIn", "c")
        .edge("e3", "a", "assembly", "c")
        .build()
    )


def _request(query, **kwargs):
    kwargs.setdefault("k", K)
    return QueryRequest(query=query, **kwargs)


@pytest.fixture(scope="module")
def dbpedia_library():
    return TransformationLibrary.from_schema(preset_schema("dbpedia"))


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------

class TestCanonicalQueryKey:
    def test_identical_requests_share_a_key(self):
        fp = _fingerprint()
        a = canonicalize(_request(_product_query()), fp)
        b = canonicalize(_request(_product_query()), fp)
        assert a == b
        assert hash(a) == hash(b)

    def test_relabelling_collapses_but_node_order_does_not(self):
        """Labels are erased; declaration order is kept, because the
        decomposition breaks its ties by it."""
        fp = _fingerprint()
        a = canonicalize(_request(_product_query()), fp)
        assert a == canonicalize(_request(_relabelled_product_query()), fp)
        assert a != canonicalize(_request(_flipped_product_query()), fp)

    def test_tied_pivots_in_another_order_are_keyed_apart(self, small_bundle):
        """The collision a permutation-invariant key had: two spellings
        of one two-target chain decompose around different pivots, and
        a cached service returns for each what an uncached engine does."""
        spellings = [_two_target_chain(False), _two_target_chain(True)]
        fp = _fingerprint(library=small_bundle.library)
        keys = [canonicalize(_request(query), fp) for query in spellings]
        assert keys[0] != keys[1]
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        expected = [engine.search(query, k=K) for query in spellings]
        assert expected[0].answer_uids() != expected[1].answer_uids()
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=8,
        ) as service:
            served = [service.submit(query, k=K).result() for query in spellings]
            assert service.stats_snapshot().answer_misses == 2
        for want, got in zip(expected, served):
            _assert_same_answer(want, got)

    def test_alias_spellings_collapse_through_the_library(self, dbpedia_library):
        fp = _fingerprint(library=dbpedia_library)
        canonical = canonicalize(_request(_product_query()), fp)
        # "Car" is a synonym of "Automobile"; "GER" abbreviates "Germany".
        paraphrase = canonicalize(
            _request(_product_query(target_type="Car", name="GER")), fp
        )
        assert canonical == paraphrase

    def test_without_a_library_aliases_stay_distinct(self):
        fp = _fingerprint(library=None)
        a = canonicalize(_request(_product_query()), fp)
        b = canonicalize(_request(_product_query(target_type="Car")), fp)
        assert a != b

    def test_predicate_paraphrases_never_collapse(self, dbpedia_library):
        """Predicates match via the embedding space, not the library —
        two spellings may rank candidates differently, so they must not
        share an answer."""
        fp = _fingerprint(library=dbpedia_library)
        product = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        assembly = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "assembly", "v2")
            .build()
        )
        assert canonicalize(_request(product), fp) != canonicalize(
            _request(assembly), fp
        )

    def test_k_enters_the_key(self):
        fp = _fingerprint()
        assert canonicalize(_request(_product_query(), k=5), fp) != canonicalize(
            _request(_product_query(), k=6), fp
        )

    def test_explicit_pivot_is_keyed_positionally(self):
        fp = _fingerprint()
        base = canonicalize(_request(_product_query()), fp)
        on_v1 = canonicalize(_request(_product_query(), pivot="v1"), fp)
        on_v2 = canonicalize(_request(_product_query(), pivot="v2"), fp)
        assert base != on_v1
        assert on_v1 != on_v2
        # The declared *position* is keyed: the same pivot forced on a
        # relabelled spelling shares the key, on a permuted one it does not.
        relabelled = canonicalize(
            _request(_relabelled_product_query(), pivot="car"), fp
        )
        flipped = canonicalize(_request(_flipped_product_query(), pivot="v1"), fp)
        assert on_v1 == relabelled
        assert on_v1 != flipped
        assert (on_v1.pivot_position, flipped.pivot_position) == (0, 1)

    def test_undeclared_pivot_is_a_query_error(self):
        with pytest.raises(QueryError):
            canonicalize(_request(_product_query(), pivot="nope"), _fingerprint())

    def test_random_strategy_pins_declaration_order(self):
        """The random pivot draw indexes declaration order, which every
        key holds: permuted spellings stay apart, relabelled ones and
        identical requests share a key, and the strategy is keyed."""
        fp = _fingerprint()
        a = canonicalize(_request(_product_query(), strategy="random"), fp)
        b = canonicalize(_request(_product_query(), strategy="random"), fp)
        relabelled = canonicalize(
            _request(_relabelled_product_query(), strategy="random"), fp
        )
        flipped = canonicalize(
            _request(_flipped_product_query(), strategy="random"), fp
        )
        plain = canonicalize(_request(_product_query()), fp)
        assert a == b == relabelled
        assert a != flipped
        assert a != plain

    def test_deadline_requests_are_rejected(self):
        with pytest.raises(ServeError):
            canonicalize(_request(_product_query(), deadline=0.5), _fingerprint())

    def test_key_pickles_stably(self):
        key = canonicalize(_request(_product_query()), _fingerprint())
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)
        assert {key: "answer"}[clone] == "answer"


class TestCanonicalizationProperties:
    """Hypothesis: the invariants hold over generated scenario queries."""

    @pytest.fixture(scope="class")
    def workload_queries(self):
        # The default domain is small_bundle's graph (dbpedia, scale 1.0,
        # generator seed 11), so every query here is answerable there.
        workload = (
            WorkloadBuilder("answer-cache-props", seed=13)
            .domain("dbpedia")
            .intents(star=2, chain=2, tau_stress=1)
            .top_k(K)
            .build()
        )
        return [q.query for q in workload.queries]

    @pytest.fixture(scope="class")
    def engine(self, small_bundle):
        return SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )

    @pytest.fixture(scope="class")
    def library(self):
        return TransformationLibrary.from_schema(preset_schema("dbpedia"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relabelling_invariance(self, workload_queries, library, data):
        """Renaming labels keeps the key; reordering nodes keeps it only
        when the declared signature sequence is unchanged."""
        query = data.draw(st.sampled_from(workload_queries))
        fp = _fingerprint(library=library)
        key = canonicalize(_request(query), fp)
        relabelled = _respell(data, query, library, reorder=False)
        assert canonicalize(_request(relabelled), fp) == key
        nodes = query.nodes()
        permuted = QueryGraph(data.draw(st.permutations(nodes)), query.edges())
        if [(n.name, n.etype) for n in permuted.nodes()] != [
            (n.name, n.etype) for n in nodes
        ]:
            assert canonicalize(_request(permuted), fp) != key

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equal_keys_mean_equal_answers(
        self, workload_queries, library, engine, data
    ):
        """Key soundness: two spellings of one query that draw node and
        edge declaration orders, label renamings and alias respellings
        independently get equal uncached outcomes (answers and scores, or
        the error) whenever their keys are equal — and equal keys whenever
        only labels and aliases differ."""
        query = data.draw(
            st.sampled_from(
                workload_queries + [_two_target_chain(False), _two_target_chain(True)]
            )
        )
        strategy = data.draw(st.sampled_from(["min_cost", "random"]))
        fp = EngineFingerprint.from_engine(engine)
        first = _respell(data, query, library, reorder=True)
        same_order = data.draw(st.booleans())
        second = _respell(
            data, first if same_order else query, library, reorder=not same_order
        )
        keys = [
            canonicalize(_request(q, strategy=strategy), fp) for q in (first, second)
        ]
        if same_order:
            assert keys[0] == keys[1]
        if keys[0] != keys[1]:
            return
        assert _outcome(engine, first, strategy) == _outcome(engine, second, strategy)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), delta=st.integers(min_value=1, max_value=20))
    def test_k_inequality(self, workload_queries, data, delta):
        query = data.draw(st.sampled_from(workload_queries))
        fp = _fingerprint()
        assert canonicalize(_request(query, k=K), fp) != canonicalize(
            _request(query, k=K + delta), fp
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pickle_stability(self, workload_queries, library, data):
        query = data.draw(st.sampled_from(workload_queries))
        key = canonicalize(_request(query), _fingerprint(library=library))
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)


def _outcome(engine, query, strategy):
    """What a cache would store for ``query``: answers and scores, or the
    type of the error an undecomposable query raises."""
    try:
        result = engine.search(query, k=K, strategy=strategy)
    except QueryError as exc:
        return type(exc)
    return result.answer_uids(), [match.score for match in result.matches]


def _respell(data, query, library, *, reorder):
    """``query`` with its labels renamed (a drawn permutation of the
    label set, so two nodes may swap names), each name and type drawn
    from its alias family, and — when ``reorder`` — its nodes and edges
    declared in drawn orders."""
    nodes, edges = query.nodes(), query.edges()
    node_labels = [n.label for n in nodes]
    edge_labels = [e.label for e in edges]
    node_label = dict(zip(node_labels, data.draw(st.permutations(node_labels))))
    edge_label = dict(zip(edge_labels, data.draw(st.permutations(edge_labels))))

    def alias(text, variants):
        if text is None:
            return None
        return data.draw(st.sampled_from([text, *variants(text)]))

    nodes = [
        QueryNode(
            label=node_label[n.label],
            etype=alias(n.etype, library.type_variants),
            name=alias(n.name, library.name_variants),
        )
        for n in nodes
    ]
    edges = [
        QueryEdge(
            label=edge_label[e.label],
            source=node_label[e.source],
            predicate=e.predicate,
            target=node_label[e.target],
        )
        for e in edges
    ]
    if reorder:
        nodes = data.draw(st.permutations(nodes))
        edges = data.draw(st.permutations(edges))
    return QueryGraph(nodes, edges)


# ----------------------------------------------------------------------
# the cache data structure
# ----------------------------------------------------------------------

def _key(i):
    return CanonicalQueryKey(
        nodes=(),
        edges=(),
        k=i,
        strategy="min_cost",
    )


@dataclass(frozen=True)
class _Answer:
    """Payload stub: the cache reads nothing but ``elapsed_seconds``."""

    name: str
    elapsed_seconds: float = 0.0


def _fill(cache, key, answer):
    """Cache ``answer`` under a fresh ``key``: lead a flight and settle it."""
    state, flight = cache.acquire(key)
    assert state == "lead"
    cache.complete(flight, payload=answer)


def _request_through(cache, key, cost):
    """One request served the way the service does: hit, or lead + settle."""
    state, value = cache.acquire(key)
    if state == "lead":
        cache.complete(value, payload=_Answer("answer", cost))
    return state


class _LruOracle:
    """Recency-only retention: what the cache did before it priced answers."""

    def __init__(self, capacity):
        self.capacity, self.entries, self.saved_seconds = capacity, OrderedDict(), 0.0

    def request(self, key, cost):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.saved_seconds += cost
            return
        self.entries[key] = cost
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)


class TestAnswerCacheUnit:
    def test_capacity_validated(self):
        with pytest.raises(ServeError):
            AnswerCache(0)

    def test_lru_eviction_honours_recency(self):
        """Payloads that report no search time tie on priority: pure LRU."""
        one, two, three = _Answer("one"), _Answer("two"), _Answer("three")
        cache = AnswerCache(2)
        _fill(cache, _key(1), one)
        _fill(cache, _key(2), two)
        assert cache.acquire(_key(1)) == ("hit", one)  # touch 1 -> 2 is oldest
        _fill(cache, _key(3), three)
        assert cache.lookup(_key(2)) is None
        assert cache.lookup(_key(1)) is one
        assert cache.lookup(_key(3)) is three
        assert cache.stats().evictions == 1

    def test_lookup_is_policy_neutral(self):
        """A probe neither reorders nor counts: it cannot save an entry."""
        cache = AnswerCache(2)
        _fill(cache, _key(1), _Answer("one", 0.005))
        _fill(cache, _key(2), _Answer("two", 0.005))
        before = cache.stats()
        assert cache.lookup(_key(1)).name == "one"
        assert cache.stats() == before
        _fill(cache, _key(3), _Answer("three", 0.005))
        assert cache.lookup(_key(1)) is None
        assert cache.lookup(_key(2)).name == "two"

    def test_equal_cost_equal_count_evicts_in_lru_order(self):
        capacity = 3
        cache = AnswerCache(capacity)
        for i in range(10):
            _fill(cache, _key(i), _Answer(str(i), 0.005))
            held = [j for j in range(i + 1) if cache.lookup(_key(j)) is not None]
            assert held == list(range(max(0, i - capacity + 1), i + 1))

    def test_expensive_hot_entry_outlives_a_scan_but_is_not_immortal(self):
        capacity = 8
        cache = AnswerCache(capacity)
        hot = _key(0)
        _fill(cache, hot, _Answer("hot", 0.030))
        assert cache.acquire(hot)[0] == "hit"
        assert cache.acquire(hot)[0] == "hit"
        # A scan of one-shot cheap keys, as long as the cache: under LRU
        # the hot entry would be gone by the end of it.
        for i in range(1, 2 * capacity):
            _fill(cache, _key(i), _Answer("scan", 0.001))
        assert cache.lookup(hot) is not None
        assert cache.stats().entries == capacity
        # The floor keeps rising under the scan; the favourite nobody
        # asks for any more is overtaken eventually.
        inserts = 2 * capacity
        while cache.lookup(hot) is not None:
            _fill(cache, _key(inserts), _Answer("scan", 0.001))
            inserts += 1
            assert inserts < 200 * capacity, "hot entry never aged out"

    def test_saved_seconds_sums_cost_over_hits_and_followers(self):
        cache = AnswerCache(4)
        _, flight = cache.acquire(_key(1))
        cache.acquire(_key(1))
        cache.acquire(_key(1))
        cache.complete(flight, payload=_Answer("answer", 0.25))
        assert cache.stats().saved_seconds == 0.5  # two followers
        cache.acquire(_key(1))
        stats = cache.stats()
        assert stats.saved_seconds == 0.75
        assert "saved=750.0ms" in stats.describe()
        assert cache.stats().since(stats).saved_seconds == 0.0

    def test_saves_at_least_what_lru_saves_on_a_skewed_costly_trace(self):
        """Zipf(1.1) over 200 keys through 64 entries, 40 % of the keys
        thirty times dearer than the rest (the ledger's ``zipf-cached``
        shape): retention must spare at least the search time LRU does."""
        rng = random.Random(7)
        keys = [_key(i) for i in range(200)]
        costs = [0.030 if rng.random() < 0.4 else 0.001 for _ in keys]
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
        cache, oracle = AnswerCache(64), _LruOracle(64)
        for index in rng.choices(range(len(keys)), weights=weights, k=5000):
            _request_through(cache, keys[index], costs[index])
            oracle.request(keys[index], costs[index])
        assert cache.stats().saved_seconds >= oracle.saved_seconds
        assert cache.stats().evictions > 0

    def test_singleflight_protocol(self):
        answer = _Answer("answer")
        cache = AnswerCache(4)
        state, flight = cache.acquire(_key(1))
        assert state == "lead"
        state, future = cache.acquire(_key(1))
        assert state == "follow"
        assert not future.done()
        followers, payload, error = cache.complete(flight, payload=answer)
        assert followers == [future]
        assert (payload, error) == (answer, None)
        state, value = cache.acquire(_key(1))
        assert (state, value) == ("hit", answer)
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.singleflight_collapsed == 1
        assert stats.hits == 1
        assert stats.in_flight == 0

    def test_failed_flight_caches_nothing(self):
        cache = AnswerCache(4)
        _, flight = cache.acquire(_key(1))
        boom = RuntimeError("boom")
        followers, payload, error = cache.complete(flight, error=boom)
        assert (followers, payload, error) == ([], None, boom)
        state, _ = cache.acquire(_key(1))
        assert state == "lead"
        assert cache.stats().entries == 0


_KEY_INDEX = st.integers(min_value=0, max_value=7)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), _KEY_INDEX),
        st.tuples(st.just("complete"), _KEY_INDEX, st.booleans()),
    ),
    max_size=80,
)


class TestAnswerCacheSequences:
    """Hypothesis: any interleaving of the public operations keeps the
    bound, the per-entry bookkeeping and the singleflight contract."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=_CACHE_OPS,
        capacity=st.integers(min_value=1, max_value=4),
        costs=st.lists(
            st.sampled_from([0.0, 0.001, 0.001, 0.030]), min_size=8, max_size=8
        ),
    )
    def test_bound_bookkeeping_and_followers_hold(self, ops, capacity, costs):
        cache = AnswerCache(capacity)
        outstanding = {}  # key index -> (flight, follower futures)
        followers_seen = []

        def settle(index, fail):
            flight, registered = outstanding.pop(index)
            if fail:
                followers, _, _ = cache.complete(flight, error=RuntimeError("x"))
            else:
                followers, _, _ = cache.complete(
                    flight, payload=_Answer(str(index), costs[index])
                )
            assert [id(f) for f in followers] == [id(f) for f in registered]
            for follower in followers:
                follower.set_result(index)  # raises if resolved twice
            followers_seen.extend(followers)

        for op in ops:
            if op[0] == "acquire":
                state, value = cache.acquire(_key(op[1]))
                if state == "lead":
                    assert op[1] not in outstanding
                    outstanding[op[1]] = (value, [])
                elif state == "follow":
                    assert isinstance(value, Future) and not value.done()
                    outstanding[op[1]][1].append(value)
                else:
                    assert value == _Answer(str(op[1]), costs[op[1]])
            elif op[1] in outstanding:
                settle(op[1], fail=op[2])

            assert len(cache._entries) <= capacity
            for key, entry in cache._entries.items():
                assert entry.key == key
                assert entry.hits >= 1
                assert entry.cost == entry.payload.elapsed_seconds
                assert entry.priority >= cache._floor
            assert cache.stats().in_flight == len(outstanding)

        for index in list(outstanding):
            settle(index, fail=False)
        assert all(f.done() for f in followers_seen)
        assert len(followers_seen) == cache.stats().singleflight_collapsed


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------

def _assert_same_answer(expected, actual):
    problem = final_matches_differ("cache", expected.matches, actual.matches)
    assert problem is None, problem
    assert expected.answer_uids() == actual.answer_uids()


class TestServiceIntegration:
    def test_hit_is_bit_identical_and_counted(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=8,
        ) as service:
            first = service.submit(_product_query(), k=K).result()
            second = service.submit(_product_query(), k=K).result()
            relabelled = service.submit(_relabelled_product_query(), k=K).result()
            snap = service.stats_snapshot()
            # A permuted spelling is its own key: a miss, answered afresh.
            service.submit(_flipped_product_query(), k=K).result()
            permuted = service.stats_snapshot().since(snap).answers
        _assert_same_answer(first, second)
        _assert_same_answer(first, relabelled)
        assert snap.answer_misses == 1
        assert snap.answer_hits == 2
        assert snap.completed == 3
        assert (permuted.hits, permuted.misses) == (0, 1)

    @pytest.mark.parametrize("answer_cache", [None, 8])
    def test_undeclared_pivot_fails_and_is_counted(self, small_bundle, answer_cache):
        """Cached or not, an undeclared pivot is a QueryError on the
        request's future, counted as a failure, and nothing stays in
        flight."""
        request = _request(_product_query(), pivot="nope")
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=answer_cache,
        ) as service:
            with pytest.raises(QueryError):
                service.submit_request(request).result()
            snap = service.stats_snapshot()
        assert (snap.submitted, snap.completed, snap.failed) == (1, 0, 1)

    def test_tbq_requests_bypass_the_cache(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=8,
        ) as service:
            service.submit(_product_query(), k=K, deadline=0.5).result()
            service.submit(_product_query(), k=K, deadline=0.5).result()
            snap = service.stats_snapshot()
        assert snap.time_bounded == 2
        assert snap.answer_hits == 0
        assert snap.answer_misses == 0

    def test_answer_scope_stays_shared_over_the_process_pool(self, small_bundle):
        """Satellite (f): one front-side cache instance, so its counters
        are labelled "shared" even while the worker caches report a
        per-worker sum."""
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, answer_cache=8,
        ) as service:
            service.submit(_product_query(), k=K).result()
            service.submit(_product_query(), k=K).result()
            report = service.stats_snapshot()
        assert report.scope == "per-worker-sum"
        assert report.answers.hits == 1
        described = report.describe()
        assert "answer cache (shared)" in described
        assert "per-worker sum" in described

    def test_a_phase_diff_takes_the_answer_row(self, small_bundle):
        """The warm pass's diff reads all hits, like the weight and space
        rows; the cache itself, which several services may share, keeps
        its cumulative counters."""
        queries = [item.query for item in small_bundle.workload[:4]]
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=16,
        ) as service:
            service.search_many(queries, k=K)
            before = service.stats_snapshot()
            service.search_many(queries, k=K)
            answers = service.stats_snapshot().since(before).answers
            cumulative = service.answer_cache.stats()
        assert (answers.hits, answers.misses, answers.hit_rate) == (4, 0, 1.0)
        assert answers.entries == cumulative.entries == 4
        assert (cumulative.hits, cumulative.misses) == (4, 4)
        assert "hit_rate=1.000" in answers.describe()

    def test_each_service_owns_its_answer_cache(self, small_bundle):
        build = dict(backend="inline", answer_cache=8)
        caches = []
        for _ in range(2):
            # Same inputs, same key: still the second service's first
            # request is a miss, because no cache outlives its service.
            with QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library, **build
            ) as service:
                service.submit(_product_query(), k=K).result()
                answers = service.stats_snapshot().answers
                caches.append(service.answer_cache)
            assert (answers.hits, answers.misses, answers.entries) == (0, 1, 1)
        assert caches[0] is not caches[1]

    # One non-default value per search knob.  No key carries the
    # configuration: what keeps one configuration's answers from another
    # is that a cache serves only the service that owns it, and that
    # service's configuration is fixed when it is built.
    KNOB_VALUES = {
        "tau": 0.5, "path_bound": 2, "min_weight": 0.3,
        "scoring": PssMode.ARITHMETIC, "visited_policy": VisitedPolicy.GENERATE,
        "assembly_seconds_per_match": 1e-3, "alert_ratio": 0.5,
    }

    @pytest.mark.parametrize("knob", [f.name for f in fields(SearchConfig)])
    def test_every_knob_is_answered_by_its_own_service(self, small_bundle, knob):
        assert set(self.KNOB_VALUES) == {f.name for f in fields(SearchConfig)}
        default = SearchConfig()
        changed = replace(default, **{knob: self.KNOB_VALUES[knob]})
        assert getattr(changed, knob) != getattr(default, knob)
        kg, space, library = small_bundle.kg, small_bundle.space, small_bundle.library
        # Path bound, scoring and visited policy change this answer.
        query = small_bundle.workload[2].query
        for config in (default, changed):
            expected = SemanticGraphQueryEngine(kg, space, library, config).search(
                query, k=K
            )
            with QueryService.build(
                kg, space, library, config, backend="inline", answer_cache=8
            ) as service:
                miss = service.submit(query, k=K).result()
                hit = service.submit(query, k=K).result()
                answers = service.stats_snapshot().answers
                assert service.engine.config == config
            assert (answers.hits, answers.misses) == (1, 1)
            _assert_same_answer(expected, miss)
            _assert_same_answer(expected, hit)

    def test_cache_argument_validated(self, small_bundle):
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                answer_cache="big",
            )


    @pytest.mark.parametrize(
        "refused",
        [AnswerCache(8), True, False, 8.0, -1],
        ids=["AnswerCache", "True", "False", "float", "negative"],
    )
    def test_answer_cache_is_a_capacity_int(self, small_bundle, refused):
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                answer_cache=refused,
            )

    @pytest.mark.parametrize("capacity", [None, 0], ids=["None", "zero"])
    def test_no_capacity_means_no_answer_cache(self, small_bundle, capacity):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            answer_cache=capacity,
        ) as service:
            assert service.answer_cache is None
            service.submit(_product_query(), k=K).result()
            service.submit(_product_query(), k=K).result()
            snap = service.stats_snapshot()
        assert (snap.answer_hits, snap.answer_misses) == (0, 0)
        assert snap.completed == 2

    def test_the_engine_fingerprint_keys_the_service_cache(self, small_bundle):
        """An inline service keys answers by its engine's fingerprint, so
        ``canonicalize(request, EngineFingerprint.from_engine(engine))``
        finds what it served (the perf ledger's cache probe)."""
        request = QueryRequest(_product_query(), k=K)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            answer_cache=8,
        ) as service:
            served = service.submit_request(request).result()
            key = canonicalize(request, EngineFingerprint.from_engine(service.engine))
            payload = service.answer_cache.lookup(key)
        assert payload is not None
        assert [m.pivot_uid for m in payload.matches] == [
            m.pivot_uid for m in served.matches
        ]


class TestSingleflight:
    def test_concurrent_identical_misses_run_the_engine_once(
        self, small_bundle, held_backends
    ):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            answer_cache=8,
        ) as service:
            (pool,) = held_backends
            futures = [service.submit(_product_query(), k=K) for _ in range(8)]
            # Follower registration is front-side and synchronous:
            # by the time submit returns, the classification is done.
            snap = service.stats_snapshot()
            assert snap.answer_misses == 1
            assert snap.singleflight_collapsed == 7
            assert len(pool.held) == 1  # only the leader reached the pool
            pool.release()
            results = [f.result(timeout=60) for f in futures]
            snap = service.stats_snapshot()
        assert snap.queries == 1
        assert snap.completed == 8
        assert snap.failed == 0
        for other in results[1:]:
            _assert_same_answer(results[0], other)

    def test_leader_failure_fails_followers_and_caches_nothing(
        self, small_bundle, held_backends
    ):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            answer_cache=8,
        ) as service:
            (pool,) = held_backends

            def failing(query, k=10, **kwargs):
                raise RuntimeError("engine exploded")

            service.engine.search = failing  # shadows the method
            futures = [service.submit(_product_query(), k=K) for _ in range(4)]
            pool.release()
            for future in futures:
                with pytest.raises(RuntimeError):
                    future.result(timeout=60)
            del service.engine.search
            assert service.answer_cache.stats().entries == 0
            snap = service.stats_snapshot()
            assert snap.failed == 4
            # A retry after the failure leads a fresh flight and succeeds.
            future = service.submit(_product_query(), k=K)
            pool.release()
            result = future.result(timeout=60)
            assert service.stats_snapshot().answer_misses == 2
        assert result.answer_uids()


class TestSupervisedComposition:
    def test_hit_bypasses_admission_and_retry_budget(
        self, small_bundle, held_backends
    ):
        """A cached hit never becomes a backend attempt: it cannot be
        shed by ``max_pending`` and cannot spend retry budget, even while
        the pool is saturated."""
        hot = _product_query()
        cold = _product_query(name="France")
        shed_me = _product_query(name="Italy")
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            answer_cache=8, max_pending=1,
        ) as service:
            (pool,) = held_backends
            primed = service.submit(hot, k=K)  # prime the cache
            pool.release()
            primed.result(timeout=60)
            blocked = service.submit(cold, k=K)  # fills max_pending
            # A distinct miss is shed — admission really is full...
            with pytest.raises(OverloadError):
                service.submit(shed_me, k=K)
            # ...but the cached request sails through front-side.
            hit = service.submit(hot, k=K).result(timeout=5)
            pool.release()
            blocked.result(timeout=60)
            snap = service.stats_snapshot()
        assert hit.answer_uids()
        assert snap.answer_hits == 1
        assert snap.resilience.shed == 1
        assert snap.resilience.retries == 0
        assert snap.failed == 1  # the shed request, nothing else
        assert snap.completed == 3
