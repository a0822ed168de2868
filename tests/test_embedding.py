"""Tests for embedding models, trainer, predicate space and oracle."""

import itertools

import numpy as np
import pytest

from repro.embedding.base import normalize_rows
from repro.embedding.negative_sampling import NegativeSampler
from repro.embedding.oracle import oracle_predicate_space
from repro.embedding.predicate_space import PredicateSpace
from repro.embedding.trainer import (
    EmbeddingTrainer,
    TrainingConfig,
    train_predicate_space,
)
from repro.embedding.transe import TransE
from repro.errors import EmbeddingError, UnknownPredicateError
from repro.kg.generator import build_dataset
from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import dbpedia_like_schema
from repro.kg.triples import Triple


class TestModelBasics:
    def test_distance_shape_and_positivity(self):
        model = TransE(num_entities=10, num_relations=3, dim=8, seed=0)
        heads = np.array([0, 1, 2])
        rels = np.array([0, 1, 2])
        tails = np.array([3, 4, 5])
        distances = model.distance(heads, rels, tails)
        assert distances.shape == (3,)
        assert np.all(distances >= 0)

    def test_gradient_step_reduces_positive_distance(self):
        model = TransE(num_entities=8, num_relations=2, dim=8, seed=1)
        pos = np.array([[0, 0, 1]])
        # Disjoint corrupted triple so its push-apart gradient cannot fight
        # the positive pull on shared parameters.
        neg = np.array([[3, 1, 4]])
        before = model.distance(pos[:, 0], pos[:, 1], pos[:, 2])[0]
        for _ in range(30):
            model.apply_gradients(pos, neg, np.array([True]), learning_rate=0.02)
            model.post_batch()
        after = model.distance(pos[:, 0], pos[:, 1], pos[:, 2])[0]
        assert after < before

    def test_no_update_when_nothing_violates(self):
        model = TransE(num_entities=6, num_relations=2, dim=4, seed=1)
        snapshot = model.entity_vectors.copy()
        model.apply_gradients(
            np.array([[0, 0, 1]]), np.array([[0, 0, 2]]), np.array([False]), 0.1
        )
        assert np.allclose(model.entity_vectors, snapshot)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(EmbeddingError):
            TransE(num_entities=0, num_relations=1, dim=4)
        with pytest.raises(EmbeddingError):
            TransE(num_entities=1, num_relations=1, dim=0)

    def test_relation_vector_bounds(self):
        model = TransE(num_entities=2, num_relations=2, dim=4)
        with pytest.raises(EmbeddingError):
            model.relation_vector(5)

    def test_memory_accounting(self):
        model = TransE(num_entities=10, num_relations=5, dim=16)
        assert model.memory_bytes() == (10 + 5) * 16 * 8

    @pytest.mark.parametrize(
        "shape", [(0, 3, 8), (10, 0, 8), (10, 3, 0)], ids=["entities", "relations", "dim"]
    )
    def test_rejects_empty_shapes(self, shape):
        entities, relations, dim = shape
        with pytest.raises(EmbeddingError):
            TransE(num_entities=entities, num_relations=relations, dim=dim)

    def test_initial_vectors_are_unit_rows(self):
        model = TransE(num_entities=12, num_relations=4, dim=8, seed=3)
        for matrix in (model.entity_vectors, model.relation_vectors):
            assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_initialisation_follows_the_seed(self):
        first = TransE(num_entities=5, num_relations=2, dim=4, seed=9)
        again = TransE(num_entities=5, num_relations=2, dim=4, seed=9)
        other = TransE(num_entities=5, num_relations=2, dim=4, seed=10)
        assert np.array_equal(first.entity_vectors, again.entity_vectors)
        assert np.array_equal(first.relation_vectors, again.relation_vectors)
        assert not np.array_equal(first.entity_vectors, other.entity_vectors)

    def test_exact_translation_has_zero_distance(self):
        model = TransE(num_entities=3, num_relations=1, dim=4, seed=0)
        model.entity_vectors[2] = model.entity_vectors[0] + model.relation_vectors[0]
        distance = model.distance(np.array([0]), np.array([0]), np.array([2]))
        assert distance[0] == pytest.approx(0.0)

    def test_post_batch_renormalises_entities_only(self):
        model = TransE(num_entities=4, num_relations=2, dim=4, seed=0)
        model.entity_vectors *= 3.0
        model.relation_vectors *= 3.0
        model.post_batch()
        assert np.allclose(np.linalg.norm(model.entity_vectors, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(model.relation_vectors, axis=1), 3.0)

    def test_normalize_rows_handles_zero(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        normalize_rows(matrix)
        assert np.linalg.norm(matrix[0]) == pytest.approx(1.0)
        assert np.all(matrix[1] == 0)


class TestNegativeSampler:
    @pytest.fixture()
    def triples(self):
        return [Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 1, 3), Triple(3, 1, 0)]

    def test_corrupts_exactly_one_side(self, triples):
        sampler = NegativeSampler(triples, num_entities=10, seed=0)
        batch = np.array([[t.head, t.relation, t.tail] for t in triples])
        negatives = sampler.corrupt(batch)
        for row, neg in zip(batch, negatives):
            changed = (row[0] != neg[0], row[2] != neg[2])
            assert row[1] == neg[1]
            assert sum(changed) <= 1  # may coincidentally redraw same id

    def test_rejects_empty_triples(self):
        with pytest.raises(EmbeddingError):
            NegativeSampler([], 10)

    @staticmethod
    def _batch(triples, repeats=50):
        return np.array([[t.head, t.relation, t.tail] for t in triples] * repeats)

    def test_same_seed_same_negatives(self, triples):
        batch = self._batch(triples)
        first = NegativeSampler(triples, num_entities=10, seed=4).corrupt(batch)
        again = NegativeSampler(triples, num_entities=10, seed=4).corrupt(batch)
        assert np.array_equal(first, again)

    def test_leaves_the_batch_alone(self, triples):
        batch = self._batch(triples)
        snapshot = batch.copy()
        NegativeSampler(triples, num_entities=10, seed=0).corrupt(batch)
        assert np.array_equal(batch, snapshot)

    def test_corrupts_heads_and_tails_alike(self, triples):
        batch = self._batch(triples)
        negatives = NegativeSampler(triples, num_entities=1000, seed=0).corrupt(batch)
        heads = int(np.sum(negatives[:, 0] != batch[:, 0]))
        tails = int(np.sum(negatives[:, 2] != batch[:, 2]))
        assert heads + tails == len(batch)  # 1000 ids: no redraw of the same one
        assert 0.35 < heads / len(batch) < 0.65

    def test_replacements_are_entity_ids(self, triples):
        batch = self._batch(triples)
        negatives = NegativeSampler(triples, num_entities=10, seed=0).corrupt(batch)
        assert negatives.min() >= 0
        assert negatives[:, [0, 2]].max() < 10

    def test_redraws_corruptions_that_are_true_triples(self, triples):
        # With 5 entities a fifth of the raw draws rebuild a true triple;
        # the redraws must leave (almost) none of them.
        batch = self._batch(triples, repeats=100)
        negatives = NegativeSampler(triples, num_entities=5, seed=0).corrupt(batch)
        known = {(t.head, t.relation, t.tail) for t in triples}
        false_negatives = sum(tuple(map(int, row)) in known for row in negatives)
        assert false_negatives <= len(batch) // 100


class TestTrainer:
    @pytest.fixture(scope="class")
    def kg(self):
        return build_dataset("dbpedia", seed=2, scale=0.3)

    def test_loss_decreases(self, kg):
        trainer = EmbeddingTrainer(
            kg, TrainingConfig(dim=16, epochs=12, batch_size=128, learning_rate=0.05)
        )
        _model, report = trainer.train(TransE)
        assert report.final_loss < report.loss_history[0] * 0.7

    def test_report_metadata(self, kg):
        trainer = EmbeddingTrainer(kg, TrainingConfig(dim=8, epochs=2))
        model, report = trainer.train(TransE)
        assert report.model_name == "TransE"
        assert report.num_triples == len(trainer.triples)
        assert report.seconds > 0
        assert report.memory_bytes == model.memory_bytes()

    def test_predicate_space_export(self, kg):
        trainer = EmbeddingTrainer(kg, TrainingConfig(dim=8, epochs=1))
        model, _report = trainer.train(TransE)
        space = trainer.predicate_space(model)
        assert set(space.predicates()) == set(kg.predicates())

    def test_same_type_pair_predicates_closer_than_random(self, kg):
        """TransE recovers that predicates sharing endpoint types are
        more similar than unrelated predicate pairs, on average."""
        trainer = EmbeddingTrainer(
            kg, TrainingConfig(dim=32, epochs=25, batch_size=128, learning_rate=0.05)
        )
        model, _ = trainer.train(TransE)
        space = trainer.predicate_space(model)
        schema = dbpedia_like_schema()
        spec = {p.name: p for p in schema.predicates if p.name in space.predicates()}
        same_pair, cross_pair = [], []
        for a, b in itertools.combinations(spec.values(), 2):
            sim = space.similarity(a.name, b.name)
            if (a.source_type, a.target_type) == (b.source_type, b.target_type):
                same_pair.append(sim)
            else:
                cross_pair.append(sim)
        assert np.mean(same_pair) > np.mean(cross_pair)

    def test_config_validation(self):
        with pytest.raises(EmbeddingError):
            TrainingConfig(dim=0)
        with pytest.raises(EmbeddingError):
            TrainingConfig(learning_rate=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"dim": -1},
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": -0.1},
            {"margin": -0.5},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_config_rejects_each_bad_field(self, bad):
        with pytest.raises(EmbeddingError):
            TrainingConfig(**bad)

    def test_zero_margin_is_allowed(self):
        assert TrainingConfig(margin=0.0).margin == 0.0

    def test_training_is_reproducible(self, kg):
        config = TrainingConfig(dim=8, epochs=2, batch_size=128, seed=5)
        first, first_report = EmbeddingTrainer(kg, config).train(TransE)
        again, again_report = EmbeddingTrainer(kg, config).train(TransE)
        assert np.array_equal(first.relation_vectors, again.relation_vectors)
        assert first_report.loss_history == again_report.loss_history

    def test_one_call_pipeline_matches_the_trainer(self, kg):
        config = TrainingConfig(dim=8, epochs=2, seed=1)
        space, report = train_predicate_space(kg, config)
        trainer = EmbeddingTrainer(kg, config)
        model, _report = trainer.train(TransE)
        expected = trainer.predicate_space(model)
        assert report.model_name == "TransE"
        assert len(report.loss_history) == 2
        assert space.predicates() == expected.predicates()
        for name in kg.predicates():
            assert np.array_equal(
                space.similarity_row(name), expected.similarity_row(name)
            )

    def test_edgeless_graph_is_refused(self):
        graph = KnowledgeGraph()
        graph.add_entity("Lonely", "T")
        with pytest.raises(EmbeddingError):
            EmbeddingTrainer(graph)


class TestPredicateSpace:
    def test_self_similarity_is_one(self):
        space = PredicateSpace({"a": np.array([1.0, 2.0]), "b": np.array([2.0, 1.0])})
        assert space.similarity("a", "a") == 1.0

    def test_symmetry_and_cache(self):
        space = PredicateSpace({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0])})
        assert space.similarity("a", "b") == space.similarity("b", "a")

    def test_unknown_predicate(self):
        space = PredicateSpace({"a": np.array([1.0, 0.0])})
        with pytest.raises(UnknownPredicateError):
            space.similarity("a", "zzz")

    def test_top_similar_excludes_self_by_default(self):
        space = oracle_predicate_space(dbpedia_like_schema(), seed=3)
        top = space.top_similar("product", 5)
        assert all(name != "product" for name, _ in top)
        scores = [s for _n, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_validation(self):
        with pytest.raises(EmbeddingError):
            PredicateSpace({})
        with pytest.raises(EmbeddingError):
            PredicateSpace({"a": np.array([0.0, 0.0])})
        with pytest.raises(EmbeddingError):
            PredicateSpace({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})
        with pytest.raises(EmbeddingError):
            PredicateSpace({"a": np.array([1.0, 0.0])}, max_cached_rows=0)


class TestSimilarityRows:
    @pytest.fixture(scope="class")
    def space(self):
        return oracle_predicate_space(dbpedia_like_schema(), seed=3)

    def test_row_matches_scalar_path_bitwise(self, space):
        names = space.predicates()
        for a in names[:6]:
            row = space.similarity_row(a)
            for b in names:
                assert row[space.index_of(b)] == space.similarity(a, b)

    def test_row_self_entry_is_exactly_one(self, space):
        for name in space.predicates()[:6]:
            assert space.similarity_row(name)[space.index_of(name)] == 1.0

    def test_rows_are_read_only(self, space):
        row = space.similarity_row(space.predicates()[0])
        with pytest.raises(ValueError):
            row[0] = 0.5

    def test_symmetry_exact_across_rows(self, space):
        names = space.predicates()
        for a in names:
            for b in names:
                assert space.similarity(a, b) == space.similarity(b, a)

    def test_unknown_predicate_row_raises(self, space):
        with pytest.raises(UnknownPredicateError):
            space.similarity_row("zzz")

    def test_cache_is_bounded_with_stats(self):
        space = PredicateSpace(
            {f"p{i}": np.eye(8)[i % 8] + 0.1 * i for i in range(8)},
            max_cached_rows=3,
        )
        for name in space.predicates():
            space.similarity_row(name)
        stats = space.stats()
        assert stats.entries <= 3
        assert stats.misses == 8
        assert stats.evictions == 8 - 3
        assert stats.hits == 0
        space.similarity_row(space.predicates()[-1])  # still resident
        assert space.stats().hits == 1
        assert 0.0 < space.stats().hit_rate < 1.0
        assert "hit_rate" in space.stats().describe()

    def test_concurrent_row_churn_is_safe(self):
        # The row LRU is shared by every serving worker thread; eviction
        # racing a hit must never throw (the LRU is locked).
        import threading

        space = PredicateSpace(
            {f"p{i}": np.eye(8)[i % 8] + 0.1 * i for i in range(8)},
            max_cached_rows=2,
        )
        names = space.predicates()
        errors = []

        def churn(offset):
            try:
                for i in range(300):
                    space.similarity_row(names[(i + offset) % len(names)])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert space.stats().entries <= 2

    def test_pickle_roundtrip_recreates_lock(self):
        # Multiprocess workers receive the space next to a pickled
        # CompactGraph; the process-local lock must not block that.  The
        # memoised rows stay behind: a warm space pickles to the same
        # bytes as a cold one, and the clone recomputes rows on demand.
        import pickle

        space = oracle_predicate_space(dbpedia_like_schema(), seed=3)
        cold = len(pickle.dumps(space))
        name = space.predicates()[0]
        space.similarity_row(name)  # warm an entry through the lock
        assert len(pickle.dumps(space)) == cold
        clone = pickle.loads(pickle.dumps(space))
        assert clone.predicates() == space.predicates()
        assert clone.stats().entries == 0
        assert clone.stats().capacity == space.stats().capacity
        assert (clone.similarity_row(name) == space.similarity_row(name)).all()
        clone.similarity_row(clone.predicates()[-1])  # lock works post-load

    def test_eviction_never_changes_values(self):
        space = PredicateSpace(
            {f"p{i}": np.eye(8)[i % 8] + 0.1 * i for i in range(8)},
            max_cached_rows=1,
        )
        first = {n: space.similarity("p0", n) for n in space.predicates()}
        for name in space.predicates():  # churn the single-row cache
            space.similarity_row(name)
        again = {n: space.similarity("p0", n) for n in space.predicates()}
        assert first == again


class TestOracle:
    @pytest.fixture(scope="class")
    def space(self):
        return oracle_predicate_space(dbpedia_like_schema(), seed=3)

    def test_deterministic(self):
        a = oracle_predicate_space(dbpedia_like_schema(), seed=3)
        b = oracle_predicate_space(dbpedia_like_schema(), seed=3)
        assert a.similarity("product", "assembly") == b.similarity("product", "assembly")

    def test_pinned_pairs(self, space):
        # Fig. 2's headline value survives construction within tolerance.
        assert space.similarity("product", "assembly") == pytest.approx(0.98, abs=0.03)

    def test_cluster_structure(self, space):
        schema = dbpedia_like_schema()
        intra = [
            space.similarity(a, b)
            for cluster in schema.clusters().values()
            for a, b in itertools.combinations(cluster, 2)
        ]
        background = [
            space.similarity("product", p) for p in ("language", "capital", "team")
        ]
        assert min(intra) > 0.8
        assert max(background) < 0.7

    def test_correct_schema_chains_above_tau(self, space):
        # All weights on the Q117 correct schemas clear τ = 0.8.
        for predicate in ("assembly", "manufacturer", "country", "location",
                          "locationCountry", "assemblyCity", "assemblyCompany"):
            assert space.similarity("product", predicate) >= 0.8

    def test_plausible_wrong_band(self, space):
        # Fig. 2: designer/nationality sit near τ but below the cluster.
        for predicate in ("designer", "nationality"):
            assert 0.75 <= space.similarity("product", predicate) < 0.9

    def test_seed_changes_jitter_not_structure(self):
        a = oracle_predicate_space(dbpedia_like_schema(), seed=1)
        b = oracle_predicate_space(dbpedia_like_schema(), seed=2)
        assert a.similarity("assembly", "manufacturer") != b.similarity(
            "assembly", "manufacturer"
        )
        assert a.similarity("product", "language") < 0.7
        assert b.similarity("product", "language") < 0.7
