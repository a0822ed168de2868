"""Margin-ranking SGD trainer for translational embedding models.

Drives any :class:`~repro.embedding.base.TranslationalModel` over the
id-triples of a knowledge graph (Phase 1 / offline stage of Fig. 5).  The
paper trains TransE with embedding size 100 for 50 iterations (Table IX);
those are the defaults here, though tests use far smaller settings.

The trainer also records wall time and model memory so the scalability
experiment (Table IX: "KG embedding: offline / time, mem") can be
reproduced at our dataset scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Type

import numpy as np

from repro.errors import EmbeddingError
from repro.embedding.base import TranslationalModel
from repro.embedding.negative_sampling import NegativeSampler
from repro.embedding.predicate_space import PredicateSpace
from repro.embedding.transe import TransE
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import graph_to_id_triples
from repro.utils.timing import Stopwatch


@dataclass
class TrainingConfig:
    """Hyper-parameters for embedding training."""

    dim: int = 100
    epochs: int = 50
    batch_size: int = 512
    learning_rate: float = 0.01
    margin: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise EmbeddingError("dim, epochs and batch_size must be positive")
        if self.learning_rate <= 0 or self.margin < 0:
            raise EmbeddingError("learning_rate must be > 0 and margin >= 0")


@dataclass
class TrainingReport:
    """What happened during training (consumed by Table IX)."""

    model_name: str
    num_triples: int
    epochs: int
    loss_history: List[float] = field(default_factory=list)
    seconds: float = 0.0
    memory_bytes: int = 0

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class EmbeddingTrainer:
    """Trains a model on a graph and exports the predicate space.

    >>> # trainer = EmbeddingTrainer(kg, TrainingConfig(dim=32, epochs=5))
    >>> # model, report = trainer.train(TransE)
    >>> # space = trainer.predicate_space(model)
    """

    def __init__(self, kg: KnowledgeGraph, config: Optional[TrainingConfig] = None):
        self.kg = kg
        self.config = config if config is not None else TrainingConfig()
        triples, vocab = graph_to_id_triples(kg)
        if not triples:
            raise EmbeddingError("graph has no edges to train on")
        self.triples = triples
        self.relation_vocab = vocab
        self._triple_array = np.array(
            [(t.head, t.relation, t.tail) for t in triples], dtype=np.int64
        )

    def train(
        self, model_class: Type[TranslationalModel] = TransE
    ) -> "tuple[TranslationalModel, TrainingReport]":
        """Run SGD and return the trained model plus a report."""
        config = self.config
        model = model_class(
            num_entities=self.kg.num_entities,
            num_relations=len(self.relation_vocab),
            dim=config.dim,
            seed=config.seed,
        )
        sampler = NegativeSampler(
            self.triples,
            num_entities=self.kg.num_entities,
            seed=config.seed + 1,
        )
        rng = np.random.default_rng(config.seed + 2)
        report = TrainingReport(
            model_name=model.name, num_triples=len(self.triples), epochs=config.epochs
        )
        watch = Stopwatch()

        for _epoch in range(config.epochs):
            order = rng.permutation(len(self._triple_array))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = self._triple_array[order[start : start + config.batch_size]]
                negatives = sampler.corrupt(batch)
                pos_distance = model.distance(batch[:, 0], batch[:, 1], batch[:, 2])
                neg_distance = model.distance(
                    negatives[:, 0], negatives[:, 1], negatives[:, 2]
                )
                losses = np.maximum(
                    0.0, config.margin + pos_distance - neg_distance
                )
                epoch_loss += float(losses.sum())
                violating = losses > 0
                model.apply_gradients(
                    batch, negatives, violating, config.learning_rate
                )
                model.post_batch()
            report.loss_history.append(epoch_loss / len(self._triple_array))

        report.seconds = watch.elapsed()
        report.memory_bytes = model.memory_bytes()
        return model, report

    def predicate_space(self, model: TranslationalModel) -> PredicateSpace:
        """Export the trained predicate vectors as a semantic space."""
        vectors = {
            name: np.array(model.relation_vector(index), dtype=float)
            for index, name in enumerate(self.relation_vocab)
        }
        return PredicateSpace(vectors)


def train_predicate_space(
    kg: KnowledgeGraph,
    config: Optional[TrainingConfig] = None,
    model_class: Type[TranslationalModel] = TransE,
) -> "tuple[PredicateSpace, TrainingReport]":
    """Convenience one-call pipeline: graph → trained predicate space."""
    trainer = EmbeddingTrainer(kg, config)
    model, report = trainer.train(model_class)
    return trainer.predicate_space(model), report
