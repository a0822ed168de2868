"""Knowledge-graph embedding models and the predicate semantic space.

Phase 1 of the paper (Section IV-A): train a translational embedding
(TransE, Table IX) offline, then expose the learned predicate vectors as a
:class:`~repro.embedding.predicate_space.PredicateSpace` whose cosine
similarities weight the semantic graph (Eq. 5).
"""

from repro.embedding.base import TranslationalModel
from repro.embedding.transe import TransE
from repro.embedding.trainer import EmbeddingTrainer, TrainingConfig, TrainingReport
from repro.embedding.predicate_space import PredicateSpace
from repro.embedding.oracle import oracle_predicate_space

__all__ = [
    "TranslationalModel",
    "TransE",
    "EmbeddingTrainer",
    "TrainingConfig",
    "TrainingReport",
    "PredicateSpace",
    "oracle_predicate_space",
]
