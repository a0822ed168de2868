"""Base class for translational knowledge-graph embedding models.

The paper summarises the family (Section IV-A): initialise vectors for the
elements of each triple ``<h, r, t>``, define a scoring function ``g`` such
that ``t ≈ g(h, r)``, and optimise it under the margin-based ranking
objective

    L = Σ max(0, margin + d(pos) - d(neg))

over corrupted triples.  A model implements the distance ``d``
(:meth:`distance`) and its SGD step (:meth:`apply_gradients`); the trainer
drives SGD and negative sampling.  TransE is the one model the paper
trains (Table IX).

Distances use squared L2, whose gradients are linear and keep the pure-
numpy implementation simple and fast.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmbeddingError


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalise every row in place (zero rows are left untouched)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.divide(matrix, norms, out=matrix, where=norms > 0)
    return matrix


class TranslationalModel:
    """Shared state and interface of translational embedding models."""

    name = "base"

    def __init__(self, num_entities: int, num_relations: int, dim: int, seed: int = 0):
        if num_entities <= 0 or num_relations <= 0:
            raise EmbeddingError("model needs at least one entity and one relation")
        if dim <= 0:
            raise EmbeddingError("embedding dimension must be positive")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        rng = np.random.default_rng(seed)
        bound = 6.0 / np.sqrt(dim)
        self.entity_vectors = rng.uniform(-bound, bound, size=(num_entities, dim))
        self.relation_vectors = rng.uniform(-bound, bound, size=(num_relations, dim))
        normalize_rows(self.entity_vectors)
        normalize_rows(self.relation_vectors)

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    def distance(
        self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Squared translation distance for index arrays; lower is better."""
        raise NotImplementedError

    def apply_gradients(
        self,
        pos: np.ndarray,
        neg: np.ndarray,
        violating: np.ndarray,
        learning_rate: float,
    ) -> None:
        """SGD step on the violating (margin-active) triple pairs.

        ``pos`` and ``neg`` are ``(batch, 3)`` index arrays of positive and
        corrupted triples; ``violating`` is a boolean mask over the batch.
        """
        raise NotImplementedError

    def post_batch(self) -> None:
        """Renormalise the entity vectors after each batch."""
        normalize_rows(self.entity_vectors)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def relation_vector(self, relation: int) -> np.ndarray:
        """The semantic vector exported for a relation (predicate).

        This is the translation vector, which encodes "meaning" and is
        what the predicate space compares (Eq. 5).
        """
        if not 0 <= relation < self.num_relations:
            raise EmbeddingError(f"relation index {relation} out of range")
        return self.relation_vectors[relation]

    def memory_bytes(self) -> int:
        """Parameter memory in bytes (for the Table IX memory report)."""
        return self.entity_vectors.nbytes + self.relation_vectors.nbytes
