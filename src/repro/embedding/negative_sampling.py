"""Negative (corrupted) triple sampling for margin-ranking training.

Corrupts the head or the tail of each triple with a fair coin, the TransE
paper's "uniform" strategy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EmbeddingError
from repro.kg.triples import Triple


class NegativeSampler:
    """Generates corrupted copies of a triple batch."""

    def __init__(
        self,
        triples: Sequence[Triple],
        num_entities: int,
        seed: int = 0,
    ):
        if not triples:
            raise EmbeddingError("cannot sample negatives from an empty triple set")
        self.num_entities = num_entities
        self._rng = np.random.default_rng(seed)
        self._known = {(t.head, t.relation, t.tail) for t in triples}

    def corrupt(self, batch: np.ndarray) -> np.ndarray:
        """Return a corrupted copy of a ``(batch, 3)`` triple array.

        Each corrupted triple replaces head or tail by a random entity;
        corruptions that collide with a known true triple are resampled a
        few times, then accepted (standard practice — the probability of a
        surviving false negative is negligible and retrying forever would
        not terminate on dense graphs).
        """
        negatives = batch.copy()
        size = len(batch)
        corrupt_head = self._rng.random(size) < 0.5

        replacements = self._rng.integers(0, self.num_entities, size=size)
        negatives[corrupt_head, 0] = replacements[corrupt_head]
        negatives[~corrupt_head, 2] = replacements[~corrupt_head]

        for _attempt in range(3):
            collisions = [
                i
                for i in range(size)
                if (int(negatives[i, 0]), int(negatives[i, 1]), int(negatives[i, 2]))
                in self._known
            ]
            if not collisions:
                break
            redraw = self._rng.integers(0, self.num_entities, size=len(collisions))
            for slot, idx in enumerate(collisions):
                if corrupt_head[idx]:
                    negatives[idx, 0] = redraw[slot]
                else:
                    negatives[idx, 2] = redraw[slot]
        return negatives
