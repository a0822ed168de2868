"""Deterministic "semantic-geometry oracle" predicate space.

Training TransE is the paper-faithful path (Section IV-A) and the default
pipeline does exactly that, but the experiment suite also needs a predicate
space that is (a) instant and (b) calibrated to the semantic geometry a
*well-trained* embedding exhibits on the corresponding real dataset — the
running examples of the paper pin concrete values (Fig. 2: sim(product,
assembly) = 0.98, sim(product, designer) = 0.85, sim(product, nationality)
= 0.81; Fig. 8 weights ``country`` at 0.98 on a correct 2-hop schema).

The oracle builds that geometry from the dataset schema's declared cluster
structure (:meth:`~repro.kg.schema.DomainSchema.cluster_affinity`):

1. assemble the target Gram matrix ``S`` — ``S[p,q]`` is the affinity of
   the two predicates' clusters plus a deterministic per-pair jitter;
2. project ``S`` to the positive semi-definite cone (clamp negative
   eigenvalues — the Higham-style nearest-PSD step);
3. factor ``S = V·Vᵀ`` and take the rows of ``V`` as predicate vectors,
   renormalised to unit length so cosines reproduce the targets.

The result is a valid inner-product space whose pairwise cosines track the
declared affinities to within a few hundredths — and, unlike a freshly
trained TransE on a small synthetic graph, it is identical on every run.
docs/architecture.md ("Substitutions") records this as the substitution
for "embeddings pretrained on full DBpedia/Freebase/YAGO2"; the trainer remains implemented, tested and
used by default in the quickstart pipeline.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.embedding.predicate_space import PredicateSpace
from repro.kg.schema import DomainSchema
from repro.utils.rng import stable_hash


def oracle_predicate_space(
    schema: DomainSchema,
    *,
    jitter: float = 0.035,
    seed: int = 0,
    dim: Optional[int] = None,
) -> PredicateSpace:
    """Build the calibrated predicate space for a schema.

    Args:
        schema: generator schema declaring clusters and affinities.
        jitter: half-width of the deterministic per-pair perturbation
            (keeps same-cluster predicates from being exact duplicates and
            spreads pss values into bands, as the sensitivity experiment
            of Table X requires).
        seed: mixes into the per-pair jitter; the same (schema, seed) pair
            always produces the same space.
        dim: optional truncation of the factor rank (default: full rank =
            number of predicates).
    """
    names = [spec.name for spec in schema.predicates]
    clusters = {spec.name: spec.cluster for spec in schema.predicates}
    count = len(names)
    if count == 0:
        raise ValueError("schema declares no predicates")

    target = np.eye(count)
    pins = schema.predicate_affinity_overrides
    for i in range(count):
        for j in range(i + 1, count):
            pinned = pins.get(frozenset((names[i], names[j])))
            if pinned is not None:
                base, spread = pinned, 0.0
            else:
                base = schema.cluster_affinity(clusters[names[i]], clusters[names[j]])
                spread = _pair_jitter(schema.name, names[i], names[j], seed) * jitter
            value = float(np.clip(base + spread, -0.99, 0.995))
            target[i, j] = value
            target[j, i] = value

    target = _consistency_closure(target)
    vectors = _factor_gram(target, dim)
    return PredicateSpace({name: vectors[i] for i, name in enumerate(names)})


def _consistency_closure(target: np.ndarray, slack: float = 0.22) -> np.ndarray:
    """Raise affinities that contradict the cosine triangle bound.

    If a ~ b and b ~ c are both high, a and c cannot be near-orthogonal;
    the closure enforces ``T[a,c] >= T[a,b]·T[b,c] - slack`` (a relaxed
    triangle bound) so declared background values never fight the declared
    high-affinity chains.  Without it, the nearest-correlation projection
    spreads the inconsistency onto the *important* pairs instead.
    """
    matrix = target.copy()
    count = matrix.shape[0]
    for _round in range(3):
        changed = False
        for b in range(count):
            implied = np.outer(matrix[:, b], matrix[b, :]) - slack
            mask = implied > matrix
            if np.any(mask):
                matrix = np.where(mask, implied, matrix)
                changed = True
        np.fill_diagonal(matrix, 1.0)
        if not changed:
            break
    return matrix


def _pair_jitter(schema_name: str, a: str, b: str, seed: int) -> float:
    """Deterministic jitter in [-1, 1] for an unordered predicate pair."""
    lo, hi = sorted((a, b))
    unit = (stable_hash(f"{schema_name}:{lo}|{hi}:{seed}") % 100_000) / 100_000
    return 2.0 * unit - 1.0


def _nearest_correlation(target: np.ndarray, iterations: int = 50) -> np.ndarray:
    """Higham's alternating projections onto {PSD} ∩ {unit diagonal}.

    The declared affinities need not be jointly realisable (a cluster may
    be asked to sit close to geo yet far from geo's close neighbours);
    the nearest correlation matrix distributes that inconsistency smoothly
    instead of crushing the large affinities, which a single eigenvalue
    clamp does.
    """
    matrix = target.copy()
    correction = np.zeros_like(matrix)
    for _round in range(iterations):
        adjusted = matrix - correction
        eigenvalues, eigenvectors = np.linalg.eigh(adjusted)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        psd = (eigenvectors * eigenvalues[None, :]) @ eigenvectors.T
        correction = psd - adjusted
        matrix = psd.copy()
        np.fill_diagonal(matrix, 1.0)
    return matrix


def _factor_gram(target: np.ndarray, dim: Optional[int]) -> np.ndarray:
    """Factor the nearest correlation matrix into unit-norm rows."""
    corr = _nearest_correlation(target)
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    if dim is not None:
        # Keep the `dim` largest components (eigh sorts ascending).
        cutoff = len(eigenvalues) - dim
        if cutoff > 0:
            eigenvalues[:cutoff] = 0.0
    factors = eigenvectors * np.sqrt(eigenvalues)[None, :]
    norms = np.linalg.norm(factors, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return factors / norms
