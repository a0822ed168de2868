"""Per-domain query-intent generators.

Five intent classes, each stressing a different part of the engine:

- **star** — one target center with 2-3 specific anchor leaves: one
  sub-query per leaf, assembled by the TA.  The center is the only
  target node, hence the only feasible pivot, so minCost (Eq. 1)
  chooses nothing here — no intent class gives it a choice.
- **chain** — a two-hop path ending in a specific anchor: the
  longest-schema case, exercising the path bound n̂ and multi-hop pss.
- **noisy-predicate** — a one-edge query phrased with a *cluster
  sibling* of the predicate the KG actually holds (the paper's
  ``product`` vs ``assembly`` headline case): matching relies entirely
  on the predicate semantic space.
- **entity-heavy** — a maximal star whose anchor names and center type
  are replaced by synonym/abbreviation surface forms (``GER``,
  ``Car``): matching relies on the transformation library φ.
- **tau-stress** — a one-edge query phrased with a predicate whose
  similarity to the KG relation sits at the pruning threshold τ: every
  candidate path lands on the Lemma 3 boundary.

Every generator draws exclusively from a per-query generator derived
via :func:`repro.utils.rng.derive_rng` from ``(seed, domain, intent,
index)``, so scenario sets are byte-identical for identical seeds and
adding one intent never perturbs another's stream.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, TypeVar

import numpy as np

from repro.errors import ScenarioError
from repro.query.builder import QueryGraphBuilder
from repro.query.model import QueryGraph
from repro.scenarios.vocab import DomainVocabulary
from repro.utils.rng import derive_rng

#: The intent classes every domain supports, in canonical order.
INTENT_NAMES = (
    "star",
    "chain",
    "noisy-predicate",
    "entity-heavy",
    "tau-stress",
)

T = TypeVar("T")


def _pick(rng: np.random.Generator, options: Sequence[T]) -> T:
    if not options:
        raise ScenarioError("intent generator has no candidates to pick from")
    return options[int(rng.integers(len(options)))]


def _star(
    vocab: DomainVocabulary,
    rng: np.random.Generator,
    *,
    tau: float,
    max_fanout: int = 3,
    surface_forms: bool = False,
) -> QueryGraph:
    center = _pick(rng, vocab.star_centers())
    relations = vocab.anchored_from(center)
    fanout = min(len(relations), max_fanout)
    if not surface_forms and fanout > 2:
        # Plain stars mix 2- and 3-leaf shapes; entity-heavy always maxes.
        fanout = 2 + int(rng.integers(fanout - 1))
    chosen = [relations[int(i)] for i in rng.choice(len(relations), size=fanout, replace=False)]
    center_type = center
    if surface_forms and center in vocab.type_variants and rng.random() < 0.5:
        center_type = _pick(rng, vocab.type_variants[center])
    builder = QueryGraphBuilder().target("v1", center_type)
    for leaf, relation in enumerate(chosen, start=2):
        name = _pick(rng, relation.anchors)
        if surface_forms and name in vocab.name_variants and rng.random() < 0.5:
            name = _pick(rng, vocab.name_variants[name])
        builder.specific(f"v{leaf}", name, relation.target_type)
        builder.edge(f"e{leaf - 1}", "v1", relation.predicate, f"v{leaf}")
    return builder.build()


def _chain(
    vocab: DomainVocabulary, rng: np.random.Generator, *, tau: float
) -> QueryGraph:
    predicate, source_type, mid_type, second = _pick(rng, vocab.chain_pairs())
    anchor = _pick(rng, second.anchors)
    return (
        QueryGraphBuilder()
        .target("v1", source_type)
        .target("v2", mid_type)
        .specific("v3", anchor, second.target_type)
        .edge("e1", "v1", predicate, "v2")
        .edge("e2", "v2", second.predicate, "v3")
        .build()
    )


def _noisy_predicate(
    vocab: DomainVocabulary, rng: np.random.Generator, *, tau: float
) -> QueryGraph:
    candidates = [
        (rel, sibling)
        for rel in vocab.anchored
        for sibling in vocab.cluster_siblings(rel.predicate)
    ]
    relation, phrased = _pick(rng, candidates)
    anchor = _pick(rng, relation.anchors)
    return (
        QueryGraphBuilder()
        .target("v1", relation.source_type)
        .specific("v2", anchor, relation.target_type)
        .edge("e1", "v1", phrased, "v2")
        .build()
    )


def _entity_heavy(
    vocab: DomainVocabulary, rng: np.random.Generator, *, tau: float
) -> QueryGraph:
    return _star(vocab, rng, tau=tau, surface_forms=True)


def _tau_stress(
    vocab: DomainVocabulary, rng: np.random.Generator, *, tau: float
) -> QueryGraph:
    pairs = vocab.near_tau_phrasings(tau, width=0.04)
    if not pairs:
        pairs = vocab.near_tau_phrasings(tau, width=0.10)
    relation, phrased = _pick(rng, pairs)
    anchor = _pick(rng, relation.anchors)
    return (
        QueryGraphBuilder()
        .target("v1", relation.source_type)
        .specific("v2", anchor, relation.target_type)
        .edge("e1", "v1", phrased, "v2")
        .build()
    )


INTENT_GENERATORS: Dict[str, Callable[..., QueryGraph]] = {
    "star": _star,
    "chain": _chain,
    "noisy-predicate": _noisy_predicate,
    "entity-heavy": _entity_heavy,
    "tau-stress": _tau_stress,
}


def generate_intent_queries(
    vocab: DomainVocabulary,
    intent: str,
    count: int,
    *,
    seed: int,
    tau: float = 0.8,
) -> List[QueryGraph]:
    """``count`` queries of one intent class, byte-deterministic in ``seed``."""
    try:
        generator = INTENT_GENERATORS[intent]
    except KeyError:
        raise ScenarioError(
            f"unknown intent {intent!r}; available: {list(INTENT_NAMES)}"
        ) from None
    if count < 0:
        raise ScenarioError(f"intent {intent!r}: count must be >= 0, got {count}")
    queries = []
    for index in range(count):
        rng = derive_rng(seed, f"scenario:{vocab.domain}:{intent}:{index}")
        queries.append(generator(vocab, rng, tau=tau))
    return queries
