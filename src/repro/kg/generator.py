"""Seeded synthetic knowledge-graph generator.

Builds a :class:`~repro.kg.graph.KnowledgeGraph` from a
:class:`~repro.kg.schema.DomainSchema`.  The generator reproduces the three
structural properties the paper's evaluation depends on (see docs/architecture.md, "Substitutions"):

1. **Semantic predicate clusters** — predicates in the same cluster connect
   overlapping type pairs and are attached with correlated endpoints, so an
   embedding model can recover their similarity.
2. **Edge-to-path answers** — because clusters span both 1-hop
   (``assembly``) and multi-hop (``manufacturer`` + ``location``) routes
   between the same anchor types, correct answers for a 1-hop query edge
   live on n-hop paths exactly as in Fig. 1.
3. **High connectivity** — a configurable density multiplier plus hub bias
   (a Zipf-ish preferential target choice) keeps average degree high enough
   that exhaustive path enumeration is infeasible and pruning matters.

All randomness flows from ``GeneratorConfig.seed`` through
:func:`repro.utils.rng.derive_rng`, so a config maps to exactly one graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SchemaError
from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import DomainSchema, PredicateSpec, TypePopulation
from repro.utils.rng import derive_rng


@dataclass
class GeneratorConfig:
    """Knobs for :class:`SyntheticKGBuilder`.

    Attributes:
        seed: master seed for all random draws.
        scale: multiplies every type population (1.0 = schema's base size).
        density: multiplies every predicate's edge density.
        hub_bias: in [0, 1); probability mass routed to the few "hub"
            targets of each type, emulating the heavy-tailed degree
            distribution of real KGs (0 = uniform targets).
        coherence: in [0, 1]; probability that an edge between latent-
            carrying entities agrees with the source's latent attribute
            (see :class:`~repro.kg.schema.DomainSchema.latent_domain_type`).
            Real KGs are highly coherent — a car assembled in Germany has a
            German manufacturer — and multi-hop correct schemas only reach
            consistent answers when this holds.
    """

    seed: int = 7
    scale: float = 1.0
    density: float = 1.0
    hub_bias: float = 0.3
    coherence: float = 0.93

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise SchemaError("scale must be positive")
        if self.density <= 0:
            raise SchemaError("density must be positive")
        if not 0.0 <= self.hub_bias < 1.0:
            raise SchemaError("hub_bias must be in [0, 1)")
        if not 0.0 <= self.coherence <= 1.0:
            raise SchemaError("coherence must be in [0, 1]")


class SyntheticKGBuilder:
    """Builds one knowledge graph from a schema and a config.

    >>> from repro.kg.schema import dbpedia_like_schema
    >>> builder = SyntheticKGBuilder(dbpedia_like_schema(), GeneratorConfig(seed=1))
    >>> kg = builder.build()
    >>> [kg.entity(uid).etype for uid in kg.entities_named("Germany")]
    ['Country']
    """

    def __init__(self, schema: DomainSchema, config: Optional[GeneratorConfig] = None):
        self.schema = schema
        self.config = config if config is not None else GeneratorConfig()

    # ------------------------------------------------------------------
    def build(self) -> KnowledgeGraph:
        """Generate the graph (entities first, then predicate edges)."""
        kg = KnowledgeGraph(name=self.schema.name)
        uids_by_type = self._generate_entities(kg)
        self._assign_latents(kg, uids_by_type)
        self._generate_edges(kg, uids_by_type)
        return kg

    # ------------------------------------------------------------------
    def _population_count(self, pop: TypePopulation) -> int:
        scale = self.config.scale if pop.scalable else 1.0
        scaled = max(int(round(pop.count * scale)), 1)
        # Named anchors always exist, even at tiny scales.
        return max(scaled, len(pop.named))

    def _generate_entities(self, kg: KnowledgeGraph) -> Dict[str, List[int]]:
        uids_by_type: Dict[str, List[int]] = {}
        for pop in self.schema.populations:
            count = self._population_count(pop)
            uids: List[int] = []
            for name in pop.named:
                uids.append(kg.add_entity(name, pop.etype).uid)
            for index in range(count - len(pop.named)):
                uids.append(kg.add_entity(f"{pop.etype}_{index}", pop.etype).uid)
            uids_by_type[pop.etype] = uids
        return uids_by_type

    def _target_distribution(
        self, count: int, rng: np.random.Generator, bias_scale: float = 1.0
    ) -> np.ndarray:
        """Target-pick probabilities with a hub-biased head.

        A ``hub_bias`` fraction of the probability mass is concentrated on
        the first ~20% of entities of the type (which include the named
        anchors), producing the hubs real KGs have (e.g. ``Germany``
        participates in far more facts than a random village).
        """
        if count == 1:
            return np.ones(1)
        weights = np.ones(count)
        hub_count = max(1, count // 5)
        bias = self.config.hub_bias * bias_scale
        if bias > 0:
            uniform_mass = 1.0 - bias
            weights *= uniform_mass / count
            weights[:hub_count] += bias / hub_count
        else:
            weights /= count
        return weights / weights.sum()

    def _assign_latents(
        self, kg: KnowledgeGraph, uids_by_type: Dict[str, List[int]]
    ) -> None:
        """Draw each latent-carrying entity's hidden domain attribute.

        The latent value is an entity uid of the schema's
        ``latent_domain_type`` (e.g. a Country), drawn from the same hub-
        biased distribution as edge targets so popular countries anchor
        proportionally more entities.
        """
        self.latent_of: Dict[int, int] = {}
        domain_type = self.schema.latent_domain_type
        if domain_type is None or not self.schema.latent_types:
            return
        domain = uids_by_type.get(domain_type, [])
        if not domain:
            return
        rng = derive_rng(self.config.seed, f"latents:{self.schema.name}")
        # Latents use a flatter distribution than edge targets: origins are
        # concentrated in real data, but every workload anchor country must
        # anchor a usable population.
        probs = self._target_distribution(len(domain), rng, bias_scale=0.5)
        # Domain entities anchor themselves.
        for uid in domain:
            self.latent_of[uid] = uid
        for etype in self.schema.latent_types:
            for uid in uids_by_type.get(etype, []):
                pick = int(rng.choice(len(domain), p=probs))
                self.latent_of[uid] = domain[pick]

    def _coherent_targets(
        self, spec: PredicateSpec, targets: List[int]
    ) -> Dict[int, List[int]]:
        """Index the predicate's targets by their latent value."""
        index: Dict[int, List[int]] = {}
        for uid in targets:
            latent = self.latent_of.get(uid)
            if latent is not None:
                index.setdefault(latent, []).append(uid)
        return index

    def _generate_edges(
        self, kg: KnowledgeGraph, uids_by_type: Dict[str, List[int]]
    ) -> None:
        domain_type = self.schema.latent_domain_type
        for spec in self.schema.predicates:
            rng = derive_rng(self.config.seed, f"edges:{self.schema.name}:{spec.name}")
            sources = uids_by_type[spec.source_type]
            targets = uids_by_type[spec.target_type]
            if not sources or not targets:
                continue
            probs = self._target_distribution(len(targets), rng)
            expected = spec.density * self.config.density
            target_is_domain = spec.target_type == domain_type
            by_latent = (
                self._coherent_targets(spec, targets)
                if not target_is_domain
                else {}
            )
            coherence = (
                spec.coherence
                if spec.coherence is not None
                else self.config.coherence
            )
            for source in sources:
                count = _poisson_like(expected, rng)
                if count == 0:
                    continue
                source_latent = self.latent_of.get(source)
                for _edge_index in range(count):
                    target = self._pick_target(
                        rng,
                        targets,
                        probs,
                        source_latent,
                        target_is_domain,
                        by_latent,
                        coherence,
                    )
                    if target is not None and target != source:
                        kg.add_edge(source, spec.name, target)

    def _pick_target(
        self,
        rng: np.random.Generator,
        targets: List[int],
        probs: np.ndarray,
        source_latent: Optional[int],
        target_is_domain: bool,
        by_latent: Dict[int, List[int]],
        coherence: float,
    ) -> Optional[int]:
        """One edge-target draw, honouring latent coherence."""
        coherent = source_latent is not None and rng.random() < coherence
        if coherent and target_is_domain:
            # Edge points directly at the domain type: use the latent.
            return source_latent
        if coherent and by_latent:
            bucket = by_latent.get(source_latent, [])
            if bucket:
                return bucket[int(rng.integers(len(bucket)))]
        pick = int(rng.choice(len(targets), p=probs))
        return targets[pick]


def _poisson_like(expected: float, rng: np.random.Generator) -> int:
    """Integer edge count with the given expectation.

    For expectations >= 1 we use ``floor`` plus a Bernoulli for the
    fractional part (lower variance than a true Poisson, keeping generated
    graphs closer to the schema's intent); below 1 it degenerates to a
    Bernoulli draw.
    """
    base = int(expected)
    fraction = expected - base
    extra = 1 if (fraction > 0 and rng.random() < fraction) else 0
    return base + extra


def build_dataset(
    preset: str,
    seed: int = 7,
    scale: float = 1.0,
    density: float = 1.0,
    hub_bias: float = 0.3,
) -> KnowledgeGraph:
    """One-call builder for a preset dataset.

    >>> kg = build_dataset("dbpedia", seed=1, scale=0.2)
    >>> kg.num_entities > 0
    True
    """
    from repro.kg.schema import preset_schema

    schema = preset_schema(preset)
    config = GeneratorConfig(seed=seed, scale=scale, density=density, hub_bias=hub_bias)
    return SyntheticKGBuilder(schema, config).build()
