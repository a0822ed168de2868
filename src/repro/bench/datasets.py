"""Dataset bundles: graph + library + predicate space + workload + truth.

A :class:`DatasetBundle` packages everything one experiment needs for one
of the three evaluation datasets.  Bundles are memoised per configuration,
because the benchmark suite asks for the same dataset many times and graph
generation plus ground-truth computation is the expensive part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.bench.groundtruth import compute_truth
from repro.bench.workloads import WorkloadQuery, workload_for
from repro.embedding.oracle import oracle_predicate_space
from repro.embedding.predicate_space import PredicateSpace
from repro.embedding.trainer import TrainingConfig, train_predicate_space
from repro.errors import ReproError
from repro.kg.compact import CompactGraph
from repro.kg.generator import GeneratorConfig, SyntheticKGBuilder
from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import DomainSchema, preset_schema
from repro.query.transform import TransformationLibrary


@dataclass
class DatasetBundle:
    """One evaluation dataset with every derived resource."""

    preset: str
    schema: DomainSchema
    kg: KnowledgeGraph
    library: TransformationLibrary
    space: PredicateSpace
    workload: List[WorkloadQuery]
    truth: Dict[str, Set[int]]  # qid -> validation set

    def queries_of(self, complexity: Optional[str] = None) -> List[WorkloadQuery]:
        """Workload queries, optionally filtered by complexity class."""
        if complexity is None:
            return list(self.workload)
        return [q for q in self.workload if q.complexity == complexity]


_CACHE: Dict[Tuple, DatasetBundle] = {}


def load_bundle(
    preset: str,
    *,
    scale: float = 2.0,
    seed: int = 1,
    space_source: str = "oracle",
    space_seed: int = 3,
    coherence: Optional[float] = None,
    drop_empty_truth: bool = True,
    use_cache: bool = True,
) -> DatasetBundle:
    """Build (or fetch the memoised) dataset bundle.

    Args:
        preset: ``"dbpedia"``, ``"freebase"`` or ``"yago2"``.
        scale: generator population multiplier.
        seed: generator seed.
        space_source: ``"oracle"`` (deterministic calibrated space) or
            ``"transe"`` (train a TransE model on this graph — the fully
            paper-faithful pipeline, slower and noisier).
        space_seed: seed for the predicate-space construction/training.
        coherence: optional generator coherence override.
        drop_empty_truth: drop workload queries whose validation set is
            empty at this scale (tiny scales can starve the rare
            multi-constraint intersections).
        use_cache: reuse a previously built identical bundle.
    """
    key = (preset, scale, seed, space_source, space_seed, coherence, drop_empty_truth)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    schema = preset_schema(preset)
    config_kwargs = {"seed": seed, "scale": scale}
    if coherence is not None:
        config_kwargs["coherence"] = coherence
    builder = SyntheticKGBuilder(schema, GeneratorConfig(**config_kwargs))
    kg = builder.build()
    library = TransformationLibrary.from_schema(schema)

    if space_source == "oracle":
        space = oracle_predicate_space(schema, seed=space_seed)
    elif space_source == "transe":
        space, _report = train_predicate_space(
            kg,
            TrainingConfig(dim=64, epochs=30, batch_size=512, learning_rate=0.05,
                           seed=space_seed),
        )
    else:
        raise ReproError(f"unknown space source {space_source!r}")

    workload = workload_for(preset)
    truth: Dict[str, Set[int]] = {}
    kept: List[WorkloadQuery] = []
    graph = CompactGraph.freeze(kg)
    for query in workload:
        answers = compute_truth(kg, graph, query)
        if not answers and drop_empty_truth:
            continue
        truth[query.qid] = answers
        kept.append(query)

    bundle = DatasetBundle(
        preset=preset,
        schema=schema,
        kg=kg,
        library=library,
        space=space,
        workload=kept,
        truth=truth,
    )
    if use_cache:
        _CACHE[key] = bundle
    return bundle
