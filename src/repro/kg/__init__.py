"""Knowledge-graph substrate: storage, id triples, schemas, generators."""

from repro.kg.compact import CompactGraph
from repro.kg.graph import Edge, Entity, KnowledgeGraph
from repro.kg.paths import Path, PathStep, enumerate_paths
from repro.kg.schema import DomainSchema, PredicateSpec, SynonymFamily
from repro.kg.triples import Triple
from repro.kg.generator import GeneratorConfig, SyntheticKGBuilder

__all__ = [
    "CompactGraph",
    "Edge",
    "Entity",
    "KnowledgeGraph",
    "Path",
    "PathStep",
    "enumerate_paths",
    "DomainSchema",
    "PredicateSpec",
    "SynonymFamily",
    "Triple",
    "GeneratorConfig",
    "SyntheticKGBuilder",
]
