"""repro — reproduction of "Semantic Guided and Response Times Bounded
Top-k Similarity Search over Knowledge Graphs" (Wang et al., ICDE 2020).

Public entry points:

- :class:`repro.kg.KnowledgeGraph` and :func:`repro.kg.generator.build_dataset`
  for the knowledge-graph substrate;
- :mod:`repro.embedding` for TransE and the predicate
  semantic space (Section IV-A);
- :mod:`repro.query` for query graphs, transformation library and
  decomposition (Sections III, IV-B);
- :class:`repro.core.engine.SemanticGraphQueryEngine` — the SGQ / TBQ engine
  (Sections V-VI);
- :mod:`repro.serve` — serving layer beyond the paper: shared semantic-
  graph weight cache, batched :class:`~repro.serve.service.QueryService`
  and the workload replay driver;
- :mod:`repro.baselines` for the seven comparison methods of Table II;
- :mod:`repro.bench` for workloads, metrics and experiment runners
  (Section VII).
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]
