"""Every module imports and every package ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro


def test_every_module_imports_and_every_export_resolves():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
    ]
    assert len(names) > 50  # the walk really descended into the packages
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{name}.__all__ names {export!r}"


# What each package exports, spelled out: a PR that adds, drops or renames
# a public name edits this table in the open.
PUBLIC_SURFACE = {
    "repro": ["ReproError", "__version__"],
    "repro.core": [
        "PssMode", "SearchConfig", "VisitedPolicy", "SemanticGraphQueryEngine",
        "SemanticGraphView", "CompactSemanticGraphView", "CompactViewFactory",
        "LazyViewFactory", "FinalMatch", "PathMatch", "QueryResult",
        "SearchStats",
    ],
    "repro.kg": [
        "CompactGraph", "Edge", "Entity", "KnowledgeGraph", "Path", "PathStep",
        "enumerate_paths", "DomainSchema", "PredicateSpec", "SynonymFamily",
        "Triple", "GeneratorConfig", "SyntheticKGBuilder",
    ],
    "repro.query": [
        "QueryEdge", "QueryGraph", "QueryNode", "SubQueryGraph",
        "QueryGraphBuilder", "NodeMatcher", "TransformationLibrary",
        "Decomposition", "decompose_query", "add_edge_noise", "add_node_noise",
    ],
    "repro.serve": [
        "CacheStats", "SemanticGraphCache", "EXECUTION_BACKENDS",
        "ExecutionBackend", "InlineBackend", "ProcessBackend", "WorkerSnapshot",
        "FaultPlan", "FaultInjector", "BackoffPolicy", "CircuitBreaker",
        "ResilienceStats", "SupervisedBackend", "QueryRequest", "QueryService",
        "ServiceStats", "ReplayReport", "WorkloadItem", "mix_deadlines",
        "replay",
    ],
    "repro.utils": [
        "MaxHeap", "derive_rng", "stable_hash", "geometric_mean", "mean",
        "pearson_correlation", "BudgetClock", "Clock", "Stopwatch", "WallClock",
    ],
}


@pytest.mark.parametrize("package", sorted(PUBLIC_SURFACE))
def test_package_exports_are_the_checked_in_list(package):
    assert importlib.import_module(package).__all__ == PUBLIC_SURFACE[package]
