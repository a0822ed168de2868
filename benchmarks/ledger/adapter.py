"""The single seam between the ledger and the program it measures.

Every symbol the harness imports from ``repro`` and every function it wraps
with a span is named in one of the two tables below, and nowhere else.  A
rename inside the program (ROADMAP: "collapse the configuration matrix")
is then a one-file fix here.  :func:`bind` resolves both tables at start-up
and fails with the full list of what no longer resolves, before anything is
timed.

Wrap targets are named at the module that *looks the name up* at call time:
``repro.core.engine`` does ``from repro.query.decompose import
decompose_query``, so the engine's calls are intercepted by replacing
``repro.core.engine.decompose_query``, not the definition.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

#: The program is built from source: the checkout's own ``src`` tree, never
#: an installed copy, so parent and change commits each measure themselves.
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: alias used by the harness -> ``module:attribute``.
SYMBOLS: Dict[str, str] = {
    # inputs
    "WorkloadBuilder": "repro.scenarios:WorkloadBuilder",
    "build_resources": "repro.scenarios:build_resources",
    # serving surface
    "QueryService": "repro.serve.service:QueryService",
    "QueryRequest": "repro.serve.service:QueryRequest",
    "canonicalize": "repro.serve.answer_cache:canonicalize",
    "EngineFingerprint": "repro.serve.answer_cache:EngineFingerprint",
    "SemanticGraphCache": "repro.serve.cache:SemanticGraphCache",
    # engine and its reference kernels (golden answers)
    "SemanticGraphQueryEngine": "repro.core.engine:SemanticGraphQueryEngine",
    "QueryResultPayload": "repro.core.results:QueryResultPayload",
    # graph stores
    "CompactGraph": "repro.kg.compact:CompactGraph",
    "CompactViewFactory": "repro.core.compact_view:CompactViewFactory",
    "ShardedGraph": "repro.kg.sharded:ShardedGraph",
    "ShardedViewFactory": "repro.kg.sharded:ShardedViewFactory",
    "compact_resident_bytes": "repro.kg.sharded:compact_resident_bytes",
    "leaked_segments": "repro.kg.shm:leaked_segments",
}


@dataclass(frozen=True)
class WrapTarget:
    """One traced entry point.

    ``kind`` tells :mod:`trace` how to wrap it: ``call`` times the call,
    ``generator`` drains the returned generator inside the span, and
    ``search_factory`` wraps the ``next_match``/``step`` of whatever the
    call returns.
    """

    span: str
    group: str
    module: str
    attribute: str
    kind: str = "call"


#: span name, self-time group, module, attribute path inside it, kind.
WRAP_TARGETS: Tuple[WrapTarget, ...] = (
    WrapTarget("serve.submit_request", "serve.dispatch",
               "repro.serve.service", "QueryService.submit_request"),
    WrapTarget("serve.canonicalize", "serve.answer_cache",
               "repro.serve.service", "canonicalize"),
    WrapTarget("serve.cache_acquire", "serve.answer_cache",
               "repro.serve.answer_cache", "AnswerCache.acquire"),
    WrapTarget("serve.cache_complete", "serve.answer_cache",
               "repro.serve.answer_cache", "AnswerCache.complete"),
    WrapTarget("serve.backend_submit", "serve.backends",
               "repro.serve.backends", "InlineBackend.submit"),
    WrapTarget("serve.backend_submit", "serve.backends",
               "repro.serve.backends", "ThreadBackend.submit"),
    WrapTarget("serve.backend_submit", "serve.backends",
               "repro.serve.backends", "ProcessBackend.submit"),
    WrapTarget("serve.backend_submit", "serve.backends",
               "repro.serve.resilience", "SupervisedBackend.submit"),
    WrapTarget("core.engine_search", "core.engine",
               "repro.core.engine", "SemanticGraphQueryEngine.search"),
    WrapTarget("core.engine_search", "core.engine",
               "repro.core.engine",
               "SemanticGraphQueryEngine.search_time_bounded"),
    WrapTarget("query.decompose", "query.decompose",
               "repro.core.engine", "decompose_query"),
    WrapTarget("embedding.similarity_row", "embedding.rows",
               "repro.embedding.predicate_space",
               "PredicateSpace.similarity_row"),
    WrapTarget("core.weight_row", "core.rows",
               "repro.core.compact_view",
               "CompactSemanticGraphView.weight_row_array"),
    WrapTarget("core.bounds_row", "core.rows",
               "repro.core.compact_view",
               "CompactSemanticGraphView.bounds_row_array"),
    WrapTarget("core.view_incident", "core.search",
               "repro.core.compact_view",
               "CompactSemanticGraphView.weighted_incident", "generator"),
    WrapTarget("kg.sharded_incident", "kg.sharded",
               "repro.kg.sharded", "ShardedGraphView.weighted_incident",
               "generator"),
    WrapTarget("core.search", "core.search",
               "repro.core.engine", "build_subquery_search",
               "search_factory"),
    WrapTarget("core.assemble", "core.assembly",
               "repro.core.engine", "assemble_top_k"),
    WrapTarget("core.tbq_run", "core.tbq_coordinator",
               "repro.core.time_bounded", "TimeBoundedCoordinator.run"),
)


class AdapterError(RuntimeError):
    """The program no longer offers a name the ledger relies on."""


def _resolve(module: str, attribute: str) -> Tuple[Any, str, Any]:
    """``(owner, final name, value)`` of a dotted attribute in a module."""
    owner: Any = importlib.import_module(module)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def resolve_target(target: WrapTarget) -> Tuple[Any, str, Any]:
    return _resolve(target.module, target.attribute)


def bind() -> SimpleNamespace:
    """Import the program from this checkout and resolve both tables."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise AdapterError(
            f"the program's source tree is missing: {SRC_DIR}/repro — the "
            "ledger measures the checkout it sits in and nothing else"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    missing: List[str] = []
    api = SimpleNamespace()
    for alias, path in SYMBOLS.items():
        module, _, attribute = path.partition(":")
        try:
            setattr(api, alias, _resolve(module, attribute)[2])
        except (ImportError, AttributeError) as exc:
            missing.append(f"symbol {alias} = {path}: {exc}")
    for target in WRAP_TARGETS:
        try:
            resolve_target(target)
        except (ImportError, AttributeError) as exc:
            missing.append(
                f"wrap target {target.module}:{target.attribute}: {exc}"
            )
    if missing:
        raise AdapterError(
            "the ledger's adapter is out of date:\n  " + "\n  ".join(missing)
        )
    loaded = Path(sys.modules["repro"].__file__).resolve()
    if SRC_DIR not in loaded.parents:
        raise AdapterError(
            f"'repro' was imported from {loaded}, not from this checkout "
            f"({SRC_DIR}); unset PYTHONPATH or uninstall the other copy"
        )
    return api
