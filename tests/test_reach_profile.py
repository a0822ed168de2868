"""The reach profiler (``scripts/reach_profile.py``): its function table,
its per-process hook and the entry points it runs, without running them."""

import dataclasses
import importlib.util
import inspect
import os
import re
import shlex
import sys
import threading
from pathlib import Path

import pytest

from repro.core.assembly import AssemblyResult, assemble_top_k
from repro.core.engine import EngineSpec
from repro.core.results import QueryResult, QueryResultPayload
from repro.embedding.trainer import TrainingReport, train_predicate_space
from repro.kg.compact import CompactGraph
from repro.kg.sharded import ShardedGraph, partition_entities
from repro.kg.shm import ShmArrayBlock, leaked_segments
from repro.kg.triples import graph_to_id_triples
from repro.serve.answer_cache import CanonicalQueryKey, EngineFingerprint
from repro.serve.service import QueryService
from repro.serve.workload import ReplayReport, _build_parser, main as workload_main
from repro.utils.heap import MaxHeap

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "reach_profile.py"
CI = REPO / ".github" / "workflows" / "ci.yml"


def _load_profiler():
    """A fresh copy of the script, so its hook starts with nothing seen."""
    spec = importlib.util.spec_from_file_location("reach_profile", SCRIPT)
    profiler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profiler)
    return profiler


CLI_RUNS = _load_profiler().CLI_RUNS


@pytest.fixture(scope="module")
def profiler():
    return _load_profiler()


@pytest.fixture(scope="module")
def functions(profiler):
    return profiler.defined_functions()


def _key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno)


@pytest.mark.parametrize(
    "function",
    [
        MaxHeap.push,
        graph_to_id_triples,
        train_predicate_space,
        QueryService.search_many,
        QueryService._coerce,  # decorated: keyed by the decorator's line
        TrainingReport.final_loss.fget,
    ],
    ids=lambda f: f.__qualname__,
)
def test_function_table_keys_match_code_objects(functions, function):
    # The hook reports (co_filename, co_firstlineno); the parsed table has
    # to be keyed the same way or every function would read as unreached.
    assert functions[_key(function)] == function.__qualname__


def test_nested_functions_are_listed_under_their_parent(functions):
    names = set(functions.values())
    assert "backtracking_match.<locals>._assign" in names
    assert "QGABaseline._rank.<locals>.node_candidates" in names


def test_no_deleted_function_is_defined(functions):
    deleted = {
        "read_triples", "write_triples", "iter_predicate_contexts",
        "nth_root_product", "calibrate_assembly_seconds_per_match",
        "evaluate_link_prediction", "QueryService.submit_batch",
        "MaxHeap.peek_max", "MaxHeap.drain", "MaxHeap.max_priority",
        "MaxHeap.__iter__", "MinHeap.push", "MinHeap.pop_min",
        "SyntheticKGBuilder._withhold_types", "TranslationalModel.parameter_count",
        # The second pass: accessors only tests called, and the
        # expansion cap nothing set.
        "Entity.__str__", "Edge.__str__", "KnowledgeGraph.entity_by_name",
        "KnowledgeGraph.in_edges", "KnowledgeGraph.incident_list",
        "KnowledgeGraph.degree", "KnowledgeGraph.neighbors",
        "KnowledgeGraph.predicate_frequency", "KnowledgeGraph.statistics",
        "KnowledgeGraph.triples", "KnowledgeGraph.__repr__",
        "CompactGraph.shared", "CompactGraph.to_edge", "CompactGraph.edges",
        "CompactGraph.degree", "CompactGraph.__repr__",
        "SharedCompactGraph.__repr__", "FrozenGraphReader.__repr__",
        "Path.from_steps", "Path.predicates", "Path.contains_node",
        "Path.is_simple", "Path.concat", "reverse_pattern",
        "DomainSchema.types", "GraphShard.__repr__", "ShardedGraph.__repr__",
        "SharedShardedGraph.__repr__", "SharedShardedGraph.name",
        "ShardedGraph.num_shards", "ShardedGraphHandle.num_shards",
        "ShmArraySpec.nbytes", "ShmBlockHandle.keys", "ShmArrayBlock.__repr__",
        "Decomposition.pivot", "QueryNode.__str__", "QueryEdge.__str__",
        "QueryGraph.edge", "QueryGraph.degree", "QueryGraph.num_nodes",
        "QueryGraph.num_edges", "QueryGraph.__str__", "SubQueryGraph.end",
        "SubQueryGraph.num_edges", "SubQueryGraph.edge_labels",
        "TransformationLibrary.empty", "PredicateSpace.vector",
        "PredicateSpace.similarity_matrix", "PredicateSpace.subspace",
        "PredicateSpace.with_vector", "QueryResult.answer_names",
        "QueryResultPayload.answer_uids", "CompactViewFactory.frozen_graph",
        "AnswerCache.store", "AnswerCache.__len__", "AnswerCache.clear",
        "SemanticGraphCache.__len__", "SemanticGraphCache.clear",
        "FaultInjector.requests_seen", "ServiceStats.in_flight",
        "QueryService.supervised",
        "BaselineResult.answer_names", "DatasetBundle.truth_of",
        "truth_by_schema",
        # The cross-engine guards a service that owns its engine, store
        # and caches does not need.
        "store_identity", "EngineFingerprint._config_token",
        "CompactViewFactory.compact_graph", "_space_index_for",
        "ShardedViewFactory.sharded", "PredicateSpace.dim",
        "PredicateSpace.__len__",
        # The source-graph back-reference a frozen store no longer keeps.
        "KnowledgeGraph.out_edge_prefixes", "CompactGraph.is_stale",
        "CompactGraph._edge_table", "FrozenGraphReader._entity_table",
        # The builder's second copy of every edge: readers walk a store.
        "KnowledgeGraph.incident", "KnowledgeGraph.out_incident",
        "KnowledgeGraph.in_incident", "KnowledgeGraph.out_edges",
        "lazy_view_factory",
        # The sharded store's shared-memory form: a process pool
        # publishes and attaches one CompactGraph.
        "ShardedGraph.to_shared", "ShardedGraph.from_handle",
        "SharedShardedGraph.__init__", "SharedShardedGraph.names",
        "SharedShardedGraph.closed", "SharedShardedGraph.close",
        "SharedShardedGraph.__enter__", "SharedShardedGraph.__exit__",
        # The per-pair view reads only tests called, the shard pickle
        # hook nothing reached, and the array kernel's ablation path
        # (the ablations run on the reference A*).
        "CompactSemanticGraphView.weight",
        "CompactSemanticGraphView.max_adjacent_weight", "pair_weight",
        "ShardedGraphView.weight", "ShardedGraphView.max_adjacent_weight",
        "GraphShard.__getstate__", "VectorizedSubQuerySearch._estimate",
        # The per-pull wrapper: a search times its own pulls.
        "_PullTimer.__init__", "_PullTimer.wrap",
        "_PullTimer.wrap.<locals>.timed",
    }
    assert deleted.isdisjoint(functions.values())
    from repro.core import compact_view, engine, search_kernel
    from repro.kg import graph, sharded
    from repro.serve import service

    assert not hasattr(graph, "GraphStatistics")
    assert not hasattr(engine, "_PullTimer")
    assert not hasattr(compact_view, "_SPACE_INDEX_MEMO")
    for name in ("PssMode", "VisitedPolicy", "estimate_pss"):
        assert not hasattr(search_kernel, name), name
    assert EngineFingerprint.__slots__ == ("library",)
    assert {"kg", "_edges"}.isdisjoint(CompactGraph.__slots__)
    assert {"kg", "strategy", "seed"}.isdisjoint(
        inspect.signature(ShardedGraph.__init__).parameters
    )
    for name in (
        "ShardedGraphHandle", "SharedShardedGraph", "SHARD_SEGMENT_PREFIX",
        "_SHARD_EXTRA_COLUMNS", "_SHARD_OF_COLUMN",
    ):
        assert not hasattr(sharded, name), name
    assert not hasattr(service, "GraphLease")
    for function, name in (
        (ShardedGraph.build, "seed"),
        (partition_entities, "seed"),
        (ShmArrayBlock.create, "prefix"),
        (leaked_segments, "prefix"),
    ):
        assert name not in inspect.signature(function).parameters, function
    # The TA round cap nothing set, with every field that reported it.
    assert "max_rounds" not in inspect.signature(assemble_top_k).parameters
    for cls, name in (
        (AssemblyResult, "truncated"),
        (QueryResult, "ta_truncated"),
        (QueryResultPayload, "ta_truncated"),
        (ReplayReport, "truncated"),
        (CanonicalQueryKey, "fingerprint"),
        (EngineSpec, "kg"),
    ):
        assert name not in {f.name for f in dataclasses.fields(cls)}, cls
    files = {Path(path).name for path, _line in functions}
    assert files.isdisjoint(
        {"transh.py", "transr.py", "evaluation.py", "typing_model.py"}
    )


def test_hook_reports_each_function_once(tmp_path):
    profiler = _load_profiler()
    previous = sys.getprofile()
    profiler.install(str(tmp_path))
    try:
        heap = MaxHeap()
        heap.push(1.0, "a")
        heap.push(2.0, "b")
        heap.pop_max()
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
        if profiler._out["fd"] is not None:
            os.close(profiler._out["fd"])

    (report,) = tmp_path.glob("*.tsv")
    rows = report.read_text(encoding="utf-8").splitlines()
    reached = [(path, int(line)) for path, line in (r.split("\t") for r in rows)]
    assert reached.count(_key(MaxHeap.push)) == 1
    assert _key(MaxHeap.pop_max) in reached
    assert all(path.startswith(profiler.PREFIX) for path, _line in reached)


def test_entry_points_cover_examples_cli_and_builders(profiler, tmp_path):
    runs = profiler.entry_points(tmp_path, benches=False)
    scripts = [argv[1] for argv, _code in runs if argv[1] != "-m"]
    examples = sorted(str(p) for p in (REPO / "examples").glob("*.py"))
    assert examples and set(examples) <= set(scripts)
    assert "scripts/build_scenarios.py" in scripts
    assert "benchmarks/ledger/run.py" in scripts
    cli = [argv[3:] for argv, _code in runs if argv[1:3] == ["-m", "repro.serve"]]
    assert cli == [args for args, _code in profiler.CLI_RUNS]
    assert not any("pytest" in argv for argv, _code in runs)


def test_benches_run_as_one_pytest_call(profiler, tmp_path):
    without = profiler.entry_points(tmp_path, benches=False)
    with_benches = profiler.entry_points(tmp_path, benches=True)
    assert with_benches[:-1] == without
    argv, code = with_benches[-1]
    assert argv[1:3] == ["-m", "pytest"] and code == 0
    benches = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert sorted(Path(a).name for a in argv if a.endswith(".py")) == benches


@pytest.mark.parametrize(
    "args, code", CLI_RUNS, ids=[f"run{i}" for i in range(len(CLI_RUNS))]
)
def test_cli_runs_use_flags_the_workload_driver_accepts(args, code):
    if code == 0:
        _build_parser().parse_args(args)
    else:
        with pytest.raises(SystemExit) as refused:
            workload_main(args)
        assert refused.value.code == code


def _run_scripts(workflow):
    """Every step's ``run:`` script in a workflow file as the shell reads
    it: a folded (``>-``) block joined by spaces, a literal (``|``) block
    with its backslash continuations joined."""
    lines = workflow.splitlines()
    scripts = []
    for index, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run: ?(.*)$", line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value not in (">-", "|"):
            scripts.append(value)
            continue
        block = []
        for following in lines[index + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            block.append(following.strip())
        joined = (" " if value == ">-" else "\n").join(block)
        scripts.append(joined.replace("\\\n", " "))
    return scripts


def _workload_driver_runs(workflow):
    """The argument list of every ``repro-serve-workload`` and
    ``-m repro.serve`` call in a workflow, up to its first shell operator."""
    runs = []
    for script in _run_scripts(workflow):
        for line in script.splitlines():
            if "repro-serve-workload" not in line and "-m repro.serve" not in line:
                continue
            words = shlex.split(line)
            if "repro-serve-workload" in words:
                start = words.index("repro-serve-workload") + 1
            else:
                start = next(
                    i + 2 for i in range(len(words) - 1)
                    if words[i:i + 2] == ["-m", "repro.serve"]
                )
            args = []
            for word in words[start:]:
                if word in (">", "|", "||", "&&", ";"):
                    break
                args.append(word)
            runs.append(args)
    return runs


def test_cli_runs_are_the_ci_workload_driver_runs():
    ci_runs = _workload_driver_runs(CI.read_text(encoding="utf-8"))
    assert ci_runs, "no workload-driver run found in the CI workflow"
    missing = [args for args in ci_runs if args not in [a for a, _c in CLI_RUNS]]
    assert missing == []
    assert len(ci_runs) == len(CLI_RUNS)
