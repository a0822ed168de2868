"""TA assembly kernel benchmark harness: conformance proof + speedup.

Runs the same synthetic many-candidate / many-stream assemblies through
both TA kernels — the pure-Python reference assembler and the incremental
production kernel (:mod:`repro.core.assembly_kernel`) — and:

1. asserts **identical results** on every case: same final matches
   (pivots, bit-equal scores, component pss/paths and insertion order),
   same sorted-access counts, same round count, same termination flags;
2. times both kernels (best of ``passes`` sweeps over prebuilt match
   lists) and reports the speedup;
3. optionally measures the **end-to-end** engine delta on an
   assembly-bound workload query (the Fig. 12 D12 class) under both
   kernels.

Synthetic pss values are drawn from a 1/1024 grid, so every bound either
kernel computes is exact in float64 — summation order cannot perturb a
termination decision, which keeps the conformance assertion sharp rather
than tolerance-based.

Shared by ``benchmarks/bench_ta_assembly.py`` (full-scale, pytest) and
``scripts/bench_smoke.py`` (small-scale, CI gate): CI fails on a
result-equivalence mismatch while treating the timing numbers as
informational.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.datasets import DatasetBundle
from repro.bench.equivalence import assembly_results_differ, query_results_differ
from repro.core.assembly import AssemblyResult, MatchStream, assemble_top_k
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import PathMatch
from repro.errors import ReproError
from repro.kg.paths import Path

_GRID = 1024  # pss values are multiples of 1/_GRID → float64-exact sums


@dataclass(frozen=True)
class AssemblyCase:
    """One synthetic assembly workload (stream shapes + TA parameters)."""

    name: str
    num_streams: int
    matches_per_stream: int
    pivot_pool: int
    k: int
    seed: int
    exhaustive: bool = False
    max_rounds: Optional[int] = None


def default_cases(size: str = "full") -> List[AssemblyCase]:
    """The benchmarked case mix at ``"full"`` or CI ``"smoke"`` scale."""
    if size == "full":
        return [
            AssemblyCase("many-candidate", 4, 600, 1500, 10, seed=7),
            AssemblyCase("many-stream", 8, 250, 600, 20, seed=8),
            AssemblyCase("dense-overlap", 3, 400, 120, 10, seed=9),
            AssemblyCase("exhaustive-drain", 4, 300, 800, 50, seed=10, exhaustive=True),
            AssemblyCase("round-capped", 4, 300, 800, 10, seed=11, max_rounds=40),
        ]
    if size == "smoke":
        return [
            AssemblyCase("many-candidate", 3, 150, 400, 8, seed=7),
            AssemblyCase("many-stream", 6, 80, 200, 10, seed=8),
            AssemblyCase("dense-overlap", 3, 120, 50, 5, seed=9),
            AssemblyCase("exhaustive-drain", 3, 80, 250, 20, seed=10, exhaustive=True),
            AssemblyCase("round-capped", 3, 100, 250, 5, seed=11, max_rounds=15),
        ]
    raise ReproError(f"unknown case size {size!r} (expected 'full' or 'smoke')")


def synthetic_streams(case: AssemblyCase) -> List[List[PathMatch]]:
    """Per-stream match lists over a shared pivot pool (deterministic)."""
    rng = np.random.default_rng(case.seed)
    streams: List[List[PathMatch]] = []
    for index in range(case.num_streams):
        pivots = rng.integers(0, case.pivot_pool, size=case.matches_per_stream)
        values = rng.integers(1, _GRID + 1, size=case.matches_per_stream)
        streams.append(
            [
                PathMatch(
                    subquery_index=index,
                    path=Path.single_node(int(pivot)),
                    pivot_uid=int(pivot),
                    pss=int(value) / _GRID,
                )
                for pivot, value in zip(pivots, values)
            ]
        )
    return streams


def run_case(
    match_lists: Sequence[Sequence[PathMatch]], case: AssemblyCase, kernel: str
) -> AssemblyResult:
    streams = [MatchStream.from_list(matches) for matches in match_lists]
    return assemble_top_k(
        streams,
        case.k,
        exhaustive=case.exhaustive,
        max_rounds=case.max_rounds,
        kernel=kernel,
    )


def _time_case(
    match_lists: Sequence[Sequence[PathMatch]],
    case: AssemblyCase,
    kernel: str,
    passes: int,
) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        run_case(match_lists, case, kernel)
        best = min(best, time.perf_counter() - started)
    return best


@dataclass
class AssemblyKernelComparison:
    """Outcome of one reference-vs-vectorized assembly sweep.

    ``case_mismatches`` holds the synthetic-case problems;
    :attr:`mismatches` and :attr:`equivalent` are derived and fold in
    the attached end-to-end comparison (``d12``, when present), so every
    consumer — the bench assertions, the smoke gate, the JSON artifact —
    reads one source of truth.
    """

    num_cases: int
    reference_seconds: float
    vectorized_seconds: float
    case_mismatches: List[str] = field(default_factory=list)
    per_case: List[Dict] = field(default_factory=list)
    d12: Optional[Dict] = None

    @property
    def mismatches(self) -> List[str]:
        problems = list(self.case_mismatches)
        if self.d12 is not None and not self.d12["equivalent"]:
            problems.append(self.d12["mismatch"])
        return problems

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        """Microbench wall-time ratio (> 1 means the kernel wins)."""
        if self.vectorized_seconds <= 0.0:
            return 0.0
        return self.reference_seconds / self.vectorized_seconds

    def to_json(self) -> Dict:
        """The ``BENCH_ta_assembly.json`` payload."""
        return {
            "benchmark": "ta_assembly",
            "num_cases": self.num_cases,
            "reference_seconds": self.reference_seconds,
            "vectorized_seconds": self.vectorized_seconds,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            "mismatches": self.mismatches,
            "per_case": self.per_case,
            "d12": self.d12,
        }


def compare_assembly_kernels(
    cases: Sequence[AssemblyCase], *, passes: int = 2
) -> AssemblyKernelComparison:
    """Run the conformance + timing sweep over ``cases``."""
    if passes < 1:
        raise ReproError(f"passes must be at least 1, got {passes}")
    mismatches: List[str] = []
    per_case: List[Dict] = []
    reference_total = 0.0
    vectorized_total = 0.0
    for case in cases:
        match_lists = synthetic_streams(case)
        reference = run_case(match_lists, case, "reference")
        vectorized = run_case(match_lists, case, "vectorized")
        problem = assembly_results_differ(case.name, reference, vectorized)
        if problem is not None:
            mismatches.append(problem)
        reference_seconds = _time_case(match_lists, case, "reference", passes)
        vectorized_seconds = _time_case(match_lists, case, "vectorized", passes)
        reference_total += reference_seconds
        vectorized_total += vectorized_seconds
        per_case.append(
            {
                "case": case.name,
                "streams": case.num_streams,
                "matches_per_stream": case.matches_per_stream,
                "k": case.k,
                "accesses": vectorized.accesses,
                "rounds": vectorized.rounds,
                "terminated_early": vectorized.terminated_early,
                "truncated": vectorized.truncated,
                "reference_ms": reference_seconds * 1000.0,
                "vectorized_ms": vectorized_seconds * 1000.0,
            }
        )
    return AssemblyKernelComparison(
        num_cases=len(per_case),
        reference_seconds=reference_total,
        vectorized_seconds=vectorized_total,
        case_mismatches=mismatches,
        per_case=per_case,
    )


def d12_comparison(
    bundle: DatasetBundle, *, qid: str = "D12", k: int = 10, passes: int = 2
) -> Dict:
    """End-to-end engine delta on one assembly-bound workload query.

    Runs ``engine.search`` under both assembly kernels on the query with
    the given ``qid`` (default D12, the assembly-heavy complex query the
    ROADMAP profiling singled out), asserts result identity, and reports
    best-of-``passes`` wall times plus the vectorized run's
    search-vs-assembly split.  Small scales drop D12 from the workload
    (empty truth set); the comparison then falls back to the present
    query with the most TA sorted accesses, recording the substitution
    in the returned ``qid``.
    """
    if passes < 1:
        raise ReproError(f"passes must be at least 1, got {passes}")
    if not bundle.workload:
        raise ReproError("bundle workload is empty")
    engines = {
        kernel: SemanticGraphQueryEngine(
            bundle.kg,
            bundle.space,
            bundle.library,
            assembly_kernel=kernel,
        )
        for kernel in ("reference", "vectorized")
    }
    item = next((q for q in bundle.workload if q.qid == qid), None)
    if item is None:
        # Probe only the multi-sub-query classes: a simple query has one
        # stream and trivially cheap assembly, so it can never be the
        # assembly-heaviest pick — no point paying a search for it.
        probe = engines["vectorized"]
        candidates = [
            q for q in bundle.workload if q.complexity != "simple"
        ] or list(bundle.workload)
        item = max(
            candidates,
            key=lambda q: probe.search(q.query, k=k).ta_accesses,
        )
        qid = item.qid
    # Warm the shared matcher/space memos identically, and check identity.
    reference = engines["reference"].search(item.query, k=k)
    vectorized = engines["vectorized"].search(item.query, k=k)
    mismatch = query_results_differ(qid, reference, vectorized)
    timings = {}
    for kernel, engine in engines.items():
        best = float("inf")
        split = None
        for _ in range(passes):
            started = time.perf_counter()
            result = engine.search(item.query, k=k)
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
                split = result
        timings[kernel] = (best, split)
    reference_seconds, _ = timings["reference"]
    vectorized_seconds, split = timings["vectorized"]
    return {
        "qid": qid,
        "k": k,
        "matches": len(vectorized.matches),
        "ta_accesses": vectorized.ta_accesses,
        "ta_rounds": vectorized.ta_rounds,
        "reference_ms": reference_seconds * 1000.0,
        "vectorized_ms": vectorized_seconds * 1000.0,
        "speedup": (
            reference_seconds / vectorized_seconds if vectorized_seconds > 0 else 0.0
        ),
        "vectorized_assembly_ms": split.assembly_seconds * 1000.0,
        "vectorized_search_ms": split.search_seconds * 1000.0,
        "equivalent": mismatch is None,
        "mismatch": mismatch,
    }
