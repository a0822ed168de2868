"""Incremental TA assembly kernel vs reference assembler.

Not a figure from the paper: the paper's construction is the pure-Python
Eq. 8-11 / Theorem 3 assembler; this bench measures the incremental
kernel the reproduction adds (`src/repro/core/assembly_kernel.py`).
Claims verified:

1. **Identical results** — every synthetic assembly case returns the same
   final matches under both kernels: pivots, bit-equal scores, component
   pss/paths, plus equal sorted-access counts, round counts and
   termination flags.  Incrementalisation changes cost, never answers.
2. **≥3x kernel speedup** — the many-candidate / many-stream microbench
   sweep runs at least 3x faster on the incremental kernel (a lazy heap
   per unseen-stream mask + one over the top-k, so Theorem 3 costs O(2^m)
   heap peeks per round, vs a full re-sort and per-candidate upper-bound
   recomputation every round).
3. **End-to-end win on D12** — the assembly-bound Fig. 12 complex query
   (~60% of its time in the TA, per the ROADMAP profiling) gets faster
   through the whole engine path, with the search-vs-assembly split
   recorded.

Emits ``benchmarks/results/BENCH_ta_assembly.json`` for CI and the
README's performance numbers.
"""

from __future__ import annotations

from repro.bench.assemblybench import (
    compare_assembly_kernels,
    d12_comparison,
    default_cases,
)
from repro.bench.reporting import emit, emit_json, format_table

from conftest import BENCH_SCALE  # noqa: F401 (fixture module import idiom)

PASSES = 3
MIN_SPEEDUP = 3.0


def test_ta_assembly_kernel_equivalence_and_speedup(dbpedia_bundle, benchmark):
    comparison = compare_assembly_kernels(default_cases("full"), passes=PASSES)
    comparison.d12 = d12_comparison(dbpedia_bundle, k=10, passes=PASSES)

    rows = [
        (
            case["case"],
            f"{case['streams']}x{case['matches_per_stream']}",
            case["rounds"],
            f"{case['reference_ms']:.2f}",
            f"{case['vectorized_ms']:.2f}",
            (
                f"{case['reference_ms'] / case['vectorized_ms']:.2f}x"
                if case["vectorized_ms"]
                else "-"
            ),
        )
        for case in comparison.per_case
    ]
    rows.append(
        (
            "sweep (best of %d)" % PASSES,
            "",
            "",
            f"{comparison.reference_seconds * 1000:.1f}",
            f"{comparison.vectorized_seconds * 1000:.1f}",
            f"{comparison.speedup:.2f}x",
        )
    )
    d12 = comparison.d12
    rows.append(
        (
            f"{d12['qid']} end-to-end",
            f"{d12['ta_accesses']} acc",
            d12["ta_rounds"],
            f"{d12['reference_ms']:.1f}",
            f"{d12['vectorized_ms']:.1f}",
            f"{d12['speedup']:.2f}x",
        )
    )
    emit(
        "ta_assembly",
        format_table(
            ("case", "streams", "rounds", "reference (ms)", "vectorized (ms)",
             "speedup"),
            rows,
            title=(
                "Incremental vectorized TA assembly kernel vs reference — "
                f"{comparison.num_cases} synthetic cases + one end-to-end "
                "engine query"
            ),
        ),
    )
    emit_json("BENCH_ta_assembly", comparison.to_json())

    # Claim 1: identical results on every case and on the engine query.
    assert comparison.equivalent, comparison.mismatches[:5]
    assert d12["equivalent"], d12["mismatch"]
    # Claim 2: the kernel wins the microbench sweep by ≥3x.
    assert comparison.speedup >= MIN_SPEEDUP, (
        f"vectorized kernel speedup {comparison.speedup:.2f}x "
        f"below the {MIN_SPEEDUP:.0f}x target"
    )
    # Claim 3: the end-to-end assembly-bound query gets faster too.
    assert d12["vectorized_ms"] < d12["reference_ms"], d12

    # Steady-state latency of the assembly-heaviest synthetic case.
    from repro.bench.assemblybench import run_case, synthetic_streams

    case = default_cases("full")[0]
    match_lists = synthetic_streams(case)
    benchmark(lambda: run_case(match_lists, case, "vectorized"))
