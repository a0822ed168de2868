#!/usr/bin/env python
"""CI smoke gate for the kernels and the execution-backend seam.

Runs ten result-equivalence gates on small fixed workloads and exits
non-zero **only** on a mismatch — the one property CI can judge on shared
runners.  Timing numbers are recorded in the artifacts but never gate the
build (CI machines are too noisy for that; the full-scale benches in
``benchmarks/`` assert the speedups on dedicated hardware):

1. lazy vs compact semantic-graph view (``repro.bench.compactbench``) →
   ``benchmarks/results/BENCH_compact_kernel.json``;
2. reference vs incremental TA assembly (``repro.bench.assemblybench``:
   fixed synthetic stream cases plus one end-to-end engine query) →
   ``benchmarks/results/BENCH_ta_assembly.json``;
3. reference vs array-backed A* search (``repro.bench.searchbench``:
   every workload query drained under both visited policies, plus one
   end-to-end engine query) →
   ``benchmarks/results/BENCH_astar_kernel.json``;
4. inline vs thread vs process vs process-shm serving backends
   (``repro.bench.parallelbench``: the workload replayed twice per
   backend on a 2-worker pool, process workers bootstrapped from the
   pickled EngineSpec — by value and by shared-memory graph handle) →
   ``benchmarks/results/BENCH_parallel_serving.json``;
5. the held-out scenario suite (``repro.scenarios``: the checked-in
   ``benchmarks/scenarios/held_out_v1.pkl`` workload replayed against
   its recorded golden answers — exact-query result-set equivalence
   plus per-intent p95 latency within the artifact's declared budget) →
   ``benchmarks/results/BENCH_scenarios.json``;
6. the shared-memory graph gate (``compare_shared_graph``: process
   backend with the graph shipped by value vs attached zero-copy from
   shared memory — bit-identical to inline, spec pickle reduced >= 10x,
   no ``/dev/shm`` segment leaked) →
   ``benchmarks/results/BENCH_shared_graph.json``;
7. the chaos gate (``repro.bench.chaosbench``: the held-out scenario
   replayed on a supervised process pool under a deterministic
   FaultPlan that SIGKILLs a worker mid-replay — the pool must rebuild
   in place, the recovered replay must print the fault-free exact-answer
   digest with zero failed requests, and no ``/dev/shm`` segment may
   survive) → ``benchmarks/results/BENCH_resilience.json``;
8. the answer-cache gate (``repro.bench.cachebench``: the held-out
   scenario resampled under a seeded Zipf popularity law and replayed
   with the result-level answer cache off and on, on the inline and
   process+shm backends, then once more per backend through a 3-entry
   cache that must evict — all six exact-answer digests must be equal,
   the hot hit rate must reach 0.5 and a p50 cache hit must be at
   least 5x faster than a p50 miss) →
   ``benchmarks/results/BENCH_answer_cache.json``;
9. the sharded-store gate (``repro.bench.shardbench``: the held-out
   scenario replayed unsharded vs entity-partitioned into 2 and 4
   shards, on the inline and process+shm backends — all six
   exact-answer digests must be equal, the largest shard's resident
   bytes must stay strictly below the unsharded kernel's and within
   the divided-edge-mass budget, and no per-shard ``/dev/shm`` segment
   may survive) → ``benchmarks/results/BENCH_sharded_graph.json``;
10. the TBQ contract gate (``repro.scenarios.run_tbq_contract_gate``:
    the held-out scenario's exact queries run time-bounded on a
    deterministic ``BudgetClock`` — a bound no query can exhaust must
    certify all of them, ``approximate=False``, with the scenario's own
    golden digest, and a one-tick bound must flag every answer
    ``approximate=True``) →
    ``benchmarks/results/BENCH_tbq_contract.json``.

Each gate is one row in the :data:`GATES` registry — a name, the
implementing module, the artifact stem, the floors it enforces, and a
runner returning a uniform :class:`GateResult` — so adding gate 11 is a
runner function plus one registry line; the emit/print/judge loop in
:func:`main` never changes.

Usage::

    python scripts/bench_smoke.py [--preset dbpedia] [--scale 1.0]
                                  [--seed 11] [--k 5] [--passes 2]

Run from the repository root; ``src/`` is put on ``sys.path``
automatically so no install step is required.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench.assemblybench import (  # noqa: E402
    compare_assembly_kernels,
    d12_comparison,
    default_cases,
)
from repro.bench.cachebench import run_cache_gate  # noqa: E402
from repro.bench.compactbench import compare_kernels  # noqa: E402
from repro.bench.datasets import load_bundle  # noqa: E402
from repro.bench.chaosbench import run_chaos_gate  # noqa: E402
from repro.bench.parallelbench import (  # noqa: E402
    compare_backends,
    compare_shared_graph,
)
from repro.bench.reporting import emit_json  # noqa: E402
from repro.bench.searchbench import (  # noqa: E402
    compare_search_kernels,
    d12_search_comparison,
)
from repro.bench.shardbench import run_shard_gate  # noqa: E402
from repro.scenarios import (  # noqa: E402
    Workload,
    load_golden,
    run_scenario_gate,
    run_tbq_contract_gate,
)

SCENARIO_DIR = REPO / "benchmarks" / "scenarios"


# ----------------------------------------------------------------------
# gate registry machinery
# ----------------------------------------------------------------------

@dataclass
class GateContext:
    """Shared inputs every gate runner draws from (built once)."""

    args: argparse.Namespace
    bundle: object
    workload: Workload
    golden: dict


@dataclass
class GateResult:
    """What one gate produced, in the shape the main loop prints."""

    payload: dict
    passed: bool
    #: informational stdout lines (timings, digests — never gate).
    summary: List[str]
    #: the one-line verdict printed on success.
    ok: str
    #: stderr lines printed on failure (first line is the headline).
    failures: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Gate:
    """One registry row: what runs, where it lands, what it enforces."""

    name: str
    module: str
    artifact: str
    floors: str
    run: Callable[[GateContext], GateResult]


def _clip(problems, limit=10) -> List[str]:
    return [f"  {problem}" for problem in problems[:limit]]


# ----------------------------------------------------------------------
# gate runners
# ----------------------------------------------------------------------

def _gate_compact(ctx: GateContext) -> GateResult:
    args = ctx.args
    comparison = compare_kernels(
        ctx.bundle, k=args.k, passes=args.passes, scale=args.scale
    )
    return GateResult(
        payload=comparison.to_json(),
        passed=comparison.equivalent,
        summary=[
            f"lazy {comparison.lazy_seconds * 1000:.1f} ms, "
            f"compact {comparison.compact_seconds * 1000:.1f} ms "
            f"(speedup {comparison.speedup:.2f}x, informational), "
            f"freeze {comparison.freeze_seconds * 1000:.1f} ms"
        ],
        ok=f"view equivalence OK on all {comparison.num_queries} queries",
        failures=["EQUIVALENCE MISMATCH between compact and lazy kernels:"]
        + _clip(comparison.mismatches),
    )


def _gate_assembly(ctx: GateContext) -> GateResult:
    args = ctx.args
    assembly = compare_assembly_kernels(
        default_cases("smoke"), passes=args.passes
    )
    assembly.d12 = d12_comparison(ctx.bundle, k=args.k, passes=args.passes)
    return GateResult(
        payload=assembly.to_json(),
        passed=assembly.equivalent,  # folds in the end-to-end comparison
        summary=[
            f"assembly: reference {assembly.reference_seconds * 1000:.1f} ms, "
            f"vectorized {assembly.vectorized_seconds * 1000:.1f} ms "
            f"(speedup {assembly.speedup:.2f}x, informational); "
            f"end-to-end {assembly.d12['qid']}: "
            f"{assembly.d12['reference_ms']:.1f} -> "
            f"{assembly.d12['vectorized_ms']:.1f} ms"
        ],
        ok=(
            f"assembly equivalence OK on all {assembly.num_cases} cases "
            f"+ {assembly.d12['qid']}"
        ),
        failures=["EQUIVALENCE MISMATCH between incremental and reference "
                  "assembly kernels:"] + _clip(assembly.mismatches),
    )


def _gate_search(ctx: GateContext) -> GateResult:
    args = ctx.args
    search = compare_search_kernels(ctx.bundle, passes=args.passes)
    search.d12 = d12_search_comparison(
        ctx.bundle, k=args.k, passes=args.passes
    )
    return GateResult(
        payload=search.to_json(),
        passed=search.equivalent,  # folds in the end-to-end comparison
        summary=[
            f"search: reference {search.reference_seconds * 1000:.1f} ms, "
            f"vectorized {search.vectorized_seconds * 1000:.1f} ms "
            f"(speedup {search.speedup:.2f}x, informational); "
            f"end-to-end {search.d12['qid']}: "
            f"{search.d12['reference_ms']:.1f} -> "
            f"{search.d12['vectorized_ms']:.1f} ms"
        ],
        ok=(
            f"search equivalence OK on all {search.num_cases} "
            f"(query, policy) cases + {search.d12['qid']}"
        ),
        failures=["DECISION MISMATCH between vectorized and reference "
                  "search kernels:"] + _clip(search.mismatches),
    )


def _gate_backends(ctx: GateContext) -> GateResult:
    args = ctx.args
    backends = compare_backends(
        ctx.bundle, k=args.k, workers=2, passes=args.passes
    )
    return GateResult(
        payload=backends.to_json(),
        passed=backends.equivalent,
        summary=[
            f"backends: inline {backends.seconds['inline'] * 1000:.1f} ms, "
            f"thread {backends.seconds['thread'] * 1000:.1f} ms, "
            f"process {backends.seconds['process'] * 1000:.1f} ms, "
            f"process-shm {backends.seconds['process-shm'] * 1000:.1f} ms "
            f"per pass "
            f"(process/thread {backends.process_speedup_vs_thread:.2f}x, "
            f"informational on {backends.cpu_count} core(s); "
            f"warmup {backends.process_warmup_seconds * 1000:.0f} ms, "
            f"{backends.process_workers_warmed} workers)"
        ],
        ok=(
            f"backend equivalence OK on all {backends.num_queries} queries "
            f"x {backends.passes} passes x (inline, thread, process, "
            f"process-shm)"
        ),
        failures=["RESULT MISMATCH between serving backends:"]
        + _clip(backends.mismatches),
    )


def _gate_scenarios(ctx: GateContext) -> GateResult:
    gate = run_scenario_gate(ctx.workload, ctx.golden)
    summary = [
        f"scenarios: {gate.workload} replayed on the {gate.backend} backend "
        f"({gate.num_queries} queries: {gate.exact_queries} exact, "
        f"{gate.deadline_requests} time-bounded); "
        f"digest {gate.digest.split(':', 1)[1][:12]}"
    ]
    for intent, row in sorted(gate.latency_ms.items()):
        budget = row.get("budget_p95_ms")
        budget_note = f" (budget {budget:.0f} ms)" if budget else ""
        summary.append(
            f"  {intent} (n={row['n']:.0f}): p50={row['p50_ms']:.1f} "
            f"p95={row['p95_ms']:.1f} ms{budget_note}"
        )
    failures: List[str] = []
    if not gate.equivalent:
        failures.append("GOLDEN-ANSWER MISMATCH on the held-out scenario "
                        "suite:")
        failures.extend(_clip(gate.mismatches))
    if not gate.budget_ok:
        failures.append("LATENCY BUDGET EXCEEDED on the held-out scenario "
                        "suite:")
        failures.extend(_clip(gate.budget_violations))
    return GateResult(
        payload=gate.to_json(),
        passed=gate.passed,
        summary=summary,
        ok=(
            f"scenario gate OK: golden equivalence on all "
            f"{gate.exact_queries} exact queries, all intent classes "
            f"within latency budget"
        ),
        failures=failures,
    )


def _gate_shared_graph(ctx: GateContext) -> GateResult:
    args = ctx.args
    shared = compare_shared_graph(
        ctx.bundle, k=args.k, workers=2, passes=args.passes
    )
    failures: List[str] = []
    if not shared.equivalent:
        failures.append("RESULT MISMATCH on the shared-memory graph path:")
        failures.extend(_clip(shared.mismatches))
    if shared.spec_pickle_reduction < 10.0:
        failures.append(
            f"SPEC PICKLE REDUCTION {shared.spec_pickle_reduction:.1f}x "
            "is below the 10x bar"
        )
    if shared.leaked:
        failures.append(f"LEAKED SHM SEGMENTS: {shared.leaked}")
    return GateResult(
        payload=shared.to_json(),
        passed=shared.passed,
        summary=[
            f"shared graph: spec pickle {shared.spec_bytes_arrays} B (arrays) "
            f"-> {shared.spec_bytes_handle} B (handle), "
            f"{shared.spec_pickle_reduction:.1f}x reduction; warmup "
            f"{shared.warmup_seconds_arrays * 1000:.0f} -> "
            f"{shared.warmup_seconds_handle * 1000:.0f} ms "
            f"({shared.workers_warmed_handle} workers)"
        ],
        ok=(
            f"shared-graph gate OK: bit-identical on all "
            f"{shared.num_queries} queries x {shared.passes} passes, "
            f"spec pickle reduced {shared.spec_pickle_reduction:.1f}x "
            f"(>= 10x), no leaked shm segments"
        ),
        failures=failures,
    )


def _gate_chaos(ctx: GateContext) -> GateResult:
    chaos = run_chaos_gate(ctx.workload, workers=2)
    r = chaos.resilience
    failures: List[str] = []
    if not chaos.equivalent:
        failures.append(
            "DIGEST MISMATCH under chaos: "
            f"fault-free {chaos.digest_fault_free} != "
            f"chaos {chaos.digest_chaos}"
        )
    if chaos.failed_requests:
        failures.append(
            f"{chaos.failed_requests} request(s) failed under chaos "
            "(supervision should have recovered them all)"
        )
    if chaos.resilience.get("pool_rebuilds", 0) < 1:
        failures.append(
            "NO POOL REBUILD happened — the injected crash never "
            "fired, so the gate proved nothing"
        )
    if chaos.leaked:
        failures.append(f"LEAKED SHM SEGMENTS: {chaos.leaked}")
    return GateResult(
        payload=chaos.to_json(),
        passed=chaos.passed,
        summary=[
            f"chaos: {chaos.workload} under [{chaos.fault_plan}] on a "
            f"supervised {chaos.workers}-worker pool: "
            f"{r.get('crashes', 0)} crash(es), {r.get('retries', 0)} "
            f"retries, {r.get('pool_rebuilds', 0)} pool rebuild(s) in "
            f"{chaos.recovery_seconds * 1000:.1f} ms"
        ],
        ok=(
            f"chaos gate OK: fault-free digest reproduced on all "
            f"{chaos.exact_queries} exact queries "
            f"({chaos.digest_chaos.split(':', 1)[1][:12]}), "
            f"0 failed requests, no leaked shm segments"
        ),
        failures=failures,
    )


def _gate_answer_cache(ctx: GateContext) -> GateResult:
    cache_gate = run_cache_gate(ctx.workload, workers=2)
    failures: List[str] = []
    if not cache_gate.equivalent:
        failures.append(
            "DIGEST MISMATCH with the answer cache enabled: "
            f"{cache_gate.digests}"
        )
    if not cache_gate.evicting_equivalent:
        failures.append(
            "DIGEST MISMATCH while the answer cache was evicting "
            f"(capacity {cache_gate.evicting_capacity}): "
            f"{cache_gate.evicting_digests} vs cache-off "
            f"{cache_gate.digests['inline']['off']}"
        )
    if not cache_gate.evicted:
        failures.append(
            f"NO EVICTION at capacity {cache_gate.evicting_capacity}: "
            f"{cache_gate.evicting_answers} — the evicting arm proved nothing"
        )
    if cache_gate.hit_rate < cache_gate.min_hit_rate:
        failures.append(
            f"HIT RATE {cache_gate.hit_rate:.2f} is below the "
            f"{cache_gate.min_hit_rate} bar on Zipf-skewed traffic"
        )
    if cache_gate.speedup < cache_gate.min_speedup:
        failures.append(
            f"HIT SPEEDUP {cache_gate.speedup:.1f}x is below the "
            f"{cache_gate.min_speedup:.0f}x bar "
            f"(p50 hit {cache_gate.p50_hit_ms:.3f} ms, "
            f"p50 miss {cache_gate.p50_miss_ms:.3f} ms)"
        )
    return GateResult(
        payload=cache_gate.to_json(),
        passed=cache_gate.passed,
        summary=[
            f"answer cache: {cache_gate.workload} resampled "
            f"{cache_gate.popularity} over {cache_gate.unique_queries} "
            f"unique queries; hot pass {cache_gate.hits} hits / "
            f"{cache_gate.misses} misses "
            f"(hit_rate={cache_gate.hit_rate:.2f}), p50 hit "
            f"{cache_gate.p50_hit_ms:.3f} ms vs miss "
            f"{cache_gate.p50_miss_ms:.3f} ms ({cache_gate.speedup:.0f}x)",
            f"answer cache: evicting arm (capacity "
            f"{cache_gate.evicting_capacity}) policy "
            f"{cache_gate.retention.get('policy')} vs LRU oracle "
            f"{cache_gate.retention.get('lru_oracle')}",
        ],
        ok=(
            "answer-cache gate OK: digest identical cache on/off on "
            "inline and process+shm, also while evicting; hit rate >= "
            f"{cache_gate.min_hit_rate}, hits >= "
            f"{cache_gate.min_speedup:.0f}x faster"
        ),
        failures=failures,
    )


def _gate_sharded(ctx: GateContext) -> GateResult:
    shard_gate = run_shard_gate(ctx.workload, workers=2)
    summary = [
        f"sharded store: {shard_gate.workload} unsharded "
        f"{shard_gate.unsharded_bytes} B "
        f"({shard_gate.num_nodes} nodes, {shard_gate.num_edges} edges)"
    ]
    for row in shard_gate.rows:
        summary.append(
            f"  {row.shards} shards ({row.strategy}): max shard "
            f"{row.max_shard_bytes} B (budget {row.budget_bytes} B), "
            f"{row.cut_edges} cut edges"
        )
    failures: List[str] = []
    if not shard_gate.equivalent:
        digests = dict(shard_gate.baseline_digests)
        for row in shard_gate.rows:
            for backend, digest in row.digests.items():
                digests[f"{backend}/shards={row.shards}"] = digest
        failures.append(
            f"DIGEST MISMATCH across shard layouts: {digests}"
        )
    for row in shard_gate.rows:
        if row.max_shard_bytes >= shard_gate.unsharded_bytes:
            failures.append(
                f"MAX SHARD {row.max_shard_bytes} B at {row.shards} shards "
                f"is not below the unsharded "
                f"{shard_gate.unsharded_bytes} B"
            )
        elif not row.within_budget:
            failures.append(
                f"MAX SHARD {row.max_shard_bytes} B at {row.shards} shards "
                f"exceeds the divided-mass budget {row.budget_bytes} B"
            )
    if shard_gate.leaked:
        failures.append(f"LEAKED SHM SEGMENTS: {shard_gate.leaked}")
    return GateResult(
        payload=shard_gate.to_json(),
        passed=shard_gate.passed,
        summary=summary,
        ok=(
            "sharded-store gate OK: digest partition-invariant on inline "
            "and process+shm at "
            f"{', '.join(str(r.shards) for r in shard_gate.rows)} shards, "
            "max shard bytes within the divided budget, no leaked shm "
            "segments"
        ),
        failures=failures,
    )


def _gate_tbq_contract(ctx: GateContext) -> GateResult:
    gate = run_tbq_contract_gate(ctx.workload, ctx.golden)
    return GateResult(
        payload=gate.to_json(),
        passed=gate.passed,
        summary=[
            f"tbq contract: {gate.workload} under BudgetClock — generous "
            f"bound certified {gate.certified}/{gate.exact_queries}, "
            f"one-tick bound flagged {gate.starved_approximate}/"
            f"{gate.exact_queries} approximate; "
            f"digest {gate.digest.split(':', 1)[1][:12]}"
        ],
        ok=(
            f"tbq-contract gate OK: all {gate.exact_queries} exact queries "
            "certified with the golden digest, every starved answer "
            "flagged approximate"
        ),
        failures=["TBQ CONTRACT VIOLATED on the held-out scenario suite:"]
        + _clip(gate.problems),
    )


#: The smoke gates, in run order.  Adding a gate = a runner + one row.
GATES: Tuple[Gate, ...] = (
    Gate("compact-kernel", "repro.bench.compactbench",
         "BENCH_compact_kernel",
         "result equivalence lazy vs compact", _gate_compact),
    Gate("ta-assembly", "repro.bench.assemblybench",
         "BENCH_ta_assembly",
         "result equivalence reference vs incremental TA", _gate_assembly),
    Gate("astar-kernel", "repro.bench.searchbench",
         "BENCH_astar_kernel",
         "decision equivalence reference vs array-backed A*", _gate_search),
    Gate("parallel-serving", "repro.bench.parallelbench",
         "BENCH_parallel_serving",
         "result equivalence across serving backends", _gate_backends),
    Gate("scenarios", "repro.scenarios",
         "BENCH_scenarios",
         "golden-answer equivalence + per-intent p95 budget",
         _gate_scenarios),
    Gate("shared-graph", "repro.bench.parallelbench",
         "BENCH_shared_graph",
         "bit-identical shm attach, spec pickle >= 10x smaller, no leaks",
         _gate_shared_graph),
    Gate("resilience", "repro.bench.chaosbench",
         "BENCH_resilience",
         "fault-free digest under injected crash, 0 failures, no leaks",
         _gate_chaos),
    Gate("answer-cache", "repro.bench.cachebench",
         "BENCH_answer_cache",
         "digest cache-invariant, hit rate >= 0.5, hits >= 5x faster",
         _gate_answer_cache),
    Gate("sharded-graph", "repro.bench.shardbench",
         "BENCH_sharded_graph",
         "digest partition-invariant, max shard bytes divided, no leaks",
         _gate_sharded),
    Gate("tbq-contract", "repro.scenarios",
         "BENCH_tbq_contract",
         "generous bound certified at the golden digest, starved => approximate",
         _gate_tbq_contract),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="dbpedia",
                        choices=("dbpedia", "freebase", "yago2"))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--passes", type=int, default=2)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.k < 1:
        parser.error(f"--k must be at least 1, got {args.k}")
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, got {args.passes}")

    bundle = load_bundle(args.preset, scale=args.scale, seed=args.seed)
    print(
        f"{args.preset} @ scale {args.scale}: {bundle.kg.num_entities} "
        f"entities, {bundle.kg.num_edges} edges, "
        f"{len(bundle.workload)} queries"
    )
    ctx = GateContext(
        args=args,
        bundle=bundle,
        workload=Workload.from_pickle(SCENARIO_DIR / "held_out_v1.pkl"),
        golden=load_golden(SCENARIO_DIR / "held_out_v1.golden.json"),
    )

    failed = False
    for index, gate in enumerate(GATES, start=1):
        print(f"-- gate {index}: {gate.name} ({gate.module}) --")
        result = gate.run(ctx)
        path = emit_json(gate.artifact, result.payload)
        for line in result.summary:
            print(line)
        print(f"report: {path}")
        if result.passed:
            print(result.ok)
        else:
            failed = True
            for line in result.failures:
                print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
