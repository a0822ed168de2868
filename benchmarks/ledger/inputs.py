"""Everything the program is fed: the query pool, its golden answers and
the seeded request sequences.

Two things are generated, from two seeds, and the split is deliberate:

- the **query pool** (graph, predicate space, 200 distinct queries) comes
  from ``pool_seed`` through the program's own scenario generator.  Which
  queries the pool holds moves throughput by about a tenth and p95 by about
  a fifth from one pool to the next (README), far more than any bound, so
  the pool is *not* what ``--seed`` varies.  Pool 7 is the default; pool 8
  is the hold-out a later claim must also hold on.  Golden answers for
  both are checked in; any other pool derives them in an untimed pass.
- the **request sequence** over that pool — the order of the queries in a
  pass, the order of the Zipf arrivals — comes from ``--seed`` through the
  harness's own RNG, so the program only ever sees generated inputs and the
  same seed gives the same inputs.  Per-query arrival counts never vary,
  and the open loop's schedule and order belong to the pool (see
  ``workloads.request_units``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Pools whose golden answers are checked in.
DEFAULT_POOL_SEED = 7
HOLD_OUT_POOL_SEED = 8

TOP_K = 5
TAU = 0.8
GRAPH_GENERATOR_SEED = 11


@dataclass(frozen=True)
class Size:
    """How big the generated input set is."""

    name: str
    scale: float
    per_intent: int


FULL = Size("full", scale=4.0, per_intent=40)
#: Seconds-sized inputs for the self-test; never a basis for a claim.
SMOKE = Size("smoke", scale=1.0, per_intent=5)


@dataclass
class Pool:
    """One generated input set."""

    pool_seed: int
    size: Size
    workload: object
    resources: object
    qids: List[str]
    requests: List[object]
    manifest_sha256: str
    generate_s: float

    def __len__(self) -> int:
        return len(self.qids)


def build_pool(api: SimpleNamespace, pool_seed: int, size: Size) -> Pool:
    """Generate graph, space, library and the distinct queries."""
    started = time.perf_counter()
    n = size.per_intent
    workload = (
        api.WorkloadBuilder("ledger", seed=pool_seed)
        .domain("dbpedia", scale=size.scale, generator_seed=GRAPH_GENERATOR_SEED)
        .intents(star=n, chain=n, noisy_predicate=n, entity_heavy=n, tau_stress=n)
        .top_k(TOP_K)
        .tau(TAU)
        .augment(
            paraphrase_fraction=0.25,
            node_noise_fraction=0.25,
            min_similarity=0.8,
        )
        .build()
    )
    resources = api.build_resources(workload)
    generate_s = time.perf_counter() - started
    manifest = json.dumps(workload.manifest(), sort_keys=True)
    return Pool(
        pool_seed=pool_seed,
        size=size,
        workload=workload,
        resources=resources,
        qids=[q.qid for q in workload.queries],
        requests=[
            api.QueryRequest(query=q.query, k=workload.k, tag=q.qid)
            for q in workload.queries
        ],
        manifest_sha256=hashlib.sha256(manifest.encode("utf-8")).hexdigest(),
        generate_s=generate_s,
    )


# ----------------------------------------------------------------------
# golden answers
# ----------------------------------------------------------------------

def answers_sha256(answers: Dict[str, List[int]]) -> str:
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def derive_golden(api: SimpleNamespace, pool: Pool) -> Dict[str, List[int]]:
    """Exact top-k per query from the program's reference path.

    Lazy view, reference A* and reference assembly: the paper's
    transcriptions, sharing no kernel code with what the workloads serve
    through.  The shared weight cache only saves re-weighting edges.
    """
    res = pool.resources
    engine = api.SemanticGraphQueryEngine(
        res.kg,
        res.space,
        res.library,
        res.config,
        weight_cache=api.SemanticGraphCache(),
        assembly_kernel="reference",
        search_kernel="reference",
    )
    return {
        request.tag: [int(u) for u in engine.search(request.query, request.k).answer_uids()]
        for request in pool.requests
    }


def golden_path(pool_seed: int) -> Path:
    return GOLDEN_DIR / f"pool-{pool_seed}.json"


def write_golden(api: SimpleNamespace, pool: Pool) -> Path:
    answers = derive_golden(api, pool)
    path = golden_path(pool.pool_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "pool_seed": pool.pool_seed,
        "size": pool.size.name,
        "manifest_sha256": pool.manifest_sha256,
        "k": TOP_K,
        "answers_sha256": answers_sha256(answers),
    }
    # One query per line, so a changed answer is a one-line diff.
    lines = [f' {json.dumps(key)}: {json.dumps(value)},' for key, value in header.items()]
    rows = ",\n".join(
        f"  {json.dumps(qid)}: {json.dumps(uids)}" for qid, uids in sorted(answers.items())
    )
    path.write_text(
        "{\n" + "\n".join(lines) + '\n "answers": {\n' + rows + "\n }\n}\n",
        encoding="utf-8",
    )
    return path


def load_golden(
    api: SimpleNamespace, pool: Pool
) -> Tuple[Dict[str, List[int]], str]:
    """``(answers, source)``: checked in when it matches this pool,
    derived otherwise.  A checked-in file whose own digest does not
    verify is an error, never a reason to derive quietly."""
    path = golden_path(pool.pool_seed)
    if pool.size is FULL and path.is_file():
        payload = json.loads(path.read_text(encoding="utf-8"))
        answers = {qid: list(uids) for qid, uids in payload["answers"].items()}
        if answers_sha256(answers) != payload["answers_sha256"]:
            raise ValueError(f"{path}: answers do not match their sha256")
        if payload["manifest_sha256"] == pool.manifest_sha256:
            return answers, "checked-in"
        # The generator drifted: the recorded answers belong to other
        # queries.  The manifest sha on the record makes that visible.
    return derive_golden(api, pool), "derived"


# ----------------------------------------------------------------------
# seeded request sequences (harness-side RNG only)
# ----------------------------------------------------------------------

def sequence_rng(seed: int, workload: str) -> np.random.Generator:
    digest = hashlib.sha256(f"ledger:{workload}".encode("utf-8")).digest()
    return np.random.default_rng(
        [int(seed) % 2**63, int.from_bytes(digest[:4], "big")]
    )


def shuffled_units(rng: np.random.Generator, multiset: List[int]) -> Iterator[List[int]]:
    """Endless units, each the same multiset of pool indexes in a fresh
    seeded order: per-query arrival counts are fixed, only the order is
    drawn (brad's ``Workload`` shape, SNIPPETS.md 2-3)."""
    while True:
        yield [multiset[int(i)] for i in rng.permutation(len(multiset))]


def zipf_arrival_counts(n: int, s: float, unit: int) -> List[int]:
    """How often rank ``r`` (0-based) arrives in a unit of ``unit``
    requests under P(r) proportional to (r+1)^-s, by largest remainder."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    exact = weights / weights.sum() * unit
    counts = np.floor(exact).astype(int)
    short = unit - int(counts.sum())
    for rank in np.argsort(-(exact - counts), kind="stable")[:short]:
        counts[rank] += 1
    return [int(c) for c in counts]


def poisson_gaps(schedule_seed: int, rate: float, count: int) -> np.ndarray:
    """``count`` exponential inter-arrival gaps with mean ``1/rate``."""
    rng = sequence_rng(schedule_seed, "open-loop-arrivals")
    return rng.exponential(scale=1.0 / rate, size=count)


def recall(returned: Sequence[int], golden: Sequence[int]) -> float:
    if not golden:
        return 1.0 if not returned else 0.0
    return len(set(returned) & set(golden)) / len(golden)
