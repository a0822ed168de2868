#!/usr/bin/env python
"""Regenerate the checked-in held-out scenario suite and its goldens.

Builds the default scenario suite (``repro.scenarios.default_suite``),
takes the held-out split, and writes three artifacts under
``benchmarks/scenarios/``:

- ``held_out_v1.pkl`` — the frozen :class:`~repro.scenarios.Workload`
  (the thing ``repro-serve-workload --scenario`` replays and the
  held-out row of ``tests/test_conformance.py`` reads);
- ``held_out_v1.manifest.json`` — the pure-JSON manifest of the same
  workload, for human diffing and format-drift detection in review;
- ``held_out_v1.golden.json`` — the recorded exact-query answer sets
  every replay is asserted equal to.

Before writing anything the script replays the workload twice and
refuses to proceed unless both passes produce the identical answer
digest — a golden file recorded from a nondeterministic replay would
poison every future CI run.

Usage::

    python scripts/build_scenarios.py [--domain dbpedia] [--seed 20260806]
                                      [--out benchmarks/scenarios]

Run from the repository root; ``src/`` is put on ``sys.path``
automatically so no install step is required.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.scenarios import (  # noqa: E402
    build_resources,
    default_suite,
    replay_scenario,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", default="dbpedia",
                        choices=("dbpedia", "freebase", "yago2"))
    parser.add_argument("--seed", type=int, default=20260806)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=str(REPO / "benchmarks" / "scenarios"))
    args = parser.parse_args(argv)

    suite = default_suite(args.domain, seed=args.seed, scale=args.scale)
    workload = suite.workload("held_out")
    print(
        f"suite {suite.name}: held-out split {workload.name} with "
        f"{len(workload.queries)} queries "
        f"({', '.join(f'{i}={n}' for i, n in workload.intent_counts().items())})"
    )

    resources = build_resources(workload)
    first = replay_scenario(workload, resources=resources)
    second = replay_scenario(workload, resources=resources)
    if first.digest != second.digest:
        print(
            "REPLAY NOT DETERMINISTIC: two passes over the same artifact "
            f"disagree ({first.digest} vs {second.digest}); refusing to "
            "record golden answers",
            file=sys.stderr,
        )
        return 1
    print(
        f"double replay agreed: {first.digest} "
        f"({len(first.answers)} exact queries, "
        f"{first.report.deadline_requests} time-bounded)"
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pkl = out / "held_out_v1.pkl"
    workload.to_pickle(pkl)
    manifest = out / "held_out_v1.manifest.json"
    manifest.write_text(
        json.dumps(workload.manifest(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    golden = out / "held_out_v1.golden.json"
    golden.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "digest": first.digest,
                "answers": {
                    qid: first.answers[qid] for qid in sorted(first.answers)
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    for path in (pkl, manifest, golden):
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
