"""Records, the environment fingerprint, the printed tables and ``compare``.

A record file holds every run's values, never only medians, so whoever
pairs parent and change runs can do it themselves.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

RECORD_SCHEMA = 1


def contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(seed: int, pool_seed: int, manifest_sha256: str) -> dict:
    """Where and on what a record was taken.  ``noisy`` is the cheap
    warning; ``machine.speed_spread`` in a traced run is the measurement."""
    cpus = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "git_sha": git_sha(),
        "manifest_sha256": manifest_sha256,
        "seed": seed,
        "pool_seed": pool_seed,
        "load_1m": load_1m,
        "noisy": load_1m > cpus - 0.5,
    }


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def _format(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:.0f}"
    if magnitude >= 100:
        return f"{value:.1f}"
    if magnitude >= 1:
        return f"{value:.3f}"
    return f"{value:.4f}"


def print_table(title: str, runs: Sequence[dict], names: Iterable[str]) -> None:
    """One row per metric, one column per workload; the median over the
    repeats with its unit and the smallest sample count behind it."""
    by_workload: Dict[str, List[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    workloads = list(by_workload)
    print(f"\n{title}")
    print("  " + "metric".ljust(36) + "".join(w.rjust(22) for w in workloads))
    for name in names:
        cells = []
        for workload in workloads:
            entries = [
                run["metrics"][name] for run in by_workload[workload]
                if name in run["metrics"]
            ]
            if not entries:
                cells.append("-".rjust(22))
                continue
            value = statistics.median(e["value"] for e in entries)
            n = min(e["n"] for e in entries)
            cells.append(f"{_format(value)} {entries[0]['unit']} (N={n})".rjust(22))
        print("  " + name.ljust(36) + "".join(cells))


def with_failed_share(run: dict) -> dict:
    """The eighth end-to-end metric.  It is 0 on a healthy run, which the
    benchmark contract does not allow a bounded metric to be, so it travels
    as ``failed``/``attempted`` and is put back here for people."""
    metrics = dict(run["metrics"])
    metrics["failed_share"] = {
        "value": run["failed"] / run["attempted"],
        "unit": "share",
        "n": run["attempted"],
    }
    return dict(run, metrics=metrics)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(record: dict, workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in map(with_failed_share, record["runs"])
        if run["workload"] == workload and not run.get("trace")
        and metric in run["metrics"]
    ]


def compare(base: dict, change: dict) -> Tuple[List[dict], bool]:
    """One row per (end-to-end metric, workload).  Returns the rows and
    whether any is ``regressed`` or ``unresolved``.

    ``unresolved`` — the runs of either side spread wider than the bound —
    is not ``within-bound``: the metric could have moved by the bound and
    the runs would not show it.
    """
    spec = contract()
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_share", "lower", 0.0))
    rows: List[dict] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, better, bound in metrics:
            a, b = _values(base, workload, name), _values(change, workload, name)
            if not a or not b:
                continue
            a1, a2, a3 = _quartiles(a)
            b1, b2, b3 = _quartiles(b)
            if name == "failed_share":
                # Absolute, and any increase is a regression.
                verdict = "regressed" if b2 > a2 else "within-bound"
                ratio = spread = 0.0
            else:
                ratio = b2 / a2
                worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
                spread = max(a3 - a1, b3 - b1) / a2
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                elif worse < -bound:
                    verdict = "improved"
                else:
                    verdict = "within-bound"
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "base": {"median": a2, "q1": a1, "q3": a3, "runs": len(a)},
                "change": {"median": b2, "q1": b1, "q3": b3, "runs": len(b)},
                "ratio": ratio, "ratio_base": a2, "spread": spread,
                "verdict": verdict,
            })
    bad = any(r["verdict"] in ("regressed", "unresolved") for r in rows)
    return rows, bad


def print_compare(rows: Sequence[dict]) -> None:
    print(
        "workload".ljust(20) + "metric".ljust(20)
        + "base median [q1, q3]".rjust(32) + "change median [q1, q3]".rjust(32)
        + "ratio (base)".rjust(20) + "bound".rjust(7) + "  verdict"
    )
    for r in rows:
        def side(s: dict) -> str:
            return (
                f"{_format(s['median'])} [{_format(s['q1'])}, {_format(s['q3'])}]"
                f" n={s['runs']}"
            )
        print(
            r["workload"].ljust(20) + r["metric"].ljust(20)
            + side(r["base"]).rjust(32) + side(r["change"]).rjust(32)
            + f"{r['ratio']:.3f} ({_format(r['ratio_base'])})".rjust(20)
            + f"{r['bound']:.2f}".rjust(7) + "  " + r["verdict"]
        )


def load_record(path: str) -> dict:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"{path}: not a ledger record (schema {record.get('schema')!r})")
    return record
