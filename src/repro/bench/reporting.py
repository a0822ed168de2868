"""Plain-text table rendering for benchmark output.

Every benchmark module prints its paper-style table through these helpers
and also appends it to ``benchmarks/results/`` so the final run's numbers
can be lifted into README.md verbatim.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench.runner import SweepRow


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a header rule."""
    columns = len(headers)
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_sweep(rows: Sequence[SweepRow], title: str) -> str:
    """Render an effectiveness sweep as a Fig. 12-14 style table."""
    return format_table(
        ("method", "k", "precision", "recall", "F1", "time (ms)"),
        [
            (
                row.method,
                row.k,
                row.precision,
                row.recall,
                row.f1,
                f"{row.mean_seconds * 1000:.1f}",
            )
            for row in rows
        ],
        title=title,
    )


def results_dir() -> Path:
    """``benchmarks/results`` relative to the repository root."""
    root = Path(__file__).resolve().parents[3]
    path = root / "benchmarks" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def logs_dir() -> Path:
    """``benchmarks/results/logs`` — human-readable, git-ignored output.

    Kept apart from the machine-readable ``BENCH_*.json`` artifacts (the
    only files force-added from the ignored results tree), so a bench run
    can never leave a stray text log looking like a tracked artifact.
    """
    path = results_dir() / "logs"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under benchmarks/results/logs/."""
    print()
    print(text)
    target = logs_dir() / f"{name}.txt"
    with target.open("w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable report as ``benchmarks/results/<name>.json``.

    Used for ``BENCH_*.json`` artifacts that CI uploads (e.g. the
    compact-kernel equivalence/speedup report); returns the written path.
    """
    target = results_dir() / f"{name}.json"
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target
