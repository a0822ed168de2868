"""Plain-text table rendering for benchmark output.

Every benchmark module prints its paper-style table through these helpers
and, when run from a checkout, also writes it under
``benchmarks/results/logs/`` so the final run's numbers can be lifted
into README.md verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

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


def logs_dir() -> Optional[Path]:
    """``benchmarks/results/logs`` of the checkout this module runs from.

    Human-readable, git-ignored output.  ``None`` when no ``benchmarks/``
    directory sits beside ``src/``: under a regular (non-editable)
    install three levels up is the interpreter's ``lib/`` directory, and
    nothing is to be created there.
    """
    benchmarks = Path(__file__).resolve().parents[3] / "benchmarks"
    if not benchmarks.is_dir():
        return None
    path = benchmarks / "results" / "logs"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(name: str, text: str) -> None:
    """Print a report block; in a checkout, also persist it under
    ``benchmarks/results/logs/``."""
    print()
    print(text)
    logs = logs_dir()
    if logs is not None:
        (logs / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
