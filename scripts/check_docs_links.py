#!/usr/bin/env python
"""Docs link check: every repo path the markdown docs mention must exist.

Checks, across all tracked ``*.md`` files (skipping ``benchmarks/results``):

1. relative markdown link targets ``[text](path)`` resolve to real files
   (external ``http(s)``/``mailto`` links are not fetched — CI runs
   offline — but must at least parse);
2. inline-code repo paths like ``src/repro/core/engine.py`` exist —
   only tokens that contain a ``/`` and end in ``.py`` or ``.md`` are
   treated as path claims, so prose code spans stay unaffected.
   ``ROADMAP.md`` and ``CHANGES.md`` are exempt from this rule (not from
   rule 1): a plan abbreviates paths and a changelog names files that
   existed when the entry was written.

And, across the Python sources under ``src/`` and ``benchmarks/*.py``:

3. every ``*.md`` file a docstring or comment names exists, at the path
   given or — for a bare name like ``README.md`` — at the repository
   root (the sources cited a ``DESIGN.md`` that never existed).

Exit code 0 when clean, 1 with a per-file report otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`]+)`")
PATH_CLAIM = re.compile(r"^[\w./-]+/[\w.-]+\.(?:py|md)$")
MD_MENTION = re.compile(r"[\w./-]*\w\.md\b")
EXTERNAL = ("http://", "https://", "mailto:")
# Research scaffolding (issue briefs, paper-retrieval dumps) — not
# project docs; their link targets live outside this repository.
SKIP_NAMES = {"ISSUE.md", "PAPERS.md", "SNIPPETS.md", "PAPER.md"}
# Planning scaffolding and history: links are checked, path claims not.
HISTORY_NAMES = {"ROADMAP.md", "CHANGES.md"}


def check_file(md: Path) -> list:
    problems = []
    text = md.read_text(encoding="utf-8")
    for target in MD_LINK.findall(text):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        resolved = (md.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            problems.append(f"broken link: ({target})")
    spans = () if md.name in HISTORY_NAMES else CODE_SPAN.findall(text)
    for span in spans:
        if PATH_CLAIM.match(span) and not (REPO / span).exists():
            problems.append(f"missing path: `{span}`")
    return problems


def check_source(py: Path) -> list:
    mentions = sorted(set(MD_MENTION.findall(py.read_text(encoding="utf-8"))))
    return [
        f"missing doc: {mention}"
        for mention in mentions
        if not (REPO / mention).exists()
    ]


def main() -> int:
    failures = 0
    checked = []
    for md in sorted(REPO.rglob("*.md")):
        if "benchmarks/results" in str(md) or ".git" in md.parts:
            continue
        if md.name in SKIP_NAMES:
            continue
        checked.append((md, check_file(md)))
    sources = sorted((REPO / "src").rglob("*.py"))
    sources += sorted((REPO / "benchmarks").glob("*.py"))
    checked.extend((py, check_source(py)) for py in sources)
    for path, problems in checked:
        for problem in problems:
            print(f"{path.relative_to(REPO)}: {problem}")
        failures += len(problems)
    if failures:
        print(f"\n{failures} problem(s) found")
        return 1
    print("docs links ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
