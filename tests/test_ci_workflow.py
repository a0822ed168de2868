"""The CI workflow's process step covers every module that starts a pool.

The step "Process tests, leaked pipes and dead threads are errors" turns
a leaked pipe, an unclosed segment and a reader thread that died into
errors.  A module that builds a process backend outside its list passes
those as warnings, so the list is held to the modules that build one.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CI = REPO / ".github" / "workflows" / "ci.yml"
PROCESS_STEP = "Process tests, leaked pipes and dead threads are errors"

#: What builds a process backend: the class, the backend's name as a
#: string, or a loop over every execution backend (the table itself, not
#: its name quoted in an export list).
BUILDS_A_POOL = re.compile(
    r"""ProcessBackend\(|["']process["']|(?<!["'])EXECUTION_BACKENDS(?!["'])"""
)


def step_modules(workflow, name):
    """The ``tests/*.py`` paths the named step's ``run`` names."""
    lines = workflow.splitlines()
    start = lines.index(f"      - name: {name}")
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("      - ")),
        len(lines),
    )
    return re.findall(r"tests/\w+\.py", "\n".join(lines[start:end]))


def pool_modules():
    """Every test module whose source builds a process backend."""
    return {
        f"tests/{path.name}"
        for path in (REPO / "tests").glob("test_*.py")
        if path.name != Path(__file__).name  # this pattern names it
        and BUILDS_A_POOL.search(path.read_text(encoding="utf-8"))
    }


def test_the_process_step_runs_every_module_that_starts_a_pool():
    listed = step_modules(CI.read_text(encoding="utf-8"), PROCESS_STEP)
    assert len(listed) == len(set(listed)), "a module is listed twice"
    assert set(listed) == pool_modules()

