#!/usr/bin/env python
"""List the functions under ``src/repro`` that no entry point reaches.

Runs every entry point of the repository with a ``sys.setprofile`` hook in
every Python process it starts, then prints, per module, each function
none of those processes called.  The entry points are:

- every ``examples/*.py``;
- the ``repro-serve-workload`` runs CI makes (``python -m repro.serve``);
- ``scripts/build_scenarios.py`` for real, into a temporary directory;
- ``benchmarks/ledger/run.py --smoke --trace`` (every workload, end to
  end and traced, each in its own child process);
- the paper benches, ``benchmarks/bench_*.py``, at the default scale
  (``--no-benches`` skips them; they take most of the run).

The hook reaches worker processes too.  A generated ``sitecustomize`` on
``PYTHONPATH`` installs it when each interpreter starts, so spawned
workers and the ledger's child processes run it, and forked workers
inherit it.  Each process appends a function to its own report file the
first time it calls it, so a worker killed by a signal (the chaos run's
SIGKILL, a broken pool's ``terminate()``) has reported what it ran.

A function counts as reached once any process entered it.  A generator
function counts only once it is iterated.  Functions are ``def``
statements found by parsing the sources, nested ones included.

Usage::

    python scripts/reach_profile.py [--no-benches]

The exit code is 1 when an entry point exited with an unexpected code;
the report is printed either way.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
PREFIX = str(PACKAGE) + os.sep
ENV_DIR = "REPRO_REACH_DIR"
SCENARIO = "benchmarks/scenarios/held_out_v1.pkl"

# The serving-smoke job's runs, as ``python -m repro.serve`` arguments,
# each with the exit code it must end with.
CLI_RUNS: List[Tuple[List[str], int]] = [
    (["--preset", "dbpedia", "--scale", "1.0", "--repeats", "2", "--k", "5"], 0),
    (["--preset", "dbpedia", "--scale", "1.0", "--rate", "nan"], 2),
    (["--preset", "dbpedia", "--scale", "1.0", "--repeats", "1", "--k", "3"], 0),
    (["--preset", "dbpedia", "--scale", "1.0", "--repeats", "2", "--k", "5",
      "--backend", "process", "--workers", "2", "--rate", "50",
      "--arrival", "poisson", "--deadline", "0.2", "--tbq-fraction", "0.25",
      "--breakdown"], 0),
    (["--scenario", SCENARIO, "--repeats", "2"], 0),
    (["--scenario", SCENARIO, "--repeats", "2", "--backend", "process",
      "--workers", "2"], 0),
    (["--scenario", SCENARIO, "--repeats", "2", "--backend", "process",
      "--workers", "2", "--fault-plan", "crash@3;transient@2;seed=11",
      "--retries", "5"], 0),
    (["--scenario", SCENARIO, "--repeats", "2", "--answer-cache", "32",
      "--popularity", "zipf:1.1"], 0),
    (["--scenario", SCENARIO, "--repeats", "2", "--answer-cache", "32"], 0),
    (["--scenario", SCENARIO, "--repeats", "2", "--shards", "4"], 0),
    (["--preset", "dbpedia", "--scale", "1.0", "--backend", "process",
      "--workers", "2", "--shards", "4"], 2),
]


# ----------------------------------------------------------------------
# inside every profiled process (installed by the generated sitecustomize)
# ----------------------------------------------------------------------

_seen: Dict[int, object] = {}
_out = {"pid": None, "fd": None, "dir": ""}


def _hook(frame, event, _arg) -> None:
    if event != "call":
        return
    code = frame.f_code
    # Keyed by id, which is cheap; the stored code object keeps the id
    # from being reused by another one.
    if id(code) not in _seen:
        _seen[id(code)] = code
        if code.co_filename.startswith(PREFIX):
            _record(code)


def _record(code) -> None:
    """Append one newly reached function to this process's report.

    Written through at once, one ``os.write`` per function, so a process
    killed by a signal has reported everything it reached.  A forked child
    inherits the parent's descriptor and opens its own on its first write.
    """
    pid = os.getpid()
    if _out["pid"] != pid:
        _out["fd"], _name = tempfile.mkstemp(dir=_out["dir"], suffix=".tsv")
        _out["pid"] = pid
    os.write(_out["fd"], f"{code.co_filename}\t{code.co_firstlineno}\n".encode())


def install(out_dir: str) -> None:
    """Profile this process and the threads it starts, reporting each
    function under the package into ``out_dir`` when it is first called."""
    _out["dir"] = out_dir
    sys.setprofile(_hook)
    threading.setprofile(_hook)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def defined_functions() -> Dict[Tuple[str, int], str]:
    """Every ``def`` under the package: ``(file, first line) -> qualname``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: Dict[Tuple[str, int], str] = {}

    def visit(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = scope + child.name
                found[(path, first)] = name
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope + child.name + ".")
            else:
                visit(child, path, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


def entry_points(scratch: Path, benches: bool) -> List[Tuple[List[str], int]]:
    """``(argv, expected exit code)`` for every entry point, in run order."""
    python = sys.executable
    examples = sorted((REPO / "examples").glob("*.py"))
    runs = [([python, str(path)], 0) for path in examples]
    runs += [([python, "-m", "repro.serve", *args], code) for args, code in CLI_RUNS]
    runs.append(([python, "scripts/build_scenarios.py", "--out",
                  str(scratch / "scenarios")], 0))
    runs.append(([python, "benchmarks/ledger/run.py", "--smoke", "--trace",
                  "--seconds", "1"], 0))
    if benches:
        bench_files = sorted(
            str(path.relative_to(REPO))
            for path in (REPO / "benchmarks").glob("bench_*.py")
        )
        runs.append(([python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      *bench_files], 0))
    return runs


def run_profiled(benches: bool) -> Tuple[Set[Tuple[str, int]], int, List[str]]:
    """Run every entry point; return what they reached, how many processes
    reported, and the runs that ended with an unexpected exit code."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        (scratch / "site").mkdir()
        (scratch / "reports").mkdir()
        (scratch / "site" / "sitecustomize.py").write_text(
            "import os\n"
            f"if os.environ.get({ENV_DIR!r}):\n"
            "    import reach_profile\n"
            f"    reach_profile.install(os.environ[{ENV_DIR!r}])\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env[ENV_DIR] = str(scratch / "reports")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(scratch / "site"), str(REPO / "scripts"), str(SRC)]
        )
        failures = []
        for command, expected in entry_points(scratch, benches):
            shown = " ".join(command[1:])
            print(f"running {shown}", file=sys.stderr, flush=True)
            done = subprocess.run(
                command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != expected:
                failures.append(f"{shown}: exit {done.returncode}, expected {expected}")
                print(done.stderr[-2000:], file=sys.stderr)
        reached: Set[Tuple[str, int]] = set()
        reports = sorted((scratch / "reports").glob("*.tsv"))
        for report in reports:
            for row in report.read_text(encoding="utf-8").splitlines():
                path, line = row.split("\t")
                reached.add((path, int(line)))
        return reached, len(reports), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-benches", action="store_true",
                        help="skip the paper benches (most of the run time)")
    args = parser.parse_args(argv)

    functions = defined_functions()
    reached, processes, failures = run_profiled(benches=not args.no_benches)
    unreached: Dict[str, List[Tuple[int, str]]] = {}
    for (path, line), name in functions.items():
        if (path, line) not in reached:
            module = str(Path(path).relative_to(SRC))
            unreached.setdefault(module, []).append((line, name))
    missed = sum(map(len, unreached.values()))
    print(
        f"reached {len(functions) - missed} of {len(functions)} functions "
        f"under src/repro ({processes} processes reported)"
    )
    for module in sorted(unreached):
        print(f"\n{module}: {len(unreached[module])} unreached")
        for line, name in sorted(unreached[module]):
            print(f"    {line:5d}  {name}")
    for failure in failures:
        print(f"\nENTRY POINT FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
