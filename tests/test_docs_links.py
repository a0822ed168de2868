"""The docs link checker (``scripts/check_docs_links.py``) on a fixture,
and every ``tests/...py::node`` pointer in the docs and sources."""

import ast
import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs_links.py"


def test_history_files_keep_the_link_rule_and_lose_the_path_rule(tmp_path):
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    text = "See [the plan](gone.md) and `scripts/never_existed.py`.\n"
    for name in ("README.md", "CHANGES.md"):
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert checker.check_file(tmp_path / "README.md") == [
        "broken link: (gone.md)",
        "missing path: `scripts/never_existed.py`",
    ]
    assert checker.check_file(tmp_path / "CHANGES.md") == [
        "broken link: (gone.md)"
    ]


REPO = SCRIPT.parent.parent
#: ``tests/<module>.py[::Class[::test]]``, as the docs and sources name a test.
TEST_POINTER = re.compile(r"tests/(\w+)\.py((?:::\w+)*)")


def _pointer_sources():
    """Where a pointer must resolve: every doc and source but the history."""
    yield from (REPO / name for name in ("README.md", "ROADMAP.md"))
    yield from sorted((REPO / "docs").glob("*.md"))
    yield from sorted(REPO.glob(".*/skills/*/SKILL.md"))  # the build notes
    yield from sorted((REPO / "scripts").glob("*.py"))
    yield from sorted((REPO / "src").rglob("*.py"))


def _nodes(module):
    """``{name: member names}`` of a test module's top-level classes and
    functions (a function has none)."""
    tree = ast.parse(module.read_text(encoding="utf-8"))
    return {
        node.name: {
            member.name for member in getattr(node, "body", ())
            if isinstance(member, (ast.FunctionDef, ast.ClassDef))
        }
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def unresolved_pointers(text):
    """Every test pointer in ``text`` that names no existing module or node."""
    problems = []
    for match in TEST_POINTER.finditer(text):
        module = REPO / "tests" / f"{match.group(1)}.py"
        parts = match.group(2).split("::")[1:]
        if not module.exists():
            problems.append(match.group(0))
        elif parts:
            nodes = _nodes(module)
            if parts[0] not in nodes or (len(parts) > 1 and parts[1] not in nodes[parts[0]]):
                problems.append(match.group(0))
    return problems


def test_every_test_pointer_names_an_existing_node():
    problems = {
        str(path.relative_to(REPO)): unresolved_pointers(path.read_text(encoding="utf-8"))
        for path in _pointer_sources()
    }
    assert {path: found for path, found in problems.items() if found} == {}


def test_unresolved_pointers_finds_a_missing_module_class_and_test():
    text = (
        "`tests/test_docs_links.py::test_every_test_pointer_names_an_existing_node` "
        "tests/test_docs_links.py and tests/no_such_module.py, "
        "tests/test_docs_links.py::NoSuchClass and "
        "tests/test_docs_links.py::test_every_test_pointer_names_an_existing_node::x"
    )
    assert unresolved_pointers(text) == [
        "tests/no_such_module.py",
        "tests/test_docs_links.py::NoSuchClass",
        "tests/test_docs_links.py::test_every_test_pointer_names_an_existing_node::x",
    ]
