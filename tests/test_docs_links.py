"""The docs link checker (``scripts/check_docs_links.py``) on a fixture."""

import importlib.util
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
