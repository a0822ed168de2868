"""The held-out suite builder (``scripts/build_scenarios.py``) end to end."""

import importlib.util
import json
from pathlib import Path

from repro.scenarios import Workload

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "build_scenarios.py"
CHECKED_IN = REPO / "benchmarks" / "scenarios"


def _load_builder():
    spec = importlib.util.spec_from_file_location("build_scenarios", SCRIPT)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    return builder


def test_rebuild_into_any_directory_reproduces_the_checked_in_suite(tmp_path, capsys):
    builder = _load_builder()

    # A directory outside the repository: the report prints it as given.
    assert builder.main(["--out", str(tmp_path)]) == 0
    assert f"wrote {tmp_path / 'held_out_v1.golden.json'}" in capsys.readouterr().out

    for name in ("held_out_v1.golden.json", "held_out_v1.manifest.json"):
        assert (tmp_path / name).read_bytes() == (CHECKED_IN / name).read_bytes()
    # The pickle's bytes are not stable across writes; what it holds is.
    rebuilt = Workload.from_pickle(tmp_path / "held_out_v1.pkl")
    assert rebuilt.manifest() == Workload.from_pickle(
        CHECKED_IN / "held_out_v1.pkl"
    ).manifest()
    assert rebuilt.manifest() == json.loads(
        (CHECKED_IN / "held_out_v1.manifest.json").read_text(encoding="utf-8")
    )


def test_relative_out_is_resolved_from_the_working_directory(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert _load_builder().main(["--out", "suite"]) == 0
    out = capsys.readouterr().out
    assert f"wrote {Path('suite') / 'held_out_v1.pkl'}" in out
    for name in ("held_out_v1.golden.json", "held_out_v1.manifest.json"):
        assert (tmp_path / "suite" / name).read_bytes() == (
            CHECKED_IN / name
        ).read_bytes()
