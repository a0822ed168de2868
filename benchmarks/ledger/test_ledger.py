"""Self-test of the ledger at smoke size (scale 1.0, 5 queries per intent).

Checks the harness, not the program's speed: what it prints matches
``BENCHMARK.json``, spans nest, ``compare`` of a record with itself finds
nothing, and a wrong golden answer fails the command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import adapter, inputs, layers, report, run, trace, workloads

SECONDS = 0.2
SEED = 3


@pytest.fixture(scope="module")
def api():
    return adapter.bind()


@pytest.fixture(scope="module")
def pool(api):
    return inputs.build_pool(api, inputs.DEFAULT_POOL_SEED, inputs.SMOKE)


@pytest.fixture(scope="module")
def golden(api, pool):
    answers, source = inputs.load_golden(api, pool)
    assert source == "derived"  # only full-size pools have checked-in answers
    return answers


def test_benchmark_json_names_what_the_harness_emits():
    spec = report.contract()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == workloads.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_checked_in_goldens_verify_their_own_digest():
    for pool_seed in (inputs.DEFAULT_POOL_SEED, inputs.HOLD_OUT_POOL_SEED):
        payload = json.loads(inputs.golden_path(pool_seed).read_text())
        assert inputs.answers_sha256(payload["answers"]) == payload["answers_sha256"]
        assert len(payload["answers"]) == 5 * inputs.FULL.per_intent


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_every_workload_reports_every_end_to_end_metric(api, pool, golden, name):
    spec = workloads.BY_NAME[name]
    metrics, verdict, _detail = run.measure_end_to_end(
        api, spec, pool, golden, SEED, SECONDS, cycles=2
    )
    assert set(metrics) == set(workloads.END_TO_END)
    for metric, (value, unit, n) in metrics.items():
        assert unit == workloads.END_TO_END[metric][0]
        assert n >= 1 and value > 0, metric
    assert verdict.attempted >= len(pool) or spec.loop == "open"
    assert verdict.failed == 0
    if spec.exact:
        assert metrics["answer_recall"][0] == 1.0
    assert api.leaked_segments() == []


def test_same_seed_same_request_sequence(pool):
    for spec in workloads.WORKLOADS:
        first = next(workloads.request_units(spec, pool, SEED))
        again = next(workloads.request_units(spec, pool, SEED))
        other = next(workloads.request_units(spec, pool, SEED + 1))
        assert first == again, spec.name
        assert sorted(first) == sorted(other), spec.name  # same arrival counts
        # The open loop's order belongs to the pool, not to --seed.
        assert (first != other) == (spec.loop == "closed"), spec.name


def test_driver_command_prints_the_result_line_last(capsys):
    code = run.main([
        "--workload", "tbq-bounded", "--smoke", "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == set(workloads.END_TO_END)
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_the_command_leaves_no_process_behind():
    """Publishing to shared memory starts the standard library's resource
    tracker, which would otherwise outlive the command for a moment."""
    done = subprocess.Popen(
        [sys.executable, run.__file__, "--workload", "exact-process-shm", "--smoke",
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert done.wait(timeout=120) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
                state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
            except (OSError, ValueError):
                continue  # ended while we looked
            if int(session) == done.pid and state != "Z":
                left.append(entry.name)
    assert left == []


def test_traced_run_emits_every_layer_metric_and_spans_nest(api, pool, golden, tmp_path):
    path = tmp_path / "trace.jsonl"
    metrics, verdict, _detail = run.measure_layers(
        api, workloads.BY_NAME["exact-sharded4"], pool, golden, SEED, SECONDS, path
    )
    assert set(metrics) == set(layers.PER_LAYER)
    assert all(unit == layers.PER_LAYER[m][0] for m, (_v, unit, _n) in metrics.items())
    assert verdict.failed == 0
    assert metrics["trace.self_share.kg.sharded"][0] > 0

    spans = [json.loads(line) for line in path.read_text().splitlines()]
    own = {s["id"]: s["seconds"] for s in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["request"] == span["request"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            own[span["parent"]] -= span["seconds"]
    # Self time may not go negative by more than timer resolution.
    assert min(own.values()) > -1e-5
    roots = [s for s in spans if s["name"] == trace.ROOT_SPAN]
    assert len(roots) == verdict.attempted
    assert sum(own.values()) == pytest.approx(sum(s["seconds"] for s in roots))


def test_compare_of_a_record_with_itself_is_all_within_bound(api, pool, golden):
    runs = []
    for name in ("exact-inline", "zipf-cached"):
        metrics, verdict, _ = run.measure_end_to_end(
            api, workloads.BY_NAME[name], pool, golden, SEED, SECONDS, cycles=2
        )
        runs.append({
            "workload": name, "trace": False,
            "attempted": verdict.attempted, "failed": verdict.failed,
            "metrics": {m: {"value": v, "unit": u, "n": n} for m, (v, u, n) in metrics.items()},
        })
    record = {"schema": report.RECORD_SCHEMA, "runs": runs}
    rows, bad = report.compare(record, record)
    assert not bad
    assert len(rows) == 2 * (len(workloads.END_TO_END) + 1)
    assert {row["verdict"] for row in rows} == {"within-bound"}


def test_a_corrupted_golden_fails_the_command(monkeypatch, capsys):
    real = inputs.load_golden

    def corrupted(api, pool):
        answers, source = real(api, pool)
        victim = sorted(answers)[0]
        answers[victim] = list(reversed(answers[victim])) + [-1]
        return answers, source

    monkeypatch.setattr(inputs, "load_golden", corrupted)
    code = run.main([
        "--workload", "exact-inline", "--smoke", "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ])
    captured = capsys.readouterr()
    last = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1
    assert "FAILED" in captured.err
