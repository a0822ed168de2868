#!/usr/bin/env python3
"""The perf ledger's one command.

    run.py                                  all six workloads, end to end
    run.py --trace                          ... and the per-layer numbers
    run.py --repeats 5 --out A.json         every run's values, to a file
    run.py compare A.json B.json            one row per (metric, workload)
    run.py golden --pool-seed 7             re-derive a checked-in golden

    run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is one workload in this process — what the first forms run
six times, each in a fresh child, and what the benchmark driver calls.  Its
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end to end with ``--trace 0``, per layer with
``--trace 1``).  It exits non-zero on a wrong exact answer, a failed
request or a leaked shared-memory segment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

_HERE = Path(__file__).resolve().parent
# Import siblings as the package ``ledger``: leaving this directory on the
# path would let ``trace.py`` shadow the standard library's ``trace``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parent))

from ledger import adapter, inputs, layers, report, workloads  # noqa: E402
from ledger.clock import VirtualClock  # noqa: E402

OUT_DIR = _HERE / "out"


def measure_end_to_end(api, spec, pool, golden, seed: int, seconds: float, cycles: int):
    """Set-up (timed), cold pass, measured phase, verdict.  Returns
    ``(metrics, verdict, detail)``; tracing is never on here."""
    clock = VirtualClock()
    service, setups = workloads.timed_setups(api, pool, spec, clock, cycles)
    try:
        cold_s = workloads.cold_pass(service, pool)
        units = workloads.request_units(spec, pool, seed)
        make = workloads.request_maker(api, spec, pool, clock)
        if spec.loop == "open":
            load = workloads.run_open(
                service, units, make, clock,
                rate=spec.rate, seconds=seconds, schedule_seed=pool.pool_seed,
            )
        else:
            load = workloads.run_closed(
                service, units, make, clock, clients=spec.clients, seconds=seconds,
            )
        verdict = workloads.judge(spec, pool, golden, load, clock)
        rss = workloads.peak_rss_mb(service, spec)
    finally:
        service.close()
    detail = {
        "serve.cold_pass_s": cold_s,
        "units": load.units,
        "machine.speed": clock.median_speed(),
        "machine.speed_spread": clock.spread(),
        "raw.qps": (verdict.attempted - verdict.failed) / verdict.raw_wall_s,
        "raw.latency_p50_ms": workloads.percentile(verdict.raw_latencies_s, 50) * 1e3,
        "raw.latency_p95_ms": workloads.percentile(verdict.raw_latencies_s, 95) * 1e3,
        "errors": verdict.errors,
        "wrong_answers": verdict.wrong,
    }
    return workloads.end_to_end(verdict, setups, rss), verdict, detail


def measure_layers(api, spec, pool, golden, seed: int, seconds: float, trace_path):
    """Probes plus the untraced and traced replay.  Returns
    ``(metrics, verdict, detail)``."""
    clock = VirtualClock()
    metrics = dict(layers.standalone_probes(api, pool, clock))
    metrics.update(layers.serving_probes(api, pool, clock))
    replay, verdict = layers.replay_metrics(
        api, spec, pool, golden, seed, seconds, clock, trace_path
    )
    for name, value in replay.items():
        metrics.setdefault(name, value)
    metrics["machine.speed"] = (clock.median_speed(), len(clock))
    metrics["machine.speed_spread"] = (clock.spread(), len(clock))
    named = {
        name: (value, layers.PER_LAYER[name][0], n)
        for name, (value, n) in metrics.items()
    }
    return named, verdict, {"trace_file": str(trace_path)}


def run_one(args: argparse.Namespace) -> int:
    """One workload, here and now."""
    api = adapter.bind()
    spec = workloads.BY_NAME[args.workload]
    size = inputs.SMOKE if args.smoke else inputs.FULL
    pool = inputs.build_pool(api, args.pool_seed, size)
    golden, golden_source = inputs.load_golden(api, pool)
    if args.trace:
        metrics, verdict, extra = measure_layers(
            api, spec, pool, golden, args.seed, args.seconds,
            OUT_DIR / f"trace-{spec.name}.jsonl",
        )
    else:
        metrics, verdict, extra = measure_end_to_end(
            api, spec, pool, golden, args.seed, args.seconds,
            2 if args.smoke else workloads.SETUP_CYCLES,
        )
    leaked = api.leaked_segments()
    correct = verdict.failed == 0 and not leaked
    detail = {
        "workload": spec.name,
        "fingerprint": report.fingerprint(args.seed, args.pool_seed, pool.manifest_sha256),
        "size": size.name,
        "seconds": args.seconds,
        "golden": golden_source,
        "queries": len(pool),
        "scenarios.generate_s": pool.generate_s,
        **extra,
        "leaked_segments": leaked,
        "failures": verdict.examples,
        "n": {name: n for name, (_value, _unit, n) in metrics.items()},
    }
    for line in verdict.examples:
        print(f"FAILED {line}", file=sys.stderr)
    if leaked:
        print(f"LEAKED shared-memory segments: {leaked}", file=sys.stderr)
    # The driver reads the last line and wants exactly these four keys;
    # everything else (sample counts, fingerprint) rides one line above.
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in metrics.items()
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all workloads, each in a fresh child process
# ----------------------------------------------------------------------

def _child(args: argparse.Namespace, workload: str, traced: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--pool-seed", str(args.pool_seed),
        "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise RuntimeError(
            f"{workload}: no result (exit {done.returncode})\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    for name, metric in result["metrics"].items():
        metric["n"] = detail["n"][name]
    failures = [l for l in done.stderr.splitlines() if l.startswith(("FAILED", "LEAKED"))]
    for line in failures:
        print(f"  {workload}: {line}", file=sys.stderr)
    return dict(
        result, workload=workload, trace=traced, detail=detail,
        exit_code=done.returncode,
    )


def run_all(args: argparse.Namespace) -> int:
    names = [spec.name for spec in workloads.WORKLOADS]
    runs: List[dict] = []
    for repeat in range(args.repeats):
        for name in names:
            for traced in ([False, True] if args.trace else [False]):
                kind = "trace" if traced else "end-to-end"
                print(f"[{repeat + 1}/{args.repeats}] {name} ({kind}) ...",
                      file=sys.stderr, flush=True)
                run = _child(args, name, traced)
                run["repeat"] = repeat
                runs.append(run)
    measured = [report.with_failed_share(r) for r in runs if not r["trace"]]
    report.print_table(
        f"End-to-end metrics (median of {args.repeats} run(s), seed {args.seed}, "
        f"pool {args.pool_seed}, {args.seconds} s measured)",
        measured, list(workloads.END_TO_END) + ["failed_share"],
    )
    if args.trace:
        report.print_table(
            "Per-layer metrics (traced run)",
            [r for r in runs if r["trace"]], list(layers.PER_LAYER),
        )
    first = runs[0]["detail"]["fingerprint"]
    print("\nfingerprint: " + json.dumps(first, sort_keys=True))
    if any(r["detail"]["fingerprint"]["noisy"] for r in runs):
        print("NOISY: the 1-minute load average exceeded nproc - 0.5 at some start")
    bad = [r for r in runs if not r["correct"] or r["exit_code"] != 0]
    for run in bad:
        print(f"INCORRECT: {run['workload']} failed {run['failed']} of "
              f"{run['attempted']}; leaked {run['detail']['leaked_segments']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": report.RECORD_SCHEMA,
            "seed": args.seed, "pool_seed": args.pool_seed,
            "seconds": args.seconds, "repeats": args.repeats,
            "size": "smoke" if args.smoke else "full",
            "fingerprint": first, "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
        print(f"record written to {args.out}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        rows, bad = report.compare(
            report.load_record(args.base), report.load_record(args.change)
        )
        report.print_compare(rows)
        return 1 if bad else 0
    if argv[:1] == ["golden"]:
        parser = argparse.ArgumentParser(prog="run.py golden")
        parser.add_argument("--pool-seed", type=int, required=True)
        args = parser.parse_args(argv[1:])
        api = adapter.bind()
        pool = inputs.build_pool(api, args.pool_seed, inputs.FULL)
        print(inputs.write_golden(api, pool))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=7,
                        help="request-sequence seed (order of the queries in each unit)")
    parser.add_argument("--pool-seed", type=int, default=inputs.DEFAULT_POOL_SEED,
                        help="query-pool seed; 8 is the hold-out pool")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-sized inputs for the self-test")
    parser.add_argument("--out", help="write the record of every run here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(report.contract()["run_seconds"])
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")
    if args.workload:
        return run_one(args)
    return run_all(args)


def stop_resource_tracker() -> None:
    """Stop the standard library's shared-memory resource tracker and wait
    for it to end.

    Publishing a graph to shared memory starts that helper process; left
    alone it ends only once it notices this process is gone, so for a moment
    it outlives the run.  No process started here may do that.
    """
    from multiprocessing import resource_tracker

    # Closes the tracker's pipe and waits for it; a no-op when none started.
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    except adapter.AdapterError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        code = 2
    finally:
        sys.stdout.flush()
        stop_resource_tracker()
    sys.exit(code)
