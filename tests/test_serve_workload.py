"""Tests for the workload replay driver (repro.serve.workload)."""

import threading
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.kg.shm import leaked_segments
from repro.serve.service import QueryRequest, QueryService
from repro.serve.workload import ReplayReport, WorkloadItem, mix_deadlines, replay
from repro.serve.workload import main as workload_main
from repro.utils.stats import percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 25) == 1.0
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 100) == 4.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


@pytest.fixture()
def service(small_bundle):
    svc = QueryService.build(small_bundle.kg, small_bundle.space, small_bundle.library)
    yield svc
    svc.close()


class TestReplay:
    def test_unpaced_replay_reports(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid)
            for q in small_bundle.workload[:4]
        ]
        report = replay(service, items)
        assert report.completed == 4
        assert report.failed == 0
        assert len(report.latencies) == 4
        assert report.throughput_qps > 0
        assert report.p50 <= report.p90 <= report.p99
        assert report.stats is not None
        assert report.stats.cache.lookups > 0
        text = report.describe()
        assert "throughput" in text and "latency" in text and "hit_rate" in text

    def test_mixed_item_kinds_accepted(self, service, small_bundle):
        query = small_bundle.workload[0].query
        report = replay(
            service,
            [query, QueryRequest(query=query, k=2), WorkloadItem(query=query, k=3)],
            k=4,
        )
        assert report.completed == 3

    def test_paced_replay_respects_rate(self, service, small_bundle):
        query = small_bundle.workload[0].query
        # 3 arrivals at 40 qps: the last is scheduled 50 ms in.
        report = replay(service, [query] * 3, rate=40.0)
        assert report.rate == 40.0
        assert report.completed == 3
        assert report.elapsed_seconds >= 2 / 40.0

    def test_failures_are_counted_not_raised(self, service, small_bundle):
        good = small_bundle.workload[0].query
        report = replay(
            service,
            [WorkloadItem(query=good, k=3), WorkloadItem(query=good, k=0)],
        )
        assert report.completed == 1
        assert report.failed == 1

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_raising_hook_fails_the_replay_instead_of_hanging_it(
        self, small_bundle, backend
    ):
        """A done-callback's exception is swallowed by the future; the
        replay must still drain, then raise the hook's first error."""
        calls, raised = [], []

        def hook(index, request, result):
            calls.append(index)
            raise KeyError(f"hook {index}")

        query = small_bundle.workload[0].query
        returned = threading.Event()

        def run():
            with QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                backend=backend, workers=1,
            ) as svc:
                try:
                    replay(svc, [query] * 3, k=3, on_result=hook)
                except KeyError as error:
                    raised.append(error)
            returned.set()

        # No pytest-timeout in the test extras: the wait is the guard.
        threading.Thread(target=run, daemon=True).start()
        assert returned.wait(timeout=30), "replay() never returned"
        assert sorted(calls) == [0, 1, 2]  # every request still finished
        assert [error.args for error in raised] == [(f"hook {calls[0]}",)]

    def test_invalid_rate_rejected(self, service):
        with pytest.raises(ServeError):
            replay(service, [], rate=0.0)

    def test_empty_workload(self, service):
        report = replay(service, [])
        assert report.completed == 0
        assert report.throughput_qps == 0.0

    @pytest.fixture()
    def breakdown(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid)
            for q in small_bundle.workload[:3]
        ]
        return items, replay(service, items, breakdown=True)

    def test_breakdown_collects_split_per_query(self, breakdown):
        items, report = breakdown
        assert sorted(qid for qid, _row in report.breakdown) == sorted(
            item.qid for item in items
        )
        for _qid, row in report.breakdown:
            assert 0.0 <= row.assembly_seconds <= row.elapsed_seconds
            assert row.ta_rounds >= 1
        text = report.describe()
        assert "assembly share" in text
        assert "search vs assembly per query" in text

    def test_breakdown_off_by_default(self, service, small_bundle):
        report = replay(service, [small_bundle.workload[0].query], k=4)
        assert report.breakdown is None
        assert "assembly share" not in report.describe()

    def test_breakdown_carries_search_counters(self, breakdown):
        rows = [row for _qid, row in breakdown[1].breakdown]
        assert all(row.expansions > 0 and row.max_queue_size > 0 for row in rows)
        assert sum(row.pruned_by_reach for row in rows) > 0
        # The totals line sums every sub-query's SearchStats.
        text = breakdown[1].describe()
        assert f"search totals: {sum(row.expansions for row in rows)} expansions" in text
        assert f", {sum(row.stale_pops for row in rows)} stale pops" in text

    def test_class_latency_buckets(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid, complexity=q.complexity)
            for q in small_bundle.workload[:4]
        ]
        report = replay(service, items)
        assert report.class_latencies  # workload queries carry classes
        assert sum(len(v) for v in report.class_latencies.values()) == 4
        expected = {q.complexity for q in small_bundle.workload[:4]}
        assert set(report.class_latencies) == expected
        for values in report.class_latencies.values():
            assert values == sorted(values)
        text = report.describe()
        assert "latency by complexity class:" in text
        for cls in expected:
            assert f"{cls} (n=" in text

    def test_class_buckets_empty_without_classes(self, service, small_bundle):
        report = replay(service, [small_bundle.workload[0].query], k=4)
        assert report.class_latencies == {}
        assert "latency by complexity class" not in report.describe()

    def test_cache_stats_scope_labelled(self, service, small_bundle):
        report = replay(service, [small_bundle.workload[0].query], k=4)
        assert report.stats is not None
        assert report.stats.scope == "shared"
        assert "weight cache (shared):" in report.describe()

    def test_a_pass_reports_its_snapshot_diff(self, service, small_bundle):
        queries = [q.query for q in small_bundle.workload[:3]]
        service.search_many(queries, k=4)  # counts the pass must not see
        before = service.stats_snapshot()
        report = replay(service, queries, k=4)
        assert report.stats == service.stats_snapshot().since(before)
        assert (report.stats.submitted, report.stats.queries) == (3, 3)


class TestPoissonArrivals:
    def test_poisson_replay_is_seeded_and_reported(self, service, small_bundle):
        query = small_bundle.workload[0].query
        report = replay(
            service, [query] * 4, rate=200.0, arrival="poisson", seed=7
        )
        assert report.completed == 4
        assert report.arrival == "poisson"
        assert "poisson open-loop" in report.describe()

    def test_poisson_schedule_deterministic(self):
        from repro.serve.workload import _arrival_schedule

        first = _arrival_schedule(16, 50.0, "poisson", seed=3)
        again = _arrival_schedule(16, 50.0, "poisson", seed=3)
        other = _arrival_schedule(16, 50.0, "poisson", seed=4)
        assert first == again
        assert first != other
        assert all(b > a for a, b in zip(first, again[1:]))  # increasing
        # Exponential gaps are irregular, unlike the uniform schedule.
        gaps = [b - a for a, b in zip([0.0] + first[:-1], first)]
        assert len({round(g, 9) for g in gaps}) > 1

    def test_uniform_schedule_matches_legacy_pacing(self):
        from repro.serve.workload import _arrival_schedule

        assert _arrival_schedule(3, 40.0, "uniform", seed=0) == [
            0.0, 1 / 40.0, 2 / 40.0,
        ]

    def test_unknown_arrival_rejected(self, service, small_bundle):
        with pytest.raises(ServeError):
            replay(
                service,
                [small_bundle.workload[0].query],
                rate=10.0,
                arrival="bursty",
            )


class TestMixDeadlines:
    def _items(self, small_bundle, n=8):
        query = small_bundle.workload[0].query
        return [WorkloadItem(query=query, k=3, qid=f"q{i}") for i in range(n)]

    def test_fraction_selects_seeded_slice(self, small_bundle):
        items = self._items(small_bundle)
        mixed = mix_deadlines(items, 0.5, 0.2, seed=5)
        with_deadline = [item for item in mixed if item.deadline is not None]
        assert len(with_deadline) == 4
        assert all(item.deadline == 0.2 for item in with_deadline)
        # Deterministic: the same seed marks the same items.
        again = mix_deadlines(items, 0.5, 0.2, seed=5)
        assert [i.deadline for i in mixed] == [i.deadline for i in again]

    def test_extremes(self, small_bundle):
        items = self._items(small_bundle, n=4)
        assert all(
            i.deadline is None for i in mix_deadlines(items, 0.0, 0.2)
        )
        assert all(
            i.deadline == 0.2 for i in mix_deadlines(items, 1.0, 0.2)
        )

    def test_validation(self, small_bundle):
        items = self._items(small_bundle, n=2)
        with pytest.raises(ServeError):
            mix_deadlines(items, 1.5, 0.2)
        with pytest.raises(ServeError):
            mix_deadlines(items, 0.5, 0.0)

    def test_mixed_replay_reports_tbq_share(self, service, small_bundle):
        items = mix_deadlines(
            self._items(small_bundle, n=4), 0.5, 0.5, seed=1
        )
        report = replay(service, items)
        assert report.completed == 4
        assert report.deadline_requests == 2
        assert "mix: 2 sgq + 2 tbq requests" in report.describe()


class TestConsoleEntrypoint:
    SMALL = ["--preset", "dbpedia", "--scale", "1.0", "--seed", "11", "--k", "4"]

    def test_main_smoke(self, capsys):
        code = workload_main(self.SMALL + ["--repeats", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(compact view, inline backend)" in out
        assert "pass 1/2 (cold)" in out
        assert "pass 2/2 (warm)" in out
        # A preset run is one Workload pass like a --scenario run.
        digests = [
            line for line in out.splitlines()
            if line.startswith("exact-match digest: sha256:")
        ]
        assert len(digests) == 2 and digests[0] == digests[1]
        assert "throughput" in out
        assert "hit_rate" in out

    def test_main_breakdown_flag(self, capsys):
        code = workload_main(self.SMALL + ["--repeats", "1", "--breakdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "assembly share" in out
        assert "search vs assembly per query" in out
        assert "latency by complexity class:" in out
        assert "search totals:" in out

    @pytest.mark.parametrize("args, message", [
        (["--answer-cache", "-1"], "answer cache capacity must be at least 1, got -1"),
        (["--shards", "4", "--backend", "process"],
         "a sharded store is served inline only"),
        (["--shards", "2", "--shard-strategy", "balanced-degree",
          "--backend", "process"],
         "a sharded store is served inline only"),
    ], ids=["answer-cache", "sharded-process", "sharded2-balanced-process"])
    def test_main_reports_the_services_own_rejection(self, capsys, args, message):
        """Combinations the service owns are not re-checked by the CLI:
        its ServeError comes back as an argparse error (exit 2)."""
        with pytest.raises(SystemExit) as exit_info:
            workload_main(["--preset", "dbpedia", "--scale", "1.0", *args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert leaked_segments() == []

    def test_main_process_backend(self, capsys):
        code = workload_main(self.SMALL + [
            "--repeats", "2", "--workers", "2", "--backend", "process", "--breakdown",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "process backend" in out
        assert "warmed" in out
        assert "weight cache (per-worker sum" in out
        assert "space row cache: hit_rate=" in out

    def test_main_sharded_store_runs_inline(self, capsys):
        """--shards stays a CLI option: the default inline backend serves
        the shard set."""
        code = workload_main(self.SMALL + [
            "--repeats", "1", "--shards", "4", "--shard-strategy", "balanced-degree",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded store: 4 shards (balanced-degree partitioner)" in out
        assert leaked_segments() == []

    def test_main_poisson_and_tbq_mix(self, capsys):
        code = workload_main(self.SMALL + [
            "--repeats", "1", "--rate", "200", "--arrival", "poisson",
            "--deadline", "0.5", "--tbq-fraction", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "poisson open-loop" in out
        assert "tbq requests" in out

    @pytest.mark.parametrize("flag, value, named", [
        ("--rate", "nan", "--rate"), ("--rate", "inf", "--rate"),
        ("--deadline", "nan", "--deadline"),
        ("--popularity", "zipf:nan", "--popularity"),
        ("--hard-timeout", "nan", "--hard-timeout"),
        ("--scale", "nan", "--scale"),
        ("--arrival", "poisson", "requires --rate"),
        ("--tbq-fraction", "0.5", "requires --deadline"),
        ("--backend", "thread", "invalid choice: 'thread'"),
    ])
    def test_main_rejects_what_no_run_can_use(self, capsys, flag, value, named):
        """Exit 2 naming the flag — ``nan <= 0`` is false, so non-finite
        numbers pass a bare positive check."""
        with pytest.raises(SystemExit) as exit_info:
            workload_main(self.SMALL + [flag, value])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    def test_report_describe_without_cache_stats(self):
        report = ReplayReport(
            completed=1,
            failed=0,
            elapsed_seconds=0.1,
            latencies=[0.1],
            rate=None,
        )
        assert "weight cache" not in report.describe()


@pytest.mark.parametrize("flags", [
    [],
    ["--rate", "50", "--arrival", "poisson", "--deadline", "0.2", "--tbq-fraction", "0.25"],
    ["--deadline", "0.5"],
    ["--popularity", "zipf:1.1:40", "--deadline", "0.1", "--tbq-fraction", "0"],
], ids=["plain", "poisson-tbq-mix", "all-tbq", "zipf-no-tbq"])
def test_preset_workload_replays_the_requests_the_flags_built(flags):
    """A preset run's frozen Workload yields, item for item, the requests
    the flags describe: bundle items with a per-item deadline or a seeded
    --tbq-fraction slice, then the seeded popularity draw, paced by the
    flags' arrival spec and seed."""
    from repro.bench.datasets import load_bundle
    from repro.scenarios import scenario_items
    from repro.serve.workload import PopularitySpec, _build_parser, _preset_run, apply_popularity

    preset = ["--preset", "dbpedia", "--scale", "1.0", "--k", "5"]
    args = _build_parser().parse_args(preset + flags)
    bundle = load_bundle(args.preset, scale=args.scale, seed=args.seed)
    deadline = None if args.tbq_fraction is not None else args.deadline
    expected = [
        WorkloadItem(q.query, args.k, deadline, q.qid, q.complexity) for q in bundle.workload
    ]
    if args.tbq_fraction:
        expected = mix_deadlines(expected, args.tbq_fraction, args.deadline, seed=args.seed)
    popularity = PopularitySpec.parse(args.popularity)
    workload, resources = _preset_run(args)
    assert apply_popularity(scenario_items(workload), popularity, workload.seed) == (
        apply_popularity(expected, popularity, args.seed)
    )
    assert resources.kg is bundle.kg and resources.space is bundle.space
    assert (workload.arrival.process, workload.arrival.rate, workload.seed) == (
        args.arrival, args.rate, args.seed,
    )


class TestScenarioEntrypoint:
    """``--scenario`` replays a frozen artifact deterministically."""

    ARTIFACT = str(
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "scenarios" / "held_out_v1.pkl"
    )

    def test_scenario_replay_prints_identical_digests(self, capsys):
        code = workload_main(
            ["--scenario", self.ARTIFACT, "--repeats", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "intent mix: star=2, chain=2" in out
        assert "deadline mix: 20%" in out
        digests = [
            line for line in out.splitlines()
            if line.startswith("exact-match digest: sha256:")
        ]
        assert len(digests) == 2
        assert digests[0] == digests[1]
        assert "(8 exact queries)" in digests[0]
        assert "replay: 10 completed, 0 failed" in out

    def test_scenario_digest_mismatch_between_passes_exits_1(
        self, capsys, monkeypatch
    ):
        stubbed = iter(["sha256:aaa", "sha256:bbb", "sha256:ccc"])
        monkeypatch.setattr(
            "repro.scenarios.replay.answer_digest", lambda answers: next(stubbed)
        )
        code = workload_main(["--scenario", self.ARTIFACT, "--repeats", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert "pass 2/3" in captured.out and "pass 3/3" not in captured.out
        assert (
            "exact-match digest mismatch: pass 1 printed sha256:aaa, "
            "pass 2 printed sha256:bbb"
        ) in captured.err

    def test_scenario_rejects_conflicting_flags(self):
        for conflict in (
            ["--rate", "50"],
            ["--arrival", "poisson", "--rate", "10"],
            ["--deadline", "0.1"],
            ["--tbq-fraction", "0.5", "--deadline", "0.1"],
        ):
            with pytest.raises(SystemExit):
                workload_main(["--scenario", self.ARTIFACT] + conflict)

    def test_scenario_rejects_missing_artifact(self):
        with pytest.raises(SystemExit):
            workload_main(["--scenario", "nope/missing.pkl"])
