"""AmberPerf: harness determinism, BENCH files, compare, self-profiler."""

import copy
import json

import pytest

from repro.perf import benchfile
from repro.perf.harness import (
    SUITE,
    BenchResult,
    SuiteResult,
    bench_names,
    run_benchmark,
    run_suite,
)
from repro.perf.hotprof import (
    HOOK_NAMES,
    HotLoopProfiler,
    profile_runs,
    render_hotloop,
)

_BY_NAME = {spec.name: spec for spec in SUITE}


def _mini_suite(reps=2):
    """A cheap but representative slice: calibration + one simulated
    benchmark (the compare tests need the calibration row)."""
    return run_suite(fast=True, reps=reps, warmup=0,
                     only=["calibration", "dispatch"])


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


class TestHarness:
    def test_suite_roster_meets_coverage_floor(self):
        fast = [_BY_NAME[name] for name in bench_names(fast=True)]
        assert sum(1 for s in fast if s.kind == "micro") >= 4
        assert sum(1 for s in fast if s.kind == "macro") >= 3
        assert any(s.kind == "calibration" for s in fast)
        # The live-socket benchmark stays out of the fast/CI suite.
        assert "mesh_roundtrip" not in bench_names(fast=True)
        assert "mesh_roundtrip" in bench_names(fast=False)

    def test_sim_benchmark_is_deterministic_across_reps(self):
        """Identical event counts and fingerprints on every repetition
        of a seeded sim benchmark; only wall-clock may vary."""
        result = run_benchmark(_BY_NAME["dispatch"], fast=True,
                               reps=3, warmup=0)
        assert result.error == ""
        assert result.deterministic
        assert result.work > 0
        assert len(result.wall_s) == 3

    def test_fingerprints_stable_across_separate_invocations(self):
        first = run_benchmark(_BY_NAME["sor_sim"], fast=True,
                              reps=1, warmup=0)
        second = run_benchmark(_BY_NAME["sor_sim"], fast=True,
                               reps=1, warmup=0)
        assert first.fingerprint == second.fingerprint
        assert first.work == second.work

    def test_rate_is_work_over_median(self):
        result = BenchResult(
            name="x", kind="micro", unit="events", reps=3, warmup=0,
            work=1000, fingerprint="f", deterministic=True,
            wall_s=[0.2, 0.1, 0.4])
        assert result.median_s == pytest.approx(0.2)
        assert result.rate == pytest.approx(5000.0)

    def test_benchmark_error_is_recorded_not_raised(self):
        from repro.perf.harness import BenchSpec

        def boom(fast):
            raise RuntimeError("kaput")

        result = run_benchmark(
            BenchSpec("boom", "micro", "ops", boom), fast=True,
            reps=2, warmup=0)
        assert "kaput" in result.error
        assert not result.deterministic

    def test_unknown_benchmark_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_suite(only=["no-such-bench"])

    def test_render_lists_every_benchmark(self):
        suite = _mini_suite()
        text = suite.render()
        assert "calibration" in text and "dispatch" in text


# ---------------------------------------------------------------------------
# BENCH files
# ---------------------------------------------------------------------------


class TestBenchFile:
    def test_write_load_roundtrip(self, tmp_path):
        suite = _mini_suite()
        path = str(tmp_path / "BENCH_test.json")
        written = benchfile.write_bench_json(suite, path, rev="abc123")
        loaded = benchfile.load_bench(path)
        assert loaded == written
        assert loaded["schema"] == benchfile.SCHEMA
        assert loaded["git_rev"] == "abc123"
        assert "fingerprint" in loaded["machine"]
        bench = loaded["benchmarks"]["dispatch"]
        for key in ("kind", "unit", "rate", "work", "wall_s",
                    "fingerprint", "deterministic"):
            assert key in bench
        assert bench["wall_s"]["median"] > 0

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            benchfile.validate_bench({"schema": "amberperf-bench/999"})

    def test_validate_rejects_missing_keys(self):
        doc = benchfile.bench_dict(_mini_suite())
        del doc["machine"]
        with pytest.raises(ValueError, match="missing"):
            benchfile.validate_bench(doc)

    def test_validate_rejects_nondeterministic_benchmark(self):
        doc = benchfile.bench_dict(_mini_suite())
        doc["benchmarks"]["dispatch"]["deterministic"] = False
        with pytest.raises(ValueError, match="non-deterministic"):
            benchfile.validate_bench(doc)

    def test_git_rev_in_this_checkout(self):
        rev = benchfile.git_rev()
        assert rev == "unknown" or (rev and "\n" not in rev)


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def _synthetic_doc(rates, machine="m1", iqr_frac=0.01):
    """A schema-valid bench document with controlled rates and noise."""
    benchmarks = {}
    for name, rate in rates.items():
        kind = "calibration" if name == "calibration" else "micro"
        median = 1000.0 / rate
        benchmarks[name] = {
            "kind": kind, "unit": "ops", "reps": 3, "warmup": 1,
            "work": 1000, "rate": rate, "fingerprint": "f",
            "deterministic": True, "error": "",
            "wall_s": {"median": median, "iqr": median * iqr_frac,
                       "min": median, "max": median, "samples": []},
        }
    return {
        "schema": benchfile.SCHEMA,
        "machine": {"fingerprint": machine, "platform": "test",
                    "python": "3", "cpu_count": 1},
        "git_rev": "test", "fast": True, "reps": 3, "warmup": 1,
        "benchmarks": benchmarks,
    }


class TestCompare:
    def test_identical_rerun_passes(self):
        doc = _synthetic_doc({"calibration": 1e6, "dispatch": 1e5})
        result = benchfile.compare_benches(doc, copy.deepcopy(doc))
        assert result.ok
        assert not result.normalized
        assert all(d.ratio == pytest.approx(1.0) for d in result.deltas)

    def test_flags_synthetic_2x_slowdown(self):
        old = _synthetic_doc({"calibration": 1e6, "dispatch": 1e5,
                              "event_heap": 2e5})
        new = _synthetic_doc({"calibration": 1e6, "dispatch": 5e4,
                              "event_heap": 2e5})
        result = benchfile.compare_benches(old, new, threshold=0.25)
        assert not result.ok
        flagged = [d.name for d in result.regressions]
        assert flagged == ["dispatch"]
        assert "REGRESSION" in benchfile.render_compare(result)

    def test_calibration_is_never_gated(self):
        old = _synthetic_doc({"calibration": 1e6, "dispatch": 1e5})
        new = _synthetic_doc({"calibration": 1e5, "dispatch": 1e5})
        # Calibration dropped 10x (slower host) — reported, not flagged.
        result = benchfile.compare_benches(old, new)
        assert result.ok

    def test_cross_machine_normalizes_by_calibration(self):
        old = _synthetic_doc({"calibration": 1e6, "dispatch": 1e5},
                             machine="m1")
        # Half-speed host: calibration and dispatch both halve, so the
        # normalized ratio is 1.0 — no regression.
        new = _synthetic_doc({"calibration": 5e5, "dispatch": 5e4},
                             machine="m2")
        result = benchfile.compare_benches(old, new)
        assert result.normalized
        assert result.ok
        dispatch = next(d for d in result.deltas
                        if d.name == "dispatch")
        assert dispatch.ratio == pytest.approx(1.0)

    def test_cross_machine_still_flags_true_regression(self):
        old = _synthetic_doc({"calibration": 1e6, "dispatch": 1e5},
                             machine="m1")
        # Same host speed, but dispatch alone halved.
        new = _synthetic_doc({"calibration": 1e6, "dispatch": 5e4},
                             machine="m2")
        result = benchfile.compare_benches(old, new)
        assert result.normalized
        assert [d.name for d in result.regressions] == ["dispatch"]

    def test_noisy_benchmark_needs_larger_drop(self):
        old = _synthetic_doc({"calibration": 1e6, "jittery": 1e5},
                             iqr_frac=0.30)
        new = _synthetic_doc({"calibration": 1e6, "jittery": 6.5e4},
                             iqr_frac=0.30)
        # 35% drop < combined 60% noise floor: not flagged.
        assert benchfile.compare_benches(old, new,
                                         threshold=0.25).ok

    def test_disjoint_benchmarks_reported(self):
        old = _synthetic_doc({"calibration": 1e6, "gone": 1e5})
        new = _synthetic_doc({"calibration": 1e6, "fresh": 1e5})
        result = benchfile.compare_benches(old, new)
        assert result.only_old == ["gone"]
        assert result.only_new == ["fresh"]


# ---------------------------------------------------------------------------
# Hot-loop self-profiler
# ---------------------------------------------------------------------------


def _profiled_sor(sanitize=False, sample_every=256):
    from repro.apps.sor import SorProblem, run_amber_sor

    problem = SorProblem(rows=24, cols=96, iterations=3)
    with profile_runs(sample_every=sample_every) as profiler:
        if sanitize:
            from repro.analyze.runtime import sanitize_runs
            with sanitize_runs():
                run_amber_sor(problem, nodes=2, cpus_per_node=2)
        else:
            run_amber_sor(problem, nodes=2, cpus_per_node=2)
    return profiler


class TestHotLoopProfiler:
    def test_attributes_at_least_90_percent(self):
        profiler = _profiled_sor()
        assert profiler.events > 0
        assert profiler.attributed_fraction >= 0.9
        phases = profiler.phases()
        assert phases["dispatch"] > 0
        assert phases["heap-pop"] > 0
        assert phases["heap-push"] > 0

    def test_phase_seconds_sum_to_total(self):
        profiler = _profiled_sor()
        # Exclusive phases partition the run: they sum to total_s up to
        # the clamping slack on dispatch.
        assert sum(profiler.phases().values()) == pytest.approx(
            profiler.total_s, rel=0.05)

    def test_sanitizer_hook_overhead_is_broken_out(self):
        baseline = _profiled_sor(sanitize=False)
        sanitized = _profiled_sor(sanitize=True)
        assert baseline.phases()["hook:sanitizer"] == 0.0
        assert sanitized.phases()["hook:sanitizer"] > 0.0
        assert "sanitizer" in sanitized.attached
        assert "sanitizer" not in baseline.attached
        # The proxy must not change what the run computes.
        assert sanitized.events == baseline.events

    def test_detach_restores_engine_fast_loop(self):
        profiler = _profiled_sor()
        assert profiler.runs == 1
        # A run after the block must not accrue into the profiler.
        events_before = profiler.events
        from repro.apps.sor import SorProblem, run_amber_sor
        run_amber_sor(SorProblem(rows=12, cols=24, iterations=1),
                      nodes=1, cpus_per_node=1)
        assert profiler.events == events_before

    def test_nested_profile_runs_rejected(self):
        with profile_runs():
            with pytest.raises(RuntimeError, match="already active"):
                with profile_runs():
                    pass

    def test_samples_accumulate_for_trace_export(self):
        profiler = _profiled_sor(sample_every=64)
        assert len(profiler.samples) >= 2
        times = [t for t, _, _ in profiler.samples]
        assert times == sorted(times)

    def test_publish_mirrors_phases_into_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        profiler = _profiled_sor()
        metrics = MetricsRegistry()
        profiler.publish(metrics)
        counters = metrics.as_dict()["counters"]
        assert counters["hotloop_events"] == profiler.events
        assert counters["hotloop_dispatch_ns"] > 0

    def test_render_names_every_phase(self):
        text = render_hotloop(_profiled_sor())
        for name in HOOK_NAMES:
            assert f"hook:{name}" in text
        assert "events/sec" in text

    def test_attach_requires_detach_first(self):
        from repro.sim.cluster import ClusterConfig, SimCluster

        profiler = HotLoopProfiler()
        cluster = SimCluster(ClusterConfig(nodes=1, cpus_per_node=1))
        profiler.attach(cluster)
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                profiler.attach(cluster)
        finally:
            profiler.detach()
        assert cluster.sim.profiler is None


class TestProfilerPerfettoTrack:
    def test_track_events_and_export(self, tmp_path):
        from repro.obs.perfetto import (
            export_chrome_trace,
            profiler_track_events,
        )

        profiler = _profiled_sor(sample_every=64)
        events = profiler_track_events(profiler)
        assert events, "expected a non-empty self-profiler track"
        slices = [e for e in events if e.get("ph") == "X"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert slices and counters
        assert all(e["pid"] == 9999 for e in slices)
        path = str(tmp_path / "trace.json")
        export_chrome_trace([], path, extra=events)
        doc = json.load(open(path))
        assert len(doc["traceEvents"]) == len(events)

    def test_empty_profiler_yields_no_track(self):
        from repro.obs.perfetto import profiler_track_events

        assert profiler_track_events(HotLoopProfiler()) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestPerfCli:
    def test_suite_writes_valid_bench_json(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "BENCH_cli.json")
        code = main(["perf", "--fast", "--reps", "1", "--warmup", "0",
                     "--bench", "calibration", "--bench", "dispatch",
                     "--json", path])
        assert code == 0
        doc = benchfile.load_bench(path)
        assert set(doc["benchmarks"]) == {"calibration", "dispatch"}
        assert "bench file written" in capsys.readouterr().out

    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        old = _synthetic_doc({"calibration": 1e6, "dispatch": 1e5})
        slow = _synthetic_doc({"calibration": 1e6, "dispatch": 4e4})
        old_path = str(tmp_path / "old.json")
        slow_path = str(tmp_path / "slow.json")
        json.dump(old, open(old_path, "w"))
        json.dump(slow, open(slow_path, "w"))
        assert main(["perf", "--compare", old_path, old_path]) == 0
        assert main(["perf", "--compare", old_path, slow_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        ("{not json", "Expecting property name"),
        ("[1, 2]", "bench document must be a JSON object"),
        ('{"schema": "amberperf-bench/0"}', "unsupported bench schema"),
    ])
    def test_unloadable_bench_file_is_a_usage_error(
            self, content, message, tmp_path, capsys):
        from repro.cli import main

        good = str(tmp_path / "good.json")
        json.dump(_synthetic_doc({"calibration": 1e6}), open(good, "w"))
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        for argv in (["perf", "--compare", str(bad), good],
                     ["perf", "--compare", good, str(bad)],
                     ["perf", "--fast", "--bench", "calibration",
                      "--baseline", str(bad)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""   # --baseline: before the suite
            assert captured.err.startswith(f"error: {bad}: ")
            assert message in captured.err
        # validate_bench itself still raises; only the CLI catches.
        with pytest.raises((OSError, ValueError)):
            benchfile.load_bench(str(bad))

    def test_profile_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "prof.json")
        trace = str(tmp_path / "trace.json")
        code = main(["perf", "--profile", "sor", "--fast",
                     "--json", out, "--trace-out", trace])
        assert code == 0
        prof = json.load(open(out))
        assert prof["attributed_fraction"] >= 0.9
        assert json.load(open(trace))["traceEvents"]
        assert "Hot-loop self-profile" in capsys.readouterr().out

    def test_committed_baseline_is_schema_valid(self):
        doc = benchfile.load_bench(
            "benchmarks/baseline/BENCH_baseline.json")
        kinds = [b["kind"] for b in doc["benchmarks"].values()]
        assert kinds.count("micro") >= 4
        assert kinds.count("macro") >= 3
