"""The hot-loop self-profiler, its CLI, and the bundled-app run table."""

import heapq
import json

import pytest

from repro.apps import WORKLOADS, fingerprint
from repro.perf.hotprof import (
    HOOK_NAMES,
    HotLoopProfiler,
    profile_runs,
    render_hotloop,
)
from repro.sim import engine
from repro.sim.trace import Tracer

# ---------------------------------------------------------------------------
# The bundled-app run table
# ---------------------------------------------------------------------------


class TestAppRuns:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_two_runs_give_one_fingerprint(self, name):
        """Event count and simulated elapsed time are the same on every
        run of a bundled app; only wall-clock may vary."""
        first = WORKLOADS[name](True)
        second = WORKLOADS[name](True)
        assert first.cluster.sim.events_run > 0
        assert fingerprint(first) == fingerprint(second)


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


class _TracerFailingAfter(Tracer):
    """Raises from inside the event loop once ``limit`` events are in."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def emit(self, *args, **kwargs):
        if len(self.events) >= self.limit:
            raise RuntimeError("tracer failed mid-run")
        super().emit(*args, **kwargs)


class TestHotLoopProfiler:
    def test_attributes_at_least_90_percent(self):
        # A preemption in the loop's un-timed gap can only lower the
        # fraction of a 3-iteration run, so the best of three is judged.
        profiler = max((_profiled_sor() for _ in range(3)),
                       key=lambda run: run.attributed_fraction)
        assert profiler.events > 0
        assert profiler.attributed_fraction >= 0.9
        phases = profiler.phases()
        assert phases["dispatch"] > 0
        assert phases["heap-pop"] > 0
        assert phases["heap-push"] > 0

    def test_every_push_is_timed(self):
        """The kernel's charge pushes its own entries; they must go
        through the engine module's ``heappush`` the profiler swaps.
        Each run's first push (the main thread's switch-in charge)
        happens before the profiler attaches."""
        profiler = _profiled_sor()
        assert profiler.runs == 1
        assert profiler.heap_pushes + profiler.runs >= profiler.events > 0

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

    def test_profile_runs_restores_the_engine_heappush(self):
        from repro.apps.sor import SorProblem, run_amber_sor

        problem = SorProblem(rows=12, cols=24, iterations=1)
        with profile_runs():
            run_amber_sor(problem, nodes=2, cpus_per_node=1)
        assert engine.heappush is heapq.heappush
        with pytest.raises(RuntimeError, match="mid-run"):
            with profile_runs() as profiler:
                run_amber_sor(problem, nodes=2, cpus_per_node=1,
                              tracer=_TracerFailingAfter(50))
        assert profiler.heap_pushes > 0
        assert engine.heappush is heapq.heappush

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

    def test_render_names_every_phase(self):
        text = render_hotloop(_profiled_sor())
        for name in HOOK_NAMES:
            assert f"hook:{name}" in text
        assert "events/sec" in text

    def test_dispatch_steps_partition_dispatch(self):
        """Every dispatch is booked under one step, a charge under the
        continuation its ``Cpu.fire`` runs and a network delivery under
        what it delivers."""
        profiler = _profiled_sor()
        steps = profiler.dispatch_steps
        assert sum(steps.values()) == pytest.approx(profiler.dispatch_s,
                                                    rel=1e-9)
        assert not {"Cpu.fire", "Ethernet._landed"} & steps.keys()
        assert {"AmberKernel._after_switch_in",
                "Mobility._arrived"} <= steps.keys()
        top = profiler.top_steps()
        assert len(top) == 10
        assert [seconds for _, seconds in top] == sorted(
            (seconds for _, seconds in top), reverse=True)
        assert list(profiler.as_dict()["dispatch_steps_s"]) \
            == sorted(steps, key=lambda name: (-steps[name], name))
        text = render_hotloop(profiler)
        assert all(name in text for name, _ in top)

    @pytest.mark.parametrize("program", ["run_sor", "run_forkjoin",
                                         "run_mobility", "run_move_race"])
    def test_every_dispatch_step_is_a_named_method(self, program):
        """Each continuation is a partial of a bound method, so every
        step the profile names is one a reader can find by name, never
        a closure or lambda's ``<locals>``."""
        from tests import hot_path_programs as programs

        with profile_runs() as profiler:
            getattr(programs, program)()
        steps = profiler.as_dict()["dispatch_steps_s"]
        assert steps
        assert [name for name in steps
                if "<locals>" in name or "<lambda>" in name] == []

    def test_an_untraced_run_makes_the_same_calls_after_profiling(self):
        from tests import hot_path_programs as programs
        from tests.test_hot_path_budget import count_python_calls

        before, _ = count_python_calls(programs.run_forkjoin)
        with profile_runs() as profiler:
            programs.run_forkjoin()
        assert profiler.dispatch_steps
        after, _ = count_python_calls(programs.run_forkjoin)
        assert after == before

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
    def test_profile_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "views.json")
        trace = str(tmp_path / "trace.json")
        code = main(["run", "sor", "--fast", "--hotloop",
                     "--json", out, "--trace", trace])
        assert code == 0
        views = json.load(open(out))
        assert list(views) == ["hotloop"]
        prof = views["hotloop"]
        assert prof["attributed_fraction"] >= 0.9
        assert sorted(prof) == [
            "attached", "attributed_fraction", "dispatch_steps_s",
            "events", "heap_pushes", "phases_s", "runs", "total_s"]
        assert prof["attached"] == ["tracer"]
        assert json.load(open(trace))["traceEvents"]
        assert "Hot-loop self-profile" in capsys.readouterr().out

    def test_without_a_workload_is_a_usage_error(self, capsys):
        """The workload is ``run``'s one positional argument: without
        it argparse refuses the command line, exit 2, before anything
        runs."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--hotloop"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "required: workload" in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("retired", [
        ["--compare", "a.json", "b.json"], ["--baseline", "a.json"],
        ["--reps", "3"], ["--warmup", "0"], ["--bench", "dispatch"],
        ["--threshold", "0.1"]])
    def test_retired_suite_options_are_not_accepted(self, retired,
                                                    capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "sor", "--hotloop", *retired])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {retired[0]}" \
            in capsys.readouterr().err.splitlines()[-1]
