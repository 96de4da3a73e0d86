"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.analyze.fixtures import run_racy_counter
from repro.apps import WORKLOADS
from repro.cli import main
from repro.obs.perfetto import PROFILER_PID

QUEENS = str(Path(__file__).resolve().parent.parent
             / "src" / "repro" / "apps" / "queens.py")


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "remote invoke/return" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "master object" in out

    def test_figure3_fast(self, capsys):
        assert main(["figure3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "(X)" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_requires_artifact(self):
        with pytest.raises(SystemExit):
            main([])

    def test_artifact_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["table1", "--metrics-json", str(path)]) == 0
        metrics = json.loads(path.read_text())
        histograms = metrics["table1"]["histograms"]
        assert histograms  # at least one latency histogram
        for summary in histograms.values():
            for quantile in ("p50", "p90", "p99"):
                assert quantile in summary


class TestTraceProfileCli:
    def test_profile_prints_time_attribution(self, capsys):
        assert main(["run", "queens", "--fast"]) == 0
        out = capsys.readouterr().out
        for token in ("compute", "migration", "queue", "lock-wait",
                      "critical path:", "Operation metrics"):
            assert token in out

    def test_trace_writes_chrome_trace_json(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["run", "queens", "--fast",
                     "--trace", str(trace_path),
                     "--metrics-json", str(metrics_path)]) == 0
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        assert events
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)
        metrics = json.loads(metrics_path.read_text())
        assert "p99" in metrics["queens"]["histograms"]["invoke_remote_us"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuch"])
        with pytest.raises(SystemExit):
            main(["run"])


class TestOneRunEveryView:
    @pytest.mark.parametrize("workload", ["sor", "queens", "matmul"])
    def test_attachments_leave_the_simulated_views_alone(
            self, workload, tmp_path, capsys):
        """Self-profiling and sanitizing a traced run change none of
        its trace events, its attribution table or its metrics; the
        host-time track is in the file only with ``--hotloop``."""
        plain, full = tmp_path / "plain.json", tmp_path / "full.json"
        assert main(["run", workload, "--fast",
                     "--trace", str(plain)]) == 0
        bare = capsys.readouterr().out
        assert main(["run", workload, "--fast", "--trace", str(full),
                     "--hotloop", "--sanitize"]) == 0
        attached = capsys.readouterr().out
        views = bare[:bare.index("\n\nwrote ")]
        assert "Operation metrics" in views
        assert attached.startswith(views + "\n\nAmberSan: ")
        assert "Hot-loop self-profile" in attached
        plain_events = json.loads(plain.read_text())["traceEvents"]
        full_events = json.loads(full.read_text())["traceEvents"]
        assert [event for event in full_events
                if event["pid"] != PROFILER_PID] == plain_events
        assert PROFILER_PID not in {event["pid"] for event in plain_events}
        assert full_events[-1]["pid"] == PROFILER_PID

    def test_a_sanitizer_finding_fails_the_run(self, monkeypatch,
                                               tmp_path, capsys):
        monkeypatch.setitem(WORKLOADS, "queens",
                            lambda fast, tracer=None: run_racy_counter())
        report = tmp_path / "report.json"
        assert main(["run", "queens", "--fast", "--sanitize",
                     "--json", str(report)]) == 1
        assert "AMBSAN-RACE" in capsys.readouterr().out
        sanitizer = json.loads(report.read_text())["sanitizer"]
        assert [entry["ok"] for entry in sanitizer] == [False]
        # Unsanitized, the same run has no verdict to fail.
        assert main(["run", "queens", "--fast"]) == 0


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if any simulated run starts."""
    from repro.sim.engine import Simulator

    def refuse(self, until_us=None):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(Simulator, "run", refuse)


def _one_error_line(capsys, *tokens):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for token in tokens:
        assert token in lines[0]


#: One command per way an output is written: ``_write`` (lint),
#: ``_write_metrics`` (faults) and ``export_chrome_trace`` (run).
_OUTPUT_CASES = {
    "lint-json": (["lint", QUEENS], "--json"),
    "faults-metrics-json": (["faults", "--fast"], "--metrics-json"),
    "trace-out": (["run", "queens", "--fast"], "--trace"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["run", "sor", "--fast", "--max-events", "0"], "--max-events"),
        (["check", "--fixture", "sync-zoo", "--budget", "-1"], "--budget"),
        (["check", "--fast", "--budget", "0"], "--budget"),
    ])
    def test_count_below_one_fails_before_the_run(self, argv, flag,
                                                  capsys, no_simulation):
        assert main(argv) == 2
        _one_error_line(capsys, flag, "at least 1")

    @pytest.mark.parametrize("events", ["5", "500000"])
    def test_max_events_without_trace_fails_before_the_run(
            self, events, capsys, no_simulation):
        assert main(["run", "sor", "--fast", "--max-events", events]) == 2
        _one_error_line(capsys, "--max-events requires --trace")

    @pytest.mark.parametrize("case", sorted(_OUTPUT_CASES))
    def test_output_in_missing_directory_fails_before_the_run(
            self, case, tmp_path, capsys, no_simulation):
        argv, flag = _OUTPUT_CASES[case]
        path = str(tmp_path / "no" / "such" / "out.json")
        assert main(argv + [flag, path]) == 2
        _one_error_line(capsys, flag, "no such directory")

    def test_output_naming_a_directory_fails_before_the_run(
            self, tmp_path, capsys, no_simulation):
        assert main(["run", "sor", "--fast", "--hotloop",
                     "--trace", str(tmp_path)]) == 2
        _one_error_line(capsys, "--trace", "is a directory")

    @pytest.mark.parametrize("case", sorted(_OUTPUT_CASES))
    def test_output_unwritable_at_the_end_is_one_error_line(
            self, case, tmp_path, capsys, monkeypatch):
        # The directory vanishes between the check and the write.
        monkeypatch.setattr("repro.cli._check_outputs", lambda args: None)
        argv, flag = _OUTPUT_CASES[case]
        path = str(tmp_path / "gone" / "out.json")
        assert main(argv + [flag, path]) == 2
        _one_error_line(capsys, "cannot write", path)

    def test_expect_is_an_input_and_not_checked_as_an_output(
            self, tmp_path, capsys):
        missing = str(tmp_path / "no" / "expect.json")
        assert main(["flow", "--paths", QUEENS,
                     "--expect", missing]) == 1
        assert "cannot read" in capsys.readouterr().out
