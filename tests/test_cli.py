"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

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
        assert main(["profile", "queens", "--fast"]) == 0
        out = capsys.readouterr().out
        for token in ("compute", "migration", "queue", "lock-wait",
                      "critical path:", "Operation metrics"):
            assert token in out

    def test_trace_writes_chrome_trace_json(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["trace", "queens", "--fast",
                     "--out", str(trace_path),
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
            main(["trace", "nosuch"])
        with pytest.raises(SystemExit):
            main(["profile"])


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
#: ``_write_metrics`` (faults) and ``export_chrome_trace`` (trace).
_OUTPUT_CASES = {
    "lint-json": (["lint", QUEENS], "--json"),
    "faults-metrics-json": (["faults", "--fast"], "--metrics-json"),
    "trace-out": (["trace", "queens", "--fast"], "--out"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["trace", "sor", "--fast", "--max-events", "0"], "--max-events"),
        (["check", "--fixture", "sync-zoo", "--budget", "-1"], "--budget"),
        (["check", "--fast", "--budget", "0"], "--budget"),
    ])
    def test_count_below_one_fails_before_the_run(self, argv, flag,
                                                  capsys, no_simulation):
        assert main(argv) == 2
        _one_error_line(capsys, flag, "at least 1")

    @pytest.mark.parametrize("case", sorted(_OUTPUT_CASES))
    def test_output_in_missing_directory_fails_before_the_run(
            self, case, tmp_path, capsys, no_simulation):
        argv, flag = _OUTPUT_CASES[case]
        path = str(tmp_path / "no" / "such" / "out.json")
        assert main(argv + [flag, path]) == 2
        _one_error_line(capsys, flag, "no such directory")

    def test_output_naming_a_directory_fails_before_the_run(
            self, tmp_path, capsys, no_simulation):
        assert main(["perf", "--profile", "sor", "--fast",
                     "--trace-out", str(tmp_path)]) == 2
        _one_error_line(capsys, "--trace-out", "is a directory")

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
