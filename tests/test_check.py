"""AmberCheck model checking: choice recording, forced replay, DPOR
exploration, hidden-bug discovery, divergence detection, determinism,
and the ``repro check`` CLI."""

import json

import pytest

from repro.analyze.check import (
    check_program,
    run_schedule,
    sample_random_schedules,
)
from repro.analyze.choice import ChoiceController
from repro.analyze.fixtures import (
    run_hidden_deadlock,
    run_hidden_race,
    run_racy_counter,
)
from repro.analyze.scenario import small_app_jobs
from repro.cli import main
from repro.obs.metrics import MetricsRegistry


def hidden_race():
    # Two decoys keep exploration to a handful of schedules.
    return run_hidden_race(seed=0, decoys=2)


def hidden_deadlock():
    return run_hidden_deadlock(seed=0, decoys=2)


class TestControllerAndReplay:
    def test_default_run_records_choice_points(self):
        outcome = run_schedule(hidden_race)
        assert outcome.status == "ok"
        assert not outcome.findings
        assert outcome.points           # picks/preempts were recorded
        assert all(choice == 0 for choice in outcome.choices)
        kinds = {point.kind for point in outcome.points}
        assert "pick" in kinds

    def test_forced_prefix_is_followed(self):
        baseline = run_schedule(hidden_race)
        flip = next(i for i, point in enumerate(baseline.points)
                    if len(point.options) > 1)
        forced = [0] * flip + [1]
        outcome = run_schedule(hidden_race, forced)
        assert not outcome.diverged
        assert list(outcome.choices[:flip + 1]) == forced

    def test_out_of_range_force_marks_divergence(self):
        outcome = run_schedule(hidden_race, [99])
        assert outcome.diverged

    def test_replay_is_bit_identical(self):
        report = check_program(hidden_race, name="race", budget=200)
        trace = report.findings[0].trace
        first = run_schedule(hidden_race, trace)
        second = run_schedule(hidden_race, trace)
        assert first.choices == second.choices
        assert first.status == second.status
        assert first.value_repr == second.value_repr
        assert first.signatures() == second.signatures()

    def test_witness_trims_trailing_defaults(self):
        outcome = run_schedule(hidden_race)
        assert outcome.witness() == []   # default run: nothing forced
        controller = ChoiceController([0, 1, 0, 0])
        assert controller is not None  # construction alone is valid


class TestHiddenBugs:
    def test_race_invisible_to_default_run_is_found(self):
        assert run_schedule(hidden_race).status == "ok"
        report = check_program(hidden_race, name="race", budget=200)
        assert report.exhausted
        assert any("AMBSAN-RACE" in sig for sig in report.signatures())
        finding = next(f for f in report.findings
                       if "AMBSAN-RACE" in f.signature)
        replay = run_schedule(hidden_race, finding.trace)
        assert finding.signature in [sig for sig, _ in replay.findings]

    def test_deadlock_invisible_to_default_run_is_found(self):
        assert run_schedule(hidden_deadlock).status == "ok"
        report = check_program(hidden_deadlock, name="dl", budget=400)
        deadlocks = [f for f in report.findings if f.kind == "deadlock"]
        assert deadlocks
        replay = run_schedule(hidden_deadlock, deadlocks[0].trace)
        assert replay.status == "deadlock"

    def test_bugs_are_rare_under_random_scheduling(self):
        outcomes = sample_random_schedules(
            lambda: run_hidden_race(seed=0), 40, seed=0)
        manifested = sum(1 for o in outcomes
                         if o.status != "ok" or o.findings)
        assert manifested / 40 < 0.2    # rarity; the scenario suite
        assert len(outcomes) == 40      # asserts the strict <5% bound

    def test_random_sampling_is_seed_deterministic(self):
        first = sample_random_schedules(hidden_race, 5, seed=7)
        second = sample_random_schedules(hidden_race, 5, seed=7)
        assert [o.choices for o in first] == [o.choices for o in second]


class TestExploration:
    def test_clean_program_exhausts_clean(self):
        report = check_program(
            lambda: run_racy_counter(seed=0, locked=True, rounds=2),
            name="locked", budget=500)
        assert report.ok, report.render()
        assert report.exhausted

    def test_exploration_is_deterministic(self):
        first = check_program(hidden_race, name="race", budget=200)
        second = check_program(hidden_race, name="race", budget=200)
        assert first.schedules == second.schedules
        assert first.signatures() == second.signatures()
        assert ([f.trace for f in first.findings]
                == [f.trace for f in second.findings])

    def test_dpor_matches_exhaustive_findings(self):
        exhaustive = check_program(hidden_race, name="ex", budget=500,
                                   dpor=False, prune=False)
        reduced = check_program(hidden_race, name="dpor", budget=500)
        assert exhaustive.exhausted and reduced.exhausted
        assert exhaustive.signatures() == reduced.signatures()
        assert reduced.schedules <= exhaustive.schedules

    def test_state_divergence_reported(self):
        # The racing schedules change the returned counter value, so
        # the ok-terminal states disagree.
        report = check_program(hidden_race, name="race", budget=200)
        assert any(f.kind == "divergence" for f in report.findings)

    def test_budget_caps_schedules(self):
        report = check_program(hidden_race, name="race", budget=3)
        assert report.schedules <= 3
        assert not report.exhausted

    def test_metrics_progress_counters(self):
        metrics = MetricsRegistry()
        report = check_program(hidden_race, name="race", budget=200,
                               metrics=metrics)
        assert report.counters["check_schedules"] == report.schedules
        assert report.counters["check_findings"] >= 1

    def test_report_is_json_friendly(self):
        report = check_program(hidden_race, name="race", budget=200)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["schedules"] == report.schedules
        assert payload["findings"]
        rendered = report.render()
        assert "replay" in rendered


class TestAppsUnderCheck:
    """A bundled app builds its own ``AmberProgram``: the explorer must
    still sanitize it, or it records no dependence events and never
    branches."""

    @pytest.fixture(scope="class")
    def sor_job(self):
        jobs = dict(small_app_jobs(12, 8, 2, queens_n=5, matmul_n=12))
        return jobs["sor"]

    def test_schedule_records_dependence_events(self, sor_job):
        outcome = run_schedule(sor_job)
        assert outcome.status == "ok"
        assert len(outcome.events) > 0

    def test_exploration_branches(self, sor_job):
        report = check_program(sor_job, name="sor", budget=12)
        assert report.ok, report.render()
        assert report.schedules > 1


class TestCheckCli:
    def test_fixture_exploration_exits_nonzero_on_findings(self, capsys):
        assert main(["check", "--fixture", "hidden-race",
                     "--budget", "50"]) == 1
        out = capsys.readouterr().out
        assert "AMBSAN-RACE" in out

    def test_replay_requires_fixture(self, capsys):
        assert main(["check", "--replay", "0,0,1"]) == 2

    def test_replay_wants_integers(self, capsys):
        assert main(["check", "--fixture", "hidden-race",
                     "--replay", "a,b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--replay wants comma- or space-separated integers" \
            in captured.err

    def test_replay_roundtrip(self, capsys):
        assert main(["check", "--fixture", "hidden-race",
                     "--budget", "50"]) == 1
        out = capsys.readouterr().out
        trace = next(line.split("--replay ", 1)[1].strip()
                     for line in out.splitlines() if "--replay" in line)
        code = main(["check", "--fixture", "hidden-race",
                     "--replay", trace])
        replay_out = capsys.readouterr().out
        assert code == 1
        assert "AMBSAN-RACE" in replay_out

    def test_scenario_json(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        path = tmp_path / "check.json"
        assert main(["check", "--fast", "--budget", "500",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        names = {s["name"] for s in payload["scenarios"]}
        assert {"hidden-race", "hidden-deadlock",
                "dpor-vs-exhaustive"} <= names
