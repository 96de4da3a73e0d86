"""AmberSan dynamic analysis: race detection, immutable-write and
residency checks, lock-order deadlock prediction, determinism, and
timing neutrality."""

import pytest

from repro.analyze.fixtures import (
    run_immutable_write,
    run_lock_deadlock,
    run_lock_inversion,
    run_nonresident_touch,
    run_opaque_state,
    run_racy_counter,
    run_rw_inversion,
    run_sync_zoo,
)
from repro.analyze.runtime import sanitize_runs
from repro.analyze.sanitizer import Sanitizer
from repro.analyze.scenario import run_analysis_scenarios
from repro.errors import DeadlockError


def sanitized(fixture, **kwargs):
    """Run ``fixture(**kwargs)`` inside a ``sanitize_runs()`` block."""
    with sanitize_runs():
        return fixture(**kwargs)


def report_of(fixture, **kwargs):
    return sanitized(fixture, **kwargs).cluster.sanitizer.report()


class TestRaceDetection:
    def test_racy_counter_is_flagged(self):
        report = report_of(run_racy_counter, seed=0)
        assert not report.ok
        assert report.races >= 1
        rules = {f.rule for f in report.findings}
        assert rules == {"AMBSAN-RACE"}

    def test_race_finding_names_both_sites(self):
        report = report_of(run_racy_counter, seed=0)
        finding = report.findings[0]
        assert finding.field == "count"
        assert finding.obj_cls == "Tally"
        assert finding.site is not None
        assert finding.prior is not None
        assert finding.site.file.endswith("fixtures.py")
        text = finding.render()
        assert "racing" in text
        assert "migration history" in text

    def test_locked_counter_is_clean(self):
        report = report_of(run_racy_counter, seed=0, locked=True)
        assert report.ok, report.render()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_signatures_deterministic_per_seed(self, seed):
        first = report_of(run_racy_counter, seed=seed).signatures()
        second = report_of(run_racy_counter, seed=seed).signatures()
        assert first == second
        assert first  # the race never escapes detection

    def test_signatures_stable_across_seeds(self):
        seen = {tuple(report_of(run_racy_counter, seed=s).signatures())
                for s in (0, 1, 2)}
        assert len(seen) == 1

    def test_correct_sync_zoo_is_clean(self):
        result = sanitized(run_sync_zoo, seed=0)
        report = result.cluster.sanitizer.report()
        assert report.ok, report.render()
        assert result.value["total"] == 6
        assert result.value["handoff"] == 41


class TestImmutableAndResidency:
    def test_write_to_replicated_immutable_is_flagged(self):
        # Regression: a write slipping through after SetImmutable +
        # MoveTo replication silently diverges the replicas.
        report = report_of(run_immutable_write, seed=0)
        rules = [f.rule for f in report.findings]
        assert rules == ["AMBSAN-IMMUT"]
        finding = report.findings[0]
        assert finding.obj_cls == "Config"
        assert finding.field == "value"

    def test_nonresident_touch_reports_migration_history(self):
        report = report_of(run_nonresident_touch, seed=0)
        rules = [f.rule for f in report.findings]
        assert rules == ["AMBSAN-RESIDENT"]
        finding = report.findings[0]
        # The thread hopped 0 -> 1 -> 0 before the bad direct read.
        assert [node for node, _ in finding.migrations] == [0, 1, 0]
        assert "node 0" in finding.render()
        assert "node 1" in finding.render()


class TestOpaqueState:
    def test_slotted_and_property_classes_are_flagged(self):
        # Regression: slotted reads bypass the __dict__-membership
        # check in the field hook, so this race used to be silently
        # *missed* — now the classes themselves are reported.
        report = report_of(run_opaque_state, seed=0)
        opaque = [f for f in report.findings
                  if f.rule == "AMBSAN-OPAQUE"]
        flagged = {(f.obj_cls, f.field) for f in opaque}
        assert ("SlottedTally", "count") in flagged
        assert ("DerivedTally", "count") in flagged
        text = opaque[0].render()
        assert "NOT race-checked" in text

    def test_each_class_flagged_once(self):
        report = report_of(run_opaque_state, seed=0)
        signatures = [f.signature() for f in report.findings
                      if f.rule == "AMBSAN-OPAQUE"]
        assert len(signatures) == len(set(signatures)) == 2

    def test_plain_classes_not_flagged(self):
        report = report_of(run_racy_counter, seed=0, locked=True)
        assert not [f for f in report.findings
                    if f.rule == "AMBSAN-OPAQUE"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_opaque_signatures_deterministic(self, seed):
        first = report_of(run_opaque_state, seed=seed).signatures()
        second = report_of(run_opaque_state, seed=seed).signatures()
        assert first == second


class TestLockOrder:
    def test_inversion_reports_cycle_without_deadlock(self):
        result = sanitized(run_lock_inversion, seed=0)
        assert result.value is True      # the run completed
        report = result.cluster.sanitizer.report()
        assert report.order_cycles == 1
        text = report.render()
        assert "lock-order cycle" in text
        assert "order-ab" in text and "order-ba" in text
        assert "fixtures.py" in text     # acquisition sites named

    def test_reader_inversion_records_no_order_edges(self):
        # Read-side acquisitions don't exclude other readers, so an
        # inverted read/read pattern is not a deadlock hazard: no
        # AMBSAN-ORDER edge (and hence no cycle) may be recorded.
        result = sanitized(run_rw_inversion, seed=0, mode="read")
        assert result.value is True
        report = result.cluster.sanitizer.report()
        assert report.ok, report.render()
        assert report.order_cycles == 0
        graph = result.cluster.sanitizer.lock_order
        assert graph.edges == []

    def test_writer_inversion_reports_cycle(self):
        # Control: the same program write-side is the classic
        # inversion and must light up exactly like mutexes do.
        result = sanitized(run_rw_inversion, seed=0, mode="write")
        report = result.cluster.sanitizer.report()
        assert report.order_cycles == 1
        text = report.render()
        assert "ReaderWriterLock" in text
        assert "rw-ab" in text and "rw-ba" in text

    def test_read_side_holds_nothing_for_wait_reports(self):
        # order=False must also keep read acquisitions out of the
        # held-lock table used by wait-for reporting.
        result = sanitized(run_rw_inversion, seed=0, mode="read")
        sanitizer = result.cluster.sanitizer
        assert all(not held for held in sanitizer._held.values())

    def test_true_deadlock_names_waiters_and_holders(self):
        with pytest.raises(DeadlockError) as excinfo:
            run_lock_deadlock(seed=0)
        message = str(excinfo.value)
        assert "wait-for cycle detected" in message
        assert "order-ab waits on Lock" in message
        assert "held by order-ba" in message


class TestNeutrality:
    def test_sanitizer_changes_nothing_observable(self):
        plain = run_racy_counter(seed=3)
        observed = sanitized(run_racy_counter, seed=3)
        assert plain.cluster.sanitizer is None
        assert observed.cluster.sanitizer is not None
        assert plain.elapsed_us == observed.elapsed_us
        assert plain.value == observed.value

    def test_hooks_are_removed_after_the_run(self):
        from repro.sim.objects import SimObject
        sanitized(run_racy_counter, seed=0)
        assert "__getattribute__" not in SimObject.__dict__
        assert "__setattr__" not in SimObject.__dict__

    def test_sanitize_runs_collects_each_run(self):
        with sanitize_runs() as sanitizers:
            run_racy_counter(seed=0)
            run_racy_counter(seed=0, locked=True)
        assert len(sanitizers) == 2
        assert not sanitizers[0].report().ok
        assert sanitizers[1].report().ok

    def test_run_outside_a_block_is_not_sanitized(self):
        result = run_racy_counter(seed=0)
        assert result.cluster.sanitizer is None

    def test_make_builds_each_runs_sanitizer(self):
        built = []

        def make():
            built.append(Sanitizer())
            return built[-1]

        with sanitize_runs(make) as sanitizers:
            first = run_racy_counter(seed=0)
            second = run_racy_counter(seed=0, locked=True)
        assert sanitizers == built
        assert first.cluster.sanitizer is built[0]
        assert second.cluster.sanitizer is built[1]

    def test_nested_block_restores_the_outer_one(self):
        class Marked(Sanitizer):
            pass

        with sanitize_runs(Marked) as outer:
            run_racy_counter(seed=0)
            with sanitize_runs() as inner:
                inside = run_racy_counter(seed=0)
            after = run_racy_counter(seed=0)
        assert inner == [inside.cluster.sanitizer]
        assert type(inside.cluster.sanitizer) is Sanitizer
        assert len(outer) == 2
        assert outer[1] is after.cluster.sanitizer
        assert type(after.cluster.sanitizer) is Marked
        assert run_racy_counter(seed=0).cluster.sanitizer is None

    def test_a_run_nested_in_a_sanitized_run_is_refused(self):
        from repro.sim.cluster import ClusterConfig
        from repro.sim.program import AmberProgram

        def main(ctx):
            AmberProgram(ClusterConfig(nodes=1)).run(lambda ctx: None)
            yield from ()

        with sanitize_runs():
            with pytest.raises(RuntimeError, match="already active"):
                AmberProgram(ClusterConfig(nodes=1)).run(main)


class TestScenarios:
    def test_all_scenarios_pass(self):
        report = run_analysis_scenarios(seed=0, fast=True)
        assert report.ok, report.render()
        names = [s.name for s in report.outcomes]
        assert "racy-counter" in names
        assert "timing-neutral" in names

    def test_report_is_json_friendly(self):
        import json
        report = run_analysis_scenarios(seed=0, fast=True)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        racy = next(s for s in payload["scenarios"]
                    if s["name"] == "racy-counter")
        assert any("AMBSAN-RACE" in sig for sig in racy["signatures"])


class TestAppsClean:
    @pytest.mark.parametrize("app", ["sor", "queens", "matmul"])
    def test_bundled_apps_run_sanitizer_clean(self, app):
        if app == "sor":
            from repro.apps.sor import SorProblem, run_amber_sor
            job = lambda: run_amber_sor(
                SorProblem(rows=24, cols=16, iterations=4),
                nodes=2, cpus_per_node=2)
        elif app == "queens":
            from repro.apps.queens import run_amber_queens
            job = lambda: run_amber_queens(n=6, nodes=2, cpus_per_node=2)
        else:
            from repro.apps.matmul import run_matmul
            job = lambda: run_matmul(m=24, k=24, n=24, nodes=2,
                                     cpus_per_node=2)
        with sanitize_runs() as sanitizers:
            job()
        assert sanitizers
        for sanitizer in sanitizers:
            report = sanitizer.report()
            assert report.ok, report.render()
