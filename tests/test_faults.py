"""Fault injection & recovery: plan validation, deterministic injection,
reliable delivery, crash/restart semantics, and dead-node recovery."""

import pytest

from repro.errors import ObjectNotFoundError, SimulationError
from repro.faults import Decision, FaultInjector, FaultPlan, NodeCrash, Partition
from repro.obs.metrics import MetricsRegistry
from repro.sim import (
    AmberProgram,
    ClusterConfig,
    Fork,
    Invoke,
    Join,
    Locate,
    MoveTo,
    New,
    Sleep,
)
from tests.helpers import Cell


def run_faulted(main_fn, *args, nodes=2, cpus=2, faults=None):
    program = AmberProgram(
        ClusterConfig(nodes=nodes, cpus_per_node=cpus), faults=faults)
    return program.run(main_fn, *args)


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(SimulationError):
            FaultPlan(dup_rate=-0.1)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop_rate=0.6, dup_rate=0.5)

    def test_delay_bounds(self):
        with pytest.raises(SimulationError):
            FaultPlan(delay_min_us=10.0, delay_max_us=5.0)

    def test_restart_must_follow_crash(self):
        with pytest.raises(SimulationError):
            NodeCrash(node=0, at_us=100.0, restart_us=50.0)

    def test_partition_window_must_be_nonempty(self):
        with pytest.raises(SimulationError):
            Partition(nodes=(1,), start_us=10.0, end_us=10.0)

    def test_rto_sanity(self):
        with pytest.raises(SimulationError):
            FaultPlan(rto_us=100.0, rto_cap_us=10.0)
        with pytest.raises(SimulationError):
            FaultPlan(max_attempts=0)

    def test_crash_schedule_queries(self):
        crash = NodeCrash(node=1, at_us=100.0, restart_us=200.0)
        plan = FaultPlan(crashes=(crash,))
        assert not plan.is_down(1, 50.0)
        assert plan.is_down(1, 150.0)
        assert not plan.is_down(1, 250.0)
        assert not plan.is_down(0, 150.0)
        forever = FaultPlan(crashes=(NodeCrash(node=0, at_us=10.0),))
        assert forever.is_down(0, 1e12)

    def test_partition_severs_only_across_the_cut(self):
        window = Partition(nodes=(0, 1), start_us=0.0, end_us=100.0)
        assert window.severs(0, 2, 50.0)
        assert window.severs(2, 1, 50.0)
        assert not window.severs(0, 1, 50.0)      # same side
        assert not window.severs(2, 3, 50.0)      # same side
        assert not window.severs(0, 2, 150.0)     # window over

    def test_give_up_budget(self):
        plan = FaultPlan(rto_us=1.0, rto_cap_us=4.0, max_attempts=4)
        assert plan.give_up_budget_us() == 1 + 2 + 4 + 4


class TestInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=7, drop_rate=0.2, dup_rate=0.1,
                         delay_rate=0.1, delay_max_us=100.0)
        a = FaultInjector(plan, MetricsRegistry())
        b = FaultInjector(plan, MetricsRegistry())
        decisions_a = [a.decide(0, 1, float(t)) for t in range(200)]
        decisions_b = [b.decide(0, 1, float(t)) for t in range(200)]
        assert decisions_a == decisions_b
        assert any(d.drop for d in decisions_a)
        assert any(d.duplicate for d in decisions_a)
        assert any(d.extra_delay_us > 0 for d in decisions_a)

    def test_crash_drops_consume_no_randomness(self):
        """The PRNG stream must depend only on live-link transmissions,
        or crash timing would perturb every later random fault."""
        plan = FaultPlan(seed=7, drop_rate=0.2,
                         crashes=(NodeCrash(node=1, at_us=0.0),))
        with_crash = FaultInjector(plan, MetricsRegistry())
        without = FaultInjector(FaultPlan(seed=7, drop_rate=0.2),
                                MetricsRegistry())
        mixed = []
        for t in range(100):
            # Interleave dead-link traffic; it must not advance the PRNG.
            assert with_crash.decide(0, 1, float(t)) == Decision(drop=True)
            mixed.append(with_crash.decide(0, 2, float(t)))
        plain = [without.decide(0, 2, float(t)) for t in range(100)]
        assert mixed == plain

    def test_zero_rate_plan_is_clean(self):
        injector = FaultInjector(FaultPlan(seed=1), MetricsRegistry())
        assert injector.decide(0, 1, 0.0) == Decision()

    def test_backoff_doubles_and_caps(self):
        plan = FaultPlan(rto_us=100.0, rto_cap_us=400.0)
        injector = FaultInjector(plan, MetricsRegistry())
        assert [injector.rto_us(k) for k in (1, 2, 3, 4, 5)] == \
            [100.0, 200.0, 400.0, 400.0, 400.0]

    def test_live_is_down_overrides_schedule(self):
        down = {2}
        injector = FaultInjector(FaultPlan(), MetricsRegistry(),
                                 is_down=lambda node: node in down)
        assert injector.decide(0, 2, 0.0).drop
        down.clear()
        assert not injector.decide(0, 2, 0.0).drop


class TestReliableDelivery:
    def test_lossy_network_still_completes(self):
        plan = FaultPlan(seed=3, drop_rate=0.25, dup_rate=0.05,
                         delay_rate=0.1, delay_max_us=500.0,
                         rto_us=200.0, rto_cap_us=3_200.0)

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            total = 0
            for i in range(10):
                total = yield Invoke(cell, "add", i)
            return total

        result = run_faulted(main, faults=plan)
        assert result.value == sum(range(10))
        assert result.metrics.counter("faults_dropped").value > 0
        assert result.metrics.counter("retries").value > 0

    def test_faulted_run_is_bit_identical(self):
        plan = FaultPlan(seed=11, drop_rate=0.15, dup_rate=0.05,
                         delay_rate=0.1, delay_max_us=300.0,
                         crashes=(NodeCrash(node=1, at_us=5_000.0,
                                            restart_us=40_000.0),))

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            total = 0
            for i in range(8):
                total = yield Invoke(cell, "add", 1)
            return total

        first = run_faulted(main, faults=plan)
        second = run_faulted(main, faults=plan)
        assert first.value == second.value == 8
        assert first.elapsed_us == second.elapsed_us
        for name in ("faults_injected", "faults_dropped", "retries",
                     "crashes", "recoveries"):
            assert (first.metrics.counter(name).value
                    == second.metrics.counter(name).value)

    def test_unreachable_node_without_recovery_raises(self):
        """A reliable send with no give-up handler and no route to
        recovery is a scenario bug, not a hang."""
        plan = FaultPlan(seed=0, rto_us=100.0, rto_cap_us=400.0,
                         max_attempts=3,
                         crashes=(NodeCrash(node=1, at_us=0.0),))

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            return (yield Invoke(cell, "get"))

        with pytest.raises((SimulationError, ObjectNotFoundError)):
            run_faulted(main, faults=plan)


class TestCrashRecovery:
    def test_crash_freezes_dispatch_and_restart_resumes(self):
        plan = FaultPlan(seed=0,
                         crashes=(NodeCrash(node=1, at_us=1_000.0,
                                            restart_us=80_000.0),))

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            value = yield Invoke(cell, "add", 5)   # spans the outage
            return value

        result = run_faulted(main, faults=plan)
        assert result.value == 5
        assert result.metrics.counter("crashes").value == 1
        assert result.metrics.counter("recoveries").value == 1
        # The outage costs roughly its duration in elapsed time.
        assert result.elapsed_us >= 80_000.0

    def test_restart_sheds_stale_hints_but_keeps_home_entries(self):
        plan = FaultPlan(seed=0,
                         crashes=(NodeCrash(node=1, at_us=60_000.0,
                                            restart_us=70_000.0),))

        def main(ctx):
            # Home the object on node 1 by creating it there...
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            other = yield New(Cell)
            yield MoveTo(other, 1)     # node 1 learns where `other` went
            yield MoveTo(other, 2)     # ...then a hint 1 -> 2
            yield Sleep(100_000.0)     # crash + restart happen here
            return (yield Invoke(other, "add", 2))

        result = run_faulted(main, nodes=3, faults=plan)
        assert result.value == 2
        assert result.metrics.counter("recoveries").value == 1
        assert result.metrics.counter("hints_repaired").value >= 1

    def test_partition_heals_and_run_completes(self):
        plan = FaultPlan(seed=0,
                         partitions=(Partition(nodes=(1,),
                                               start_us=1_000.0,
                                               end_us=60_000.0),))

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            return (yield Invoke(cell, "add", 3))

        result = run_faulted(main, faults=plan)
        assert result.value == 3
        assert result.metrics.counter("faults_partition_drops").value > 0
        assert result.metrics.counter("retries").value > 0


class TestDeadNodeRecovery:
    def _fallback_plan(self, crash_at_us=150_000.0):
        return FaultPlan(seed=0, rto_us=1_000.0, rto_cap_us=16_000.0,
                         max_attempts=6,
                         crashes=(NodeCrash(node=2, at_us=crash_at_us),))

    def test_stale_hint_to_dead_node_falls_back_to_home(self):
        """A client whose cached hint points at a permanently dead node
        must give up on it and reroute via the object's home node."""
        class Prober(Cell):
            def probe(self, ctx, token, sleep_us):
                yield Locate(token)            # caches hint here
                yield Sleep(sleep_us)
                return (yield Invoke(token, "get"))

        def main(ctx):
            token = yield New(Cell, 42)        # home: node 0
            yield MoveTo(token, 2)
            prober = yield New(Prober)
            yield MoveTo(prober, 1)
            thread = yield Fork(prober, "probe", token, 300_000.0)
            yield Sleep(50_000.0)
            yield MoveTo(token, 0)             # home again; hint stale
            return (yield Join(thread))

        result = run_faulted(main, nodes=3, faults=self._fallback_plan())
        assert result.value == 42
        assert result.metrics.counter("send_give_ups").value >= 1
        assert result.metrics.counter("home_fallbacks").value >= 1

    def test_object_behind_permanent_crash_raises_not_found(self):
        """When the home itself says the object is on the dead node, the
        prober budget is the last line: the object is genuinely lost."""
        plan = self._fallback_plan(crash_at_us=50_000.0)

        def main(ctx):
            cell = yield New(Cell, 7)          # home: node 0
            yield MoveTo(cell, 2)              # home entry points at 2
            yield Sleep(100_000.0)             # node 2 dies for good
            return (yield Invoke(cell, "get"))

        with pytest.raises(ObjectNotFoundError):
            run_faulted(main, nodes=3, faults=plan)

    def test_object_behind_temporary_crash_survives_probing(self):
        """Same trap, but the node restarts within the probe budget: the
        probes land and the invocation completes."""
        plan = FaultPlan(seed=0, rto_us=1_000.0, rto_cap_us=16_000.0,
                        max_attempts=6,
                        crashes=(NodeCrash(node=2, at_us=50_000.0,
                                           restart_us=250_000.0),))

        def main(ctx):
            cell = yield New(Cell, 7)
            yield MoveTo(cell, 2)
            yield Sleep(100_000.0)
            return (yield Invoke(cell, "get"))

        result = run_faulted(main, nodes=3, faults=plan)
        assert result.value == 7
        assert result.metrics.counter("home_probes").value >= 1


class TestScenarios:
    def test_fast_scenarios_pass(self):
        from repro.faults.scenario import run_fault_scenarios

        report = run_fault_scenarios(seed=5, fast=True)
        assert report.ok
        names = [s.name for s in report.outcomes]
        assert names == ["sor", "queens", "mobility"]
        totals = report.counters
        assert totals["faults_injected"] > 0
        assert totals["retries"] > 0
        assert totals["crashes"] >= 3
        assert totals["home_fallbacks"] >= 1
        rendered = report.render()
        assert "overall: PASS" in rendered
        as_dict = report.as_dict()
        assert as_dict["ok"] and len(as_dict["scenarios"]) == 3
