"""Tests for the program harness: determinism, deadlock detection,
cluster configuration, and statistics plumbing."""

import pytest

from repro.core.costs import CostModel
from repro.errors import DeadlockError, SimulationError
from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram, run_program
from repro.sim.syscalls import (
    Compute,
    Fork,
    Invoke,
    Join,
    MoveTo,
    New,
    Suspend,
)
from tests.helpers import Cell, run


class TestClusterConfig:
    def test_label(self):
        assert ClusterConfig(nodes=4, cpus_per_node=2).label() == "4Nx2P"

    def test_total_cpus(self):
        assert ClusterConfig(nodes=8, cpus_per_node=4).total_cpus == 32

    def test_invalid_rejected(self):
        with pytest.raises(SimulationError):
            ClusterConfig(nodes=0)
        with pytest.raises(SimulationError):
            ClusterConfig(nodes=1, cpus_per_node=0)


class TestHarness:
    def test_plain_function_main(self):
        def main(ctx):
            if False:
                yield None
            return "plain"

        assert run_program(main).value == "plain"

    def test_main_with_arguments(self):
        def main(ctx, a, b):
            if False:
                yield None
            return a + b

        assert run_program(main, 2, 3).value == 5

    def test_main_on_other_node(self):
        def main(ctx):
            if False:
                yield None
            return ctx.node

        program = AmberProgram(ClusterConfig(nodes=3))
        assert program.run(main, main_node=2).value == 2

    def test_elapsed_is_simulated_time(self):
        def main(ctx):
            yield Compute(123_456)

        result = run_program(main)
        # Startup overheads (main object create + thread start) add a
        # fixed prologue on top of the compute.
        assert result.elapsed_us >= 123_456
        assert result.elapsed_us < 130_000

    def test_determinism(self):
        """Two runs of the same program produce identical times and
        statistics — the simulator has no hidden nondeterminism."""
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            workers = []
            for n in range(5):
                workers.append((yield Fork(cell, "add", n)))
            total = 0
            for worker in workers:
                total += yield Join(worker)
            return total

        first = run(main, nodes=2, cpus=2)
        second = run(main, nodes=2, cpus=2)
        assert first.value == second.value
        assert first.elapsed_us == second.elapsed_us
        assert first.stats.as_dict() == second.stats.as_dict()

    def test_deadlock_detected_and_described(self):
        class Sleeper(SimObject):
            def sleep_forever(self, ctx):
                yield Suspend("never woken")

        def main(ctx):
            sleeper = yield New(Sleeper)
            worker = yield Fork(sleeper, "sleep_forever")
            yield Join(worker)

        with pytest.raises(DeadlockError) as excinfo:
            run(main)
        message = str(excinfo.value)
        assert "main" in message
        assert "blocked" in message

    def test_stranded_threads_reported(self):
        """Main can finish while daemon-ish threads stay blocked; they are
        reported rather than failing the run."""
        class Sleeper(SimObject):
            def sleep_forever(self, ctx):
                yield Suspend("never woken")

        def main(ctx):
            sleeper = yield New(Sleeper)
            yield Fork(sleeper, "sleep_forever")
            yield Compute(1_000)
            return "done"

        result = run(main)
        assert result.value == "done"
        assert len(result.stranded) == 1

    def test_cpu_utilization_accounting(self):
        def main(ctx):
            yield Compute(1_000_000)

        result = run_program(main, nodes=1, cpus_per_node=2)
        node0 = result.stats.node(0)
        # One CPU busy out of two for essentially the whole run.
        assert node0.utilization(result.elapsed_us) == \
            pytest.approx(0.5, rel=0.01)

    def test_custom_cost_model_respected(self):
        slow_wire = CostModel.firefly().replace(per_byte_us=8.0)

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            t0 = ctx.now_us
            yield Invoke(cell, "get")
            return ctx.now_us - t0

        fast = AmberProgram(ClusterConfig(nodes=2)).run(main)
        slow = AmberProgram(ClusterConfig(nodes=2), slow_wire).run(main)
        assert slow.value > fast.value

    def test_region_exhaustion_surfaces(self):
        from repro.errors import AddressExhaustedError
        from repro.core import address_space

        def main(ctx):
            cells = []
            for _ in range(100):
                cells.append((yield New(Cell, size_bytes=1 << 19)))

        tiny = AmberProgram(ClusterConfig(nodes=1))
        program_cluster_limit = address_space.AddressSpaceServer(
            region_bytes=1 << 20, limit=address_space.HEAP_BASE + (1 << 22))
        # Patch a tiny address space in via a custom run.
        from repro.sim.cluster import SimCluster
        from repro.sim.kernel import AmberKernel
        cluster = SimCluster(ClusterConfig(nodes=1))
        cluster.address_server = program_cluster_limit
        for node in cluster.nodes:
            node.heap._server = program_cluster_limit
        kernel = AmberKernel(cluster)
        main_obj = kernel.object_manager.create_object(
            __import__("repro.sim.program", fromlist=["_MainObject"])
            ._MainObject, (main, ()), {}, 0, None)
        thread = kernel.thread_manager.start_main(main_obj, "run", (), 0)
        cluster.sim.run()
        assert isinstance(thread.exception, AddressExhaustedError)
