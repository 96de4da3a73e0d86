"""Edge-case tests for the simulated kernel: Sleep, thread-object moves,
deletion of attached objects, stats plumbing, and network contention."""

from dataclasses import replace

import pytest

from repro.core.costs import CostModel
from repro.errors import AttachmentError, MobilityError
from repro.sim.objects import SimObject
from repro.sim.syscalls import (
    Attach,
    Charge,
    Compute,
    Delete,
    Fork,
    GetStats,
    Invoke,
    Join,
    Locate,
    MoveTo,
    New,
    NewThread,
    Sleep,
    Start,
)
from tests.helpers import Cell, run, run_free


class TestSleep:
    def test_sleep_advances_time_without_cpu(self):
        class Napper(SimObject):
            def nap(self, ctx, us):
                t0 = ctx.now_us
                yield Sleep(us)
                return ctx.now_us - t0

        def main(ctx):
            napper = yield New(Napper)
            elapsed = yield Invoke(napper, "nap", 10_000)
            stats = yield GetStats()
            return elapsed, stats.node(0).cpu_busy_us

        elapsed, busy = run(main, nodes=1, cpus=1).value
        assert elapsed >= 10_000
        # CPU charged far less than the sleep (just overheads).
        assert busy < 5_000

    def test_sleeping_frees_the_cpu_for_others(self):
        class Pair(SimObject):
            def __init__(self):
                self.trace = []

            def sleeper(self, ctx):
                self.trace.append("sleep-start")
                yield Sleep(50_000)
                self.trace.append("sleep-end")

            def worker(self, ctx):
                yield Compute(10_000)
                self.trace.append("work-done")

        def main(ctx):
            pair = yield New(Pair)
            a = yield Fork(pair, "sleeper")
            b = yield Fork(pair, "worker")
            yield Join(a)
            yield Join(b)
            return pair.trace

        # One CPU: the worker must complete during the sleep.
        trace = run(main, nodes=1, cpus=1).value
        assert trace == ["sleep-start", "work-done", "sleep-end"]

    def test_negative_sleep_rejected(self):
        from repro.errors import InvocationError

        def main(ctx):
            try:
                yield Sleep(-5)
            except InvocationError:
                return "rejected"

        assert run_free(main).value == "rejected"


@pytest.mark.parametrize("us", [float("nan"), float("inf")])
@pytest.mark.parametrize("request_type", [Compute, Charge, Sleep])
def test_non_finite_duration_raises_inside_the_program(request_type, us):
    """A NaN or infinite duration is rejected like a negative one: a
    typed error the program can catch, not a ValueError or
    OverflowError out of the run, and not a Compute that never ends."""
    from repro.errors import InvocationError

    def main(ctx):
        try:
            yield request_type(us)
        except InvocationError as error:
            return str(error)

    assert "finite and non-negative" in run_free(main).value


class TestChargeInFlight:
    def test_move_preemption_cancels_the_compute_entry(self):
        """The move protocol interrupts a bound thread mid-Compute by
        cancelling its CPU's engine entry; the remaining compute is kept
        and run on the object's new node."""
        class Workplace(SimObject):
            def work(self, ctx):
                yield Compute(50_000)
                return ctx.node

        def main(ctx):
            place = yield New(Workplace)
            worker = yield Fork(place, "work")
            yield Compute(1_000)
            cpu, = [cpu for cpu in ctx.cluster.nodes[0].cpus
                    if cpu.thread is worker]
            entry = cpu.run_event
            assert entry[2] is not None and cpu.charge_preemptible
            yield MoveTo(place, 1)
            cancelled = entry[2] is None
            left_us = worker.pending_compute_us
            return cancelled, left_us, (yield Join(worker))

        cancelled, left_us, where = run(main, cpus=2).value
        assert cancelled
        assert 0 < left_us < 50_000
        assert where == 1

    def test_second_charge_on_a_busy_cpu_is_a_kernel_error(self):
        """A CPU runs one charge at a time.  A second is a kernel bug:
        it stops the run, and is never delivered into the program as an
        AmberError it could catch."""
        from repro.errors import AmberError

        class Meddler(SimObject):
            def meddle(self, ctx):
                ctx._kernel.charge(ctx.thread, 1.0, lambda: None)
                return 1

        def main(ctx):
            meddler = yield New(Meddler)
            try:
                yield Invoke(meddler, "meddle")
            except AmberError:
                return "delivered"

        with pytest.raises(RuntimeError, match="still in flight"):
            run_free(main)


class TestThreadObjectMoves:
    def test_move_unstarted_thread_starts_on_new_node(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            # Thread created here (node 0) targeting the remote cell.
            thread = yield NewThread(cell, "where")
            yield MoveTo(thread, 1)      # pre-position the thread object
            yield Start(thread)
            return (yield Join(thread))

        assert run_free(main).value == 1

    def test_move_blocked_thread_object(self):
        from repro.sim.sync import Lock

        class Blocker(SimObject):
            def __init__(self, lock):
                self.lock = lock

            def go(self, ctx):
                yield Invoke(self.lock, "acquire")
                yield Invoke(self.lock, "release")
                return ctx.node

        def main(ctx):
            lock = yield New(Lock)
            blocker = yield New(Blocker, lock)
            yield Invoke(lock, "acquire")
            waiter = yield Fork(blocker, "go")
            yield Compute(20_000)        # the waiter is now blocked
            yield MoveTo(waiter, 1)      # move the *thread object*
            where = yield Locate(waiter)
            yield Invoke(lock, "release")
            yield Join(waiter)
            return where

        assert run(main, cpus=2).value == 1

    def test_move_finished_thread_rejected(self):
        def main(ctx):
            cell = yield New(Cell)
            worker = yield Fork(cell, "get")
            yield Join(worker)
            try:
                yield MoveTo(worker, 1)
            except MobilityError:
                return "rejected"

        assert run_free(main).value == "rejected"


class TestDeleteEdges:
    def test_delete_attached_object_drops_edges(self):
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield Attach(a, b)
            yield Delete(a)
            # b is now a singleton group and can move alone.
            yield MoveTo(b, 1)
            return (yield Locate(b))

        assert run_free(main).value == 1

    def test_deleted_vaddr_not_locatable(self):
        from repro.errors import AmberError

        def main(ctx):
            cell = yield New(Cell)
            yield Delete(cell)
            try:
                yield Locate(cell)
            except AmberError:
                return "gone"

        assert run_free(main).value == "gone"


class TestStatsPlumbing:
    def test_getstats_returns_live_view(self):
        def main(ctx):
            stats = yield GetStats()
            cell = yield New(Cell)
            yield Invoke(cell, "get")
            return stats.total_local_invocations

        assert run_free(main).value == 1

    def test_access_log_populates(self):
        def main(ctx):
            cell = yield New(Cell)
            yield Invoke(cell, "get")
            yield Invoke(cell, "get")
            return dict(ctx.cluster.access_log[cell.vaddr])

        assert run_free(main).value == {0: 2}

    def test_node_stats_utilization_bounds(self):
        def main(ctx):
            yield Compute(100_000)

        result = run(main, nodes=2, cpus=2)
        for node_stats in result.stats.nodes:
            utilization = node_stats.utilization(result.elapsed_us)
            assert 0.0 <= utilization <= 1.0


class TestNetworkContention:
    def test_burst_serialises_on_the_wire(self):
        """Eight simultaneous remote invocations share one wire: their
        transmissions queue behind each other, so the burst lasts at
        least one message latency plus every byte it sent on the wire.
        A slow wire makes that dominate the CPU costs (independent
        links would finish in about one message's wire time)."""
        class Target(SimObject):
            def op(self, ctx):
                if False:
                    yield None

        def main(ctx):
            targets = []
            for node in range(1, 5):
                targets.append((yield New(Target, on_node=node)))
            wire = ctx.cluster.network.stats
            t0, bytes0 = ctx.now_us, wire.bytes
            callers = []
            for target in targets:
                for _ in range(2):
                    callers.append((yield Fork(target, "op")))
            for caller in callers:
                yield Join(caller)
            return ctx.now_us - t0, wire.bytes - bytes0, wire.queueing_us

        costs = replace(CostModel.firefly(), per_byte_us=8.0)
        elapsed, burst_bytes, queueing_us = run(
            main, nodes=5, cpus=4, costs=costs).value
        assert burst_bytes >= 8 * costs.thread_packet_bytes
        assert queueing_us > 0
        assert elapsed >= costs.wire_us(burst_bytes)
