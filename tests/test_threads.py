"""Kernel tests: threads (paper section 2.1) and timeslicing."""

import pytest

from repro.errors import InvocationError
from repro.sim.objects import SimObject
from repro.sim.syscalls import (
    Charge,
    Compute,
    Fork,
    GetStats,
    Invoke,
    Join,
    MoveTo,
    New,
    NewThread,
    Sleep,
    Start,
    Suspend,
    Wakeup,
    Yield,
)
from tests.helpers import Cell, run, run_free


class TestStartJoin:
    def test_fork_join_returns_result(self):
        def main(ctx):
            cell = yield New(Cell, 10)
            worker = yield Fork(cell, "add", 5)
            return (yield Join(worker))

        assert run_free(main).value == 15

    def test_newthread_then_start(self):
        def main(ctx):
            cell = yield New(Cell)
            thread = yield NewThread(cell, "set", 3)
            yield Start(thread)
            return (yield Join(thread))

        assert run_free(main).value == 3

    def test_start_twice_rejected(self):
        def main(ctx):
            cell = yield New(Cell)
            thread = yield NewThread(cell, "get")
            yield Start(thread)
            try:
                yield Start(thread)
            except InvocationError:
                yield Join(thread)
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_join_already_finished_thread(self):
        def main(ctx):
            cell = yield New(Cell, 1)
            worker = yield Fork(cell, "get")
            yield Compute(100_000)   # let it finish long before the join
            return (yield Join(worker))

        assert run(main).value == 1

    def test_join_self_rejected(self):
        class Selfish(SimObject):
            def act(self, ctx):
                try:
                    yield Join(ctx.thread)
                except InvocationError:
                    return "rejected"

        def main(ctx):
            selfish = yield New(Selfish)
            worker = yield Fork(selfish, "act")
            return (yield Join(worker))

        assert run_free(main).value == "rejected"

    def test_multiple_joiners_all_released(self):
        class Waiter(SimObject):
            def wait_on(self, ctx, target):
                return (yield Join(target))

        def main(ctx):
            cell = yield New(Cell, 4)
            slow = yield Fork(cell, "add", 1)
            waiter_obj = yield New(Waiter)
            joiners = []
            for _ in range(3):
                joiners.append((yield Fork(waiter_obj, "wait_on", slow)))
            results = []
            for joiner in joiners:
                results.append((yield Join(joiner)))
            return results

        assert run_free(main).value == [5, 5, 5]

    def test_join_reraises_child_exception(self):
        def main(ctx):
            cell = yield New(Cell)
            worker = yield Fork(cell, "boom")
            try:
                yield Join(worker)
            except ValueError as error:
                return f"caught {error}"

        assert run_free(main).value == "caught boom"

    def test_start_join_latency_matches_table1(self):
        def main(ctx):
            cell = yield New(Cell)
            thread = yield NewThread(cell, "get")
            t0 = ctx.now_us
            yield Start(thread)
            yield Join(thread)
            return ctx.now_us - t0

        assert run(main, cpus=4).value == pytest.approx(1330.0)

    def test_thread_starts_on_targets_node(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            worker = yield Fork(cell, "where")
            return (yield Join(worker))

        assert run_free(main).value == 1

    def test_parallel_forks_use_multiple_cpus(self):
        """Two compute-bound threads on a 2-CPU node take barely longer
        than one."""
        class Burn(SimObject):
            def burn(self, ctx):
                yield Compute(100_000)

        def main(ctx):
            burn = yield New(Burn)
            t0 = ctx.now_us
            a = yield Fork(burn, "burn")
            b = yield Fork(burn, "burn")
            yield Join(a)
            yield Join(b)
            return ctx.now_us - t0

        elapsed = run(main, nodes=1, cpus=2).value
        assert elapsed < 150_000   # serial would be >200ms

    def test_single_cpu_serializes(self):
        class Burn(SimObject):
            def burn(self, ctx):
                yield Compute(100_000)

        def main(ctx):
            burn = yield New(Burn)
            a = yield Fork(burn, "burn")
            b = yield Fork(burn, "burn")
            t0 = ctx.now_us
            yield Join(a)
            yield Join(b)
            return ctx.now_us - t0

        # Main blocks in Join, freeing the single CPU; the two burns
        # serialize on it.
        elapsed = run(main, nodes=1, cpus=1).value
        assert elapsed > 195_000


class TestAtomicThreadBody:
    """Fork/Start of an atomic (non-generator) operation: the thread body
    has no caller frame, so its return is the thread's exit."""

    def test_fork_join_atomic_local(self):
        def main(ctx):
            cell = yield New(Cell, 7)
            worker = yield Fork(cell, "get_atomic")
            return (yield Join(worker))

        assert run(main).value == 7

    def test_fork_join_atomic_on_remote_node(self):
        class Where(SimObject):
            def node(self, ctx):
                return ctx.node

        def main(ctx):
            where = yield New(Where, on_node=1)
            worker = yield Fork(where, "node")
            value = yield Join(worker)
            return value, worker.location, worker.migrations

        assert run(main).value == (1, 1, 1)

    def test_newthread_start_atomic(self):
        def main(ctx):
            cell = yield New(Cell, 3)
            thread = yield NewThread(cell, "get_atomic")
            yield Start(thread)
            return (yield Join(thread))

        assert run_free(main).value == 3

    def test_atomic_thread_costs_the_same_as_a_generator_one(self):
        def elapsed(method):
            def main(ctx):
                cell = yield New(Cell)
                t0 = ctx.now_us
                yield Join((yield Fork(cell, method)))
                return ctx.now_us - t0

            return run(main, cpus=4).value

        assert elapsed("get_atomic") == elapsed("get")

    def test_raising_atomic_body_reaches_the_joiner(self):
        class Bomb(SimObject):
            def boom(self, ctx):
                raise ValueError("atomic boom")

        def main(ctx):
            bomb = yield New(Bomb, on_node=1)
            worker = yield Fork(bomb, "boom")
            try:
                yield Join(worker)
            except ValueError as error:
                return f"caught {error}"

        assert run(main).value == "caught atomic boom"


class Poker(SimObject):
    def poke(self, ctx, thread, after_us):
        yield Compute(after_us)
        yield Wakeup(thread)


class TestSuspendWakeup:
    def test_wakeup_before_suspend_not_lost(self):
        """The classic race: Wakeup delivered while the target is still
        entering its Suspend must not be dropped."""
        class Pair(SimObject):
            def __init__(self):
                self.sleeper = None

            def sleep(self, ctx):
                self.sleeper = ctx.thread
                yield Suspend("test")
                return "woke"

            def poke(self, ctx):
                yield Wakeup(self.sleeper)

        def main(ctx):
            pair = yield New(Pair)
            sleeper = yield Fork(pair, "sleep")
            yield Compute(5_000)
            yield Invoke(pair, "poke")
            return (yield Join(sleeper))

        assert run(main, cpus=2).value == "woke"

    def test_wakeup_leaves_a_joiner_joined(self):
        """A Wakeup aimed at a thread blocked in Join is remembered, not
        delivered: the joiner still returns its target's value."""
        class Slow(SimObject):
            def work(self, ctx):
                yield Compute(50_000)
                return "done"

        def main(ctx):
            slow = yield New(Slow)
            poker = yield New(Poker)
            worker = yield Fork(slow, "work")
            yield Fork(poker, "poke", ctx.thread, 1_000)
            return (yield Join(worker))

        assert run(main, cpus=2).value == "done"

    def test_wakeup_does_not_cut_a_sleep_short(self):
        def main(ctx):
            poker = yield New(Poker)
            t0 = ctx.now_us
            yield Fork(poker, "poke", ctx.thread, 20_000)
            yield Sleep(100_000)
            return ctx.now_us - t0

        assert run(main, cpus=2).value >= 100_000

    def test_yield_relinquishes(self):
        def main(ctx):
            yield Yield()
            return "ok"

        assert run_free(main).value == "ok"


class TestTimeslicing:
    def test_quantum_interleaves_threads(self):
        """On one CPU, two long computations context-switch on quantum
        expiry (Presto-style timeslicing) rather than running to
        completion back to back."""
        class Burn(SimObject):
            def __init__(self):
                self.finish_order = []

            def burn(self, ctx, tag, us):
                yield Compute(us)
                self.finish_order.append(tag)

        def main(ctx):
            burn = yield New(Burn)
            # Long thread first: without slicing, "long" would finish
            # first; with 100 ms slices, "short" (150 ms) finishes before
            # "long" (400 ms).
            long_thread = yield Fork(burn, "burn", "long", 400_000)
            short_thread = yield Fork(burn, "burn", "short", 150_000)
            yield Join(long_thread)
            yield Join(short_thread)
            return burn.finish_order

        assert run(main, nodes=1, cpus=1).value == ["short", "long"]

    def test_context_switches_counted(self):
        class Burn(SimObject):
            def burn(self, ctx):
                yield Compute(300_000)

        def main(ctx):
            burn = yield New(Burn)
            a = yield Fork(burn, "burn")
            b = yield Fork(burn, "burn")
            yield Join(a)
            yield Join(b)
            stats = yield GetStats()
            return stats.node(0).context_switches

        assert run(main, nodes=1, cpus=1).value >= 4

    def test_solo_thread_never_preempted(self):
        class Burn(SimObject):
            def burn(self, ctx):
                yield Compute(500_000)

        def main(ctx):
            burn = yield New(Burn)
            worker = yield Fork(burn, "burn")
            yield Join(worker)
            stats = yield GetStats()
            return stats.node(0).context_switches

        # Main blocks in Join; the worker owns the CPU alone.
        assert run(main, nodes=1, cpus=2).value == 0
