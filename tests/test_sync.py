"""Tests for synchronization objects (paper section 2.2).

Locks, barriers, monitors and condition variables are mobile, remotely
invocable objects; these tests exercise both local use and the distributed
behaviour section 4.1 highlights (remote lock invocation instead of page
thrashing).
"""

import pytest

from repro.errors import SynchronizationError
from repro.sim.objects import SimObject
from repro.sim.sync import (
    Barrier,
    CondVar,
    Lock,
    Monitor,
    ReaderWriterLock,
    SpinLock,
)
from repro.sim.syscalls import (
    Attach,
    Charge,
    Compute,
    Fork,
    GetStats,
    Invoke,
    Join,
    MoveTo,
    New,
)
from tests.helpers import run, run_free


class Account(SimObject):
    """Shared counter protected by a caller-supplied lock object."""

    def __init__(self, lock):
        self.lock = lock
        self.balance = 0
        self.race_observed = False

    def deposit(self, ctx, amount, rounds, hold_us=10.0):
        for _ in range(rounds):
            yield Invoke(self.lock, "acquire")
            snapshot = self.balance
            yield Compute(hold_us)  # race window if the lock is broken
            if self.balance != snapshot:
                self.race_observed = True
            self.balance = snapshot + amount
            yield Invoke(self.lock, "release")


class TestLock:
    @pytest.mark.parametrize("lock_cls", [Lock, SpinLock])
    def test_mutual_exclusion(self, lock_cls):
        def main(ctx):
            lock = yield New(lock_cls)
            account = yield New(Account, lock)
            workers = []
            for _ in range(4):
                workers.append((yield Fork(account, "deposit", 1, 10)))
            for worker in workers:
                yield Join(worker)
            return account.balance, account.race_observed

        balance, raced = run(main, nodes=1, cpus=4).value
        assert balance == 40
        assert not raced

    def test_release_by_non_owner_rejected(self):
        def main(ctx):
            lock = yield New(Lock)
            try:
                yield Invoke(lock, "release")
            except SynchronizationError:
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_try_acquire(self):
        def main(ctx):
            lock = yield New(Lock)
            first = yield Invoke(lock, "try_acquire")
            second = yield Invoke(lock, "try_acquire")
            yield Invoke(lock, "release")
            third = yield Invoke(lock, "try_acquire")
            return (first, second, third)

        assert run_free(main).value == (True, False, True)

    def test_fifo_handoff(self):
        def main(ctx):
            lock = yield New(Lock)
            account = yield New(Account, lock)
            yield Invoke(lock, "acquire")
            workers = []
            for _ in range(3):
                workers.append((yield Fork(account, "deposit", 1, 1)))
            yield Compute(20_000)
            yield Invoke(lock, "release")
            for worker in workers:
                yield Join(worker)
            return account.balance

        assert run(main, cpus=4).value == 3

    def test_remote_lock_is_function_shipping(self):
        """Acquiring a lock on another node migrates the thread there and
        back — one predictable round trip per operation, never a shuttled
        data page (section 4.1)."""
        def main(ctx):
            lock = yield New(Lock)
            yield MoveTo(lock, 1)
            stats = yield GetStats()
            migrations_before = stats.thread_migrations
            yield Invoke(lock, "acquire")
            yield Invoke(lock, "release")
            return stats.thread_migrations - migrations_before

        assert run_free(main).value == 4   # 2 round trips

    def test_contention_statistics(self):
        def main(ctx):
            lock = yield New(Lock)
            account = yield New(Account, lock)
            workers = []
            for _ in range(3):
                # Long critical sections guarantee overlap despite the
                # staggered thread starts.
                workers.append((yield Fork(account, "deposit", 1, 5,
                                           5_000.0)))
            for worker in workers:
                yield Join(worker)
            return lock.acquisitions, lock.waited_acquisitions

        acquisitions, contended = run(main, cpus=4).value
        assert acquisitions == 15
        assert contended > 0

    def test_spinlock_burns_cpu_while_waiting(self):
        def main(ctx):
            lock = yield New(SpinLock)
            account = yield New(Account, lock)
            workers = []
            for _ in range(2):
                workers.append((yield Fork(account, "deposit", 1, 5,
                                           5_000.0)))
            for worker in workers:
                yield Join(worker)
            return lock.spin_us

        assert run(main, cpus=4).value > 0


class TestBarrier:
    def test_releases_all_parties_together(self):
        class Team(SimObject):
            def __init__(self, barrier):
                self.barrier = barrier
                self.before = 0
                self.after = []

            def member(self, ctx, delay):
                yield Compute(delay)
                self.before += 1
                serial = yield Invoke(self.barrier, "wait")
                self.after.append(self.before)
                return serial

        def main(ctx):
            barrier = yield New(Barrier, 3)
            team = yield New(Team, barrier)
            workers = []
            for delay in (1_000, 20_000, 50_000):
                workers.append((yield Fork(team, "member", delay)))
            serials = []
            for worker in workers:
                serials.append((yield Join(worker)))
            return team.after, serials

        after, serials = run(main, cpus=4).value
        # Nobody proceeded before all three arrived.
        assert after == [3, 3, 3]
        # Exactly one thread per cycle is the serial one.
        assert sorted(serials) == [False, False, True]

    def test_barrier_is_reusable(self):
        class Team(SimObject):
            def __init__(self, barrier):
                self.barrier = barrier
                self.cycles_seen = 0

            def member(self, ctx, rounds):
                for _ in range(rounds):
                    yield Invoke(self.barrier, "wait")
                return "done"

        def main(ctx):
            barrier = yield New(Barrier, 2)
            team = yield New(Team, barrier)
            a = yield Fork(team, "member", 5)
            b = yield Fork(team, "member", 5)
            yield Join(a)
            yield Join(b)
            return barrier.cycles

        assert run(main, cpus=4).value == 5

    def test_invalid_parties_rejected(self):
        with pytest.raises(SynchronizationError):
            Barrier(0)

    @pytest.mark.parametrize("parties", [2.5, float("nan"), 2.0, True])
    def test_parties_a_wait_can_never_reach_are_refused(self, parties):
        """No count of arrivals equals 2.5 or NaN: such a barrier would
        release nobody and end the run in a deadlock."""
        def main(ctx):
            return (yield New(Barrier, parties))

        with pytest.raises(SynchronizationError, match="^parties "):
            run(main)

    def test_distributed_barrier(self):
        """Sections on different nodes meet at one barrier object — each
        wait is a remote invocation for the far node's thread."""
        class Site(SimObject):
            def __init__(self, barrier):
                self.barrier = barrier

            def arrive(self, ctx):
                yield Invoke(self.barrier, "wait")
                return ctx.node

        def main(ctx):
            barrier = yield New(Barrier, 2)
            near = yield New(Site, barrier)
            far = yield New(Site, barrier, on_node=1)
            a = yield Fork(near, "arrive")
            b = yield Fork(far, "arrive")
            return [(yield Join(a)), (yield Join(b))]

        assert run_free(main).value == [0, 1]


class TestMonitorCondVar:
    def test_bounded_buffer(self):
        """Producer/consumer over a monitor + condition variable (Mesa
        semantics: conditions re-checked in a loop)."""
        class Buffer(SimObject):
            def __init__(self, monitor, not_empty, not_full, capacity):
                self.monitor = monitor
                self.not_empty = not_empty
                self.not_full = not_full
                self.capacity = capacity
                self.items = []

            def put(self, ctx, item):
                yield Invoke(self.monitor, "enter")
                while len(self.items) >= self.capacity:
                    yield Invoke(self.not_full, "wait")
                self.items.append(item)
                yield Invoke(self.not_empty, "signal")
                yield Invoke(self.monitor, "exit")

            def get(self, ctx):
                yield Invoke(self.monitor, "enter")
                while not self.items:
                    yield Invoke(self.not_empty, "wait")
                item = self.items.pop(0)
                yield Invoke(self.not_full, "signal")
                yield Invoke(self.monitor, "exit")
                return item

            def produce(self, ctx, n):
                for i in range(n):
                    yield Invoke(self, "put", i)

            def consume(self, ctx, n):
                got = []
                for _ in range(n):
                    got.append((yield Invoke(self, "get")))
                return got

        def main(ctx):
            monitor = yield New(Monitor)
            not_empty = yield New(CondVar, monitor)
            not_full = yield New(CondVar, monitor)
            buffer = yield New(Buffer, monitor, not_empty, not_full, 2)
            producer = yield Fork(buffer, "produce", 8)
            consumer = yield Fork(buffer, "consume", 8)
            yield Join(producer)
            got = yield Join(consumer)
            return got, len(buffer.items)

        got, left = run(main, cpus=2).value
        assert got == list(range(8))
        assert left == 0

    def test_wait_without_monitor_rejected(self):
        def main(ctx):
            monitor = yield New(Monitor)
            cond = yield New(CondVar, monitor)
            try:
                yield Invoke(cond, "wait")
            except SynchronizationError:
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_broadcast_wakes_all(self):
        class Gate(SimObject):
            def __init__(self, monitor, cond):
                self.monitor = monitor
                self.cond = cond
                self.open = False
                self.through = 0

            def pass_gate(self, ctx):
                yield Invoke(self.monitor, "enter")
                while not self.open:
                    yield Invoke(self.cond, "wait")
                self.through += 1
                yield Invoke(self.monitor, "exit")

            def open_gate(self, ctx):
                yield Invoke(self.monitor, "enter")
                self.open = True
                yield Invoke(self.cond, "broadcast")
                yield Invoke(self.monitor, "exit")

        def main(ctx):
            monitor = yield New(Monitor)
            cond = yield New(CondVar, monitor)
            gate = yield New(Gate, monitor, cond)
            waiters = []
            for _ in range(3):
                waiters.append((yield Fork(gate, "pass_gate")))
            yield Compute(50_000)
            yield Invoke(gate, "open_gate")
            for waiter in waiters:
                yield Join(waiter)
            return gate.through

        assert run(main, cpus=4).value == 3

    def test_monitor_exit_by_non_owner_rejected(self):
        def main(ctx):
            monitor = yield New(Monitor)
            try:
                yield Invoke(monitor, "exit")
            except SynchronizationError:
                return "rejected"

        assert run_free(main).value == "rejected"


class TestReaderWriterLock:
    def test_readers_share_writers_exclude(self):
        class Library(SimObject):
            def __init__(self, rw):
                self.rw = rw
                self.active_readers = 0
                self.max_concurrent_readers = 0
                self.value = 0

            def read(self, ctx):
                yield Invoke(self.rw, "acquire_read")
                self.active_readers += 1
                self.max_concurrent_readers = max(
                    self.max_concurrent_readers, self.active_readers)
                yield Compute(10_000)
                snapshot = self.value
                self.active_readers -= 1
                yield Invoke(self.rw, "release_read")
                return snapshot

            def write(self, ctx, value):
                yield Invoke(self.rw, "acquire_write")
                if self.active_readers:
                    raise AssertionError("writer overlapped readers")
                yield Compute(5_000)
                self.value = value
                yield Invoke(self.rw, "release_write")

        def main(ctx):
            rw = yield New(ReaderWriterLock)
            library = yield New(Library, rw)
            readers = []
            for _ in range(3):
                readers.append((yield Fork(library, "read")))
            writer = yield Fork(library, "write", 7)
            for reader in readers:
                yield Join(reader)
            yield Join(writer)
            final = yield Invoke(library, "read")
            return library.max_concurrent_readers, final

        concurrent, final = run(main, cpus=4).value
        assert concurrent >= 2    # readers really overlapped
        assert final == 7

    def test_release_without_hold_rejected(self):
        def main(ctx):
            rw = yield New(ReaderWriterLock)
            try:
                yield Invoke(rw, "release_read")
            except SynchronizationError:
                return "rejected"

        assert run_free(main).value == "rejected"


class TestMobileSync:
    def test_lock_moves_with_protected_object(self):
        """Section 3.6's recipe: attach the lock to the object it guards
        so they stay co-located across moves."""
        def main(ctx):
            lock = yield New(Lock)
            from tests.helpers import Cell
            data = yield New(Cell)
            yield Attach(lock, data)
            yield MoveTo(data, 1)
            yield Invoke(lock, "acquire")   # remote now, still works
            yield Invoke(lock, "release")
            from repro.sim.syscalls import Locate
            return (yield Locate(lock))

        assert run_free(main).value == 1
