"""Kernel tests: object mobility (paper sections 2.3, 3.3, 3.5).

Moves leave forwarding addresses; attachment groups move together; bound
threads follow moved objects when next scheduled; immutable objects are
copied, not moved.
"""

import pytest

from repro.errors import AttachmentError, MobilityError
from repro.sim.objects import SimObject
from repro.sim.syscalls import (
    Attach,
    Charge,
    Compute,
    Fork,
    GetStats,
    Invoke,
    Join,
    Locate,
    MoveTo,
    New,
    Refresh,
    SetImmutable,
    Unattach,
)
from tests.helpers import Cell, run, run_free


class TestMoveTo:
    def test_descriptors_after_move(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            tables = ctx.cluster.descriptor_tables()
            return (tables[0].is_resident(cell.vaddr),
                    tables[0].where[cell.vaddr],
                    tables[1].is_resident(cell.vaddr))

        assert run_free(main).value == (False, 1, True)

    def test_move_to_same_node_is_noop(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 0)
            return (yield Locate(cell))

        assert run_free(main).value == 0

    def test_move_to_bad_node_is_catchable(self):
        from repro.errors import SimulationError

        def main(ctx):
            cell = yield New(Cell)
            try:
                yield MoveTo(cell, 99)
            except SimulationError:
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_move_latency_matches_table1(self):
        def main(ctx):
            cell = yield New(Cell, size_bytes=1000)
            t0 = ctx.now_us
            yield MoveTo(cell, 1)
            return ctx.now_us - t0

        assert run(main, cpus=4).value == pytest.approx(12430.0)

    def test_move_requested_from_third_node(self):
        """MoveTo on a non-resident object routes the request to wherever
        the object lives and runs the protocol there."""
        def main(ctx):
            cell = yield New(Cell, 5)   # created on node 0 (main's node)
            yield MoveTo(cell, 1)
            # Main is on node 0; the object is on 1; move it to 2.
            yield MoveTo(cell, 2)
            where = yield Locate(cell)
            value = yield Invoke(cell, "get")
            return (where, value)

        assert run_free(main, nodes=3).value == (2, 5)

    def test_objects_move_counted(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            yield MoveTo(cell, 0)
            stats = yield GetStats()
            return stats.object_moves

        assert run_free(main).value == 2


class TestForwardingChains:
    def test_chain_followed_and_compressed(self):
        """Move an object 0->1->2->3 with descriptors updated only at the
        nodes it visits; an invoke from node 0 chases the chain once, and
        path compression makes the second invoke direct."""
        def main(ctx):
            cell = yield New(Cell, 9)
            yield MoveTo(cell, 1)
            yield MoveTo(cell, 2)
            yield MoveTo(cell, 3)
            stats = yield GetStats()
            hops_before = stats.forwarding_hops_followed
            value = yield Invoke(cell, "get")
            hops_first = stats.forwarding_hops_followed - hops_before
            value2 = yield Invoke(cell, "get")
            hops_second = (stats.forwarding_hops_followed
                           - hops_before - hops_first)
            return (value, value2, hops_first, hops_second)

        value, value2, first, second = run_free(main, nodes=4).value
        assert value == value2 == 9
        assert first >= 1          # chased at least one stale hop
        assert second == 0         # cached location: direct

    def test_home_node_fallback(self):
        """A node with an uninitialized descriptor routes via the home
        node (section 3.3): create on node 1, move away, then have a
        thread on node 2 (which has never seen the object) invoke it."""
        class Prober(SimObject):
            def probe(self, ctx, cell):
                value = yield Invoke(cell, "get")
                return value

        def main(ctx):
            cell = yield New(Cell, 31, on_node=1)
            yield MoveTo(cell, 0)
            prober = yield New(Prober, on_node=2)
            return (yield Invoke(prober, "probe", cell))

        assert run_free(main, nodes=3).value == 31


class TestAttachment:
    def test_group_moves_together(self):
        def main(ctx):
            a = yield New(Cell, 1)
            b = yield New(Cell, 2)
            c = yield New(Cell, 3)
            yield Attach(a, b)
            yield Attach(c, b)
            yield MoveTo(b, 1)
            locations = []
            for obj in (a, b, c):
                locations.append((yield Locate(obj)))
            return locations

        assert run_free(main).value == [1, 1, 1]

    def test_moving_any_member_moves_all(self):
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield Attach(a, b)
            yield MoveTo(a, 1)   # a is the attacher; b must follow
            locations = []
            for obj in (a, b):
                locations.append((yield Locate(obj)))
            return locations

        assert run_free(main).value == [1, 1]

    def test_unattach_allows_separation(self):
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield Attach(a, b)
            yield Unattach(a)
            yield MoveTo(a, 1)
            locations = []
            for obj in (a, b):
                locations.append((yield Locate(obj)))
            return locations

        assert run_free(main).value == [1, 0]

    def test_attach_requires_colocation(self):
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield MoveTo(b, 1)
            try:
                yield Attach(a, b)
            except AttachmentError:
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_attach_self_rejected(self):
        def main(ctx):
            a = yield New(Cell)
            try:
                yield Attach(a, a)
            except AttachmentError:
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_group_move_is_one_network_transfer(self):
        """An attachment group moves in one bulk transfer, not one
        message per member."""
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield Attach(a, b)
            before = ctx.cluster.network.stats.messages
            yield MoveTo(b, 1)
            after = ctx.cluster.network.stats.messages
            return after - before

        # One data transfer plus one ack.
        assert run_free(main).value == 2


class TestImmutables:
    def test_moveto_copies_instead_of_moving(self):
        def main(ctx):
            cell = yield New(Cell, 11)
            yield SetImmutable(cell)
            yield MoveTo(cell, 1)
            tables = ctx.cluster.descriptor_tables()
            return (tables[0].is_resident(cell.vaddr),
                    tables[1].is_resident(cell.vaddr))

        assert run_free(main).value == (True, True)

    def test_remote_invoke_fetches_replica(self):
        """Invoking a non-resident immutable installs a local replica
        rather than migrating the thread."""
        class Reader(SimObject):
            def read(self, ctx, cell):
                value = yield Invoke(cell, "get")
                return (value, ctx.node)

        def main(ctx):
            cell = yield New(Cell, 13)
            yield SetImmutable(cell)
            reader = yield New(Reader, on_node=1)
            value, where = yield Invoke(reader, "read", cell)
            stats = yield GetStats()
            return value, where, stats.replications

        value, where, replications = run_free(main).value
        assert value == 13
        assert where == 1           # the reader never left node 1
        assert replications == 1

    def test_replica_reused_no_more_fetches(self):
        class Reader(SimObject):
            def read_twice(self, ctx, cell):
                yield Invoke(cell, "get")
                yield Invoke(cell, "get")

        def main(ctx):
            cell = yield New(Cell, 13)
            yield SetImmutable(cell)
            reader = yield New(Reader, on_node=1)
            yield Invoke(reader, "read_twice", cell)
            stats = yield GetStats()
            return stats.replications

        assert run_free(main).value == 1

    def test_refresh_prefetches(self):
        def main(ctx):
            cell = yield New(Cell, 17)
            yield SetImmutable(cell)
            yield MoveTo(cell, 1)       # replica on 1
            stats = yield GetStats()
            before = stats.replications
            yield Refresh(cell)         # already resident on 0: no-op
            return stats.replications - before

        assert run_free(main).value == 0

    def test_refresh_requires_immutable(self):
        def main(ctx):
            cell = yield New(Cell)
            try:
                yield Refresh(cell)
            except MobilityError:
                return "rejected"

        assert run_free(main).value == "rejected"

    def test_attach_of_immutable_rejected(self):
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield SetImmutable(a)
            try:
                yield Attach(a, b)
            except AttachmentError:
                return "rejected"

        assert run_free(main).value == "rejected"


class TestBoundThreads:
    def test_running_bound_thread_follows_object(self):
        """Section 3.5: a thread computing inside a moving object is
        preempted, makes a residency check when rescheduled, and migrates
        to the object's new node before continuing."""
        class Workplace(SimObject):
            def __init__(self):
                self.trace = []

            def work(self, ctx):
                self.trace.append(ctx.node)
                yield Compute(50_000)      # long: the move happens inside
                self.trace.append(ctx.node)
                yield Charge(1.0)
                return tuple(self.trace)

        def main(ctx):
            place = yield New(Workplace)
            worker = yield Fork(place, "work")
            yield Compute(1_000)           # let the worker get going
            yield MoveTo(place, 1)
            trace = yield Join(worker)
            return trace

        trace = run(main, cpus=2).value
        assert trace[0] == 0        # started on node 0
        assert trace[-1] == 1       # finished on node 1, after the move

    def test_blocked_bound_thread_migrates_on_wakeup(self):
        """A thread suspended inside a moved object stays put until it is
        rescheduled, then migrates (the paper's stated policy)."""
        from repro.sim.sync import Lock

        class Room(SimObject):
            def __init__(self, lock):
                self.lock = lock

            def enter(self, ctx):
                yield Invoke(self.lock, "acquire")
                yield Invoke(self.lock, "release")
                return ctx.node

        def main(ctx):
            lock = yield New(Lock)
            room = yield New(Room, lock)
            yield Invoke(lock, "acquire")      # main holds the lock
            sleeper = yield Fork(room, "enter")  # blocks inside acquire
            yield Compute(20_000)
            yield MoveTo(lock, 1)              # move the lock under it
            yield Invoke(lock, "release")      # wakes the sleeper (remote)
            where = yield Join(sleeper)
            return where

        # The sleeper reacquired the lock on node 1 and returned to the
        # Room on node 0 before reporting its node.
        assert run(main, cpus=2).value == 0

    def test_mover_inside_moved_object_follows_it(self):
        class Mover(SimObject):
            def hop(self, ctx, dest):
                yield MoveTo(self, dest)
                return ctx.node

        def main(ctx):
            mover = yield New(Mover)
            return (yield Invoke(mover, "hop", 1))

        assert run_free(main).value == 1

    def test_moving_running_thread_object_rejected(self):
        def main(ctx):
            cell = yield New(Cell)
            worker = yield Fork(cell, "add", 1)
            try:
                yield MoveTo(worker, 1)
            except MobilityError:
                yield Join(worker)
                return "rejected"
            yield Join(worker)
            return "allowed"

        # The worker may already be done by the time MoveTo runs under the
        # free cost model; use real costs so it is still running.
        class Slow(SimObject):
            def spin(self, ctx):
                yield Compute(1_000_000)

        def main2(ctx):
            slow = yield New(Slow)
            worker = yield Fork(slow, "spin")
            yield Compute(1_000)
            try:
                yield MoveTo(worker, 1)
            except MobilityError:
                yield Join(worker)
                return "rejected"

        assert run(main2, cpus=2).value == "rejected"
