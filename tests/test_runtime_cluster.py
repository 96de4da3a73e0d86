"""Integration tests for the live multiprocess runtime.

A real cluster is spawned (one OS process per node on localhost); these
tests exercise the full Amber model over actual sockets: function
shipping, mobility with forwarding, replication, threads, and the
distributed synchronization objects.
"""

import time

import pytest

from repro.errors import (
    AmberError,
    AttachmentError,
    ClusterError,
    ImmutabilityError,
    InvocationError,
    SynchronizationError,
)
from repro.runtime import (
    AmberObject,
    Barrier,
    Cluster,
    CondVar,
    Lock,
    Monitor,
    current_node,
)
from repro.sim import Invoke, SimObject
from tests.live_helpers import move_behind_the_drivers_back


class Counter(AmberObject):
    def __init__(self, start=0):
        self.value = start

    def add(self, n=1):
        self.value += n
        return self.value

    def get(self):
        return self.value

    def where(self):
        return current_node()

    def boom(self):
        raise ValueError("boom")

    def slow_add(self, n, delay):
        time.sleep(delay)
        self.value += n
        return self.value


class Pair(AmberObject):
    """Holds handles to other objects: exercises reference transmission."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def total(self):
        # Invoking through handles from inside an operation: the nested
        # activations ship to wherever left and right live.
        return self.left.get() + self.right.get()

    def whereabouts(self):
        return (current_node(), self.left.where(), self.right.where())


class Critical(AmberObject):
    """Counts overlapping critical sections guarded by a remote Lock."""

    def __init__(self, lock):
        self.lock = lock
        self.overlaps = 0
        self.inside = 0
        self.runs = 0

    def run(self, n):
        for _ in range(n):
            self.lock.acquire()
            self.inside += 1
            if self.inside > 1:
                self.overlaps += 1
            time.sleep(0.01)
            self.inside -= 1
            self.runs += 1
            self.lock.release()
        return self.runs

    def report(self):
        return (self.runs, self.overlaps)


class Arriver(AmberObject):
    def __init__(self, barrier):
        self.barrier = barrier

    def arrive(self):
        serial = self.barrier.wait()
        return (current_node(), serial)


class Mailbox(SimObject):
    """Items under a Monitor; ``take`` waits in the Mesa predicate loop."""

    def __init__(self, monitor, arrived):
        self.monitor = monitor
        self.arrived = arrived
        self.items = []

    def put(self, ctx, item):
        yield Invoke(self.monitor, "enter")
        self.items.append(item)
        yield Invoke(self.arrived, "signal")
        yield Invoke(self.monitor, "exit")

    def take(self, ctx):
        yield Invoke(self.monitor, "enter")
        while not self.items:
            yield Invoke(self.arrived, "wait")
        item = self.items.pop(0)
        yield Invoke(self.monitor, "exit")
        return item


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


class TestInvocation:
    def test_local_create_and_invoke(self, cluster):
        counter = cluster.create(Counter, 10)
        assert counter.add(5) == 15
        assert counter.get() == 15

    def test_remote_create_executes_there(self, cluster):
        counter = cluster.create(Counter, node=1)
        assert counter.where() == 1

    def test_state_persists_across_invocations(self, cluster):
        counter = cluster.create(Counter, node=2)
        for i in range(5):
            counter.add(1)
        assert counter.get() == 5

    def test_kwargs(self, cluster):
        counter = cluster.create(Counter, start=7)
        assert counter.add(n=3) == 10

    def test_exception_propagates_across_nodes(self, cluster):
        counter = cluster.create(Counter, node=1)
        with pytest.raises(ValueError, match="boom"):
            counter.boom()

    def test_unknown_method_rejected(self, cluster):
        counter = cluster.create(Counter, node=1)
        with pytest.raises(InvocationError):
            counter.no_such_method()

    def test_non_amber_class_rejected(self, cluster):
        class Plain:
            pass

        with pytest.raises(AmberError):
            cluster.create(Plain)

    def test_handles_travel_as_references(self, cluster):
        left = cluster.create(Counter, 1, node=1)
        right = cluster.create(Counter, 2, node=2)
        pair = cluster.create(Pair, left, right, node=0)
        assert pair.total() == 3
        assert pair.whereabouts() == (0, 1, 2)


class TestMobility:
    def test_move_and_invoke(self, cluster):
        counter = cluster.create(Counter, 5, node=0)
        cluster.move(counter, 1)
        assert counter.where() == 1
        assert counter.add(1) == 6

    def test_locate_tracks_moves(self, cluster):
        counter = cluster.create(Counter)
        for dest in (1, 2, 0, 2):
            cluster.move(counter, dest)
            assert cluster.locate(counter) == dest

    def test_state_survives_moves(self, cluster):
        counter = cluster.create(Counter)
        for dest in (1, 2, 1, 0):
            counter.add(1)
            cluster.move(counter, dest)
        assert counter.get() == 4

    def test_forwarding_chain_resolved(self, cluster):
        """Another node's stale descriptor chases the chain and still
        reaches the object."""
        counter = cluster.create(Counter, node=1)
        counter.add(1)             # node 0 learns nothing (direct hit)
        # Node 1 now forwards to 2; node 0, which did not move it, does
        # not know.
        move_behind_the_drivers_back(cluster, counter, 2)
        forwards = cluster.node_stats(1)["forwards"]
        assert counter.get() == 1  # 0 -> believed 1 -> forwarded -> 2
        assert cluster.node_stats(1)["forwards"] == forwards + 1

    def test_move_to_bad_node_rejected(self, cluster):
        counter = cluster.create(Counter)
        with pytest.raises(ClusterError):
            cluster.move(counter, 99)

    def test_move_waits_for_active_invocations(self, cluster):
        counter = cluster.create(Counter, node=1)
        thread = cluster.fork(counter, "slow_add", 1, 0.5)
        time.sleep(0.1)            # let the slow invocation start
        cluster.move(counter, 2)   # must drain the slow_add first
        assert thread.join(timeout=10) == 1
        assert counter.get() == 1
        assert cluster.locate(counter) == 2

    def test_delete(self, cluster):
        counter = cluster.create(Counter, node=1)
        cluster.delete(counter)
        with pytest.raises(AmberError):
            counter.get()


class TestAttachment:
    def test_attached_objects_move_together(self, cluster):
        a = cluster.create(Counter, 1)
        b = cluster.create(Counter, 2)
        cluster.attach(a, b)
        cluster.move(b, 2)
        assert cluster.locate(a) == 2
        assert cluster.locate(b) == 2
        assert a.get() + b.get() == 3
        cluster.unattach(a)

    def test_attach_requires_colocation(self, cluster):
        a = cluster.create(Counter, node=0)
        b = cluster.create(Counter, node=1)
        with pytest.raises(AttachmentError):
            cluster.attach(a, b)

    def test_unattach_allows_separation(self, cluster):
        a = cluster.create(Counter)
        b = cluster.create(Counter)
        cluster.attach(a, b)
        cluster.unattach(a)
        cluster.move(a, 1)
        assert cluster.locate(a) == 1
        assert cluster.locate(b) == 0


class TestImmutables:
    def test_move_of_immutable_copies(self, cluster):
        table = cluster.create(Counter, 42)
        cluster.set_immutable(table)
        cluster.move(table, 1)
        # Still resident at the origin: a copy was made, not a move.
        assert cluster.locate(table) == 0
        assert table.get() == 42

    def test_remote_read_installs_replica(self, cluster):
        """The replica is pushed ahead of the reply, on the same
        connection: the caller holds it by the time the call returns."""
        table = cluster.create(Counter, 7, node=1)
        cluster.set_immutable(table)
        before = cluster.node_stats(0)
        assert table.get() == 7            # remote: triggers replication
        assert cluster.node_stats(0)["replicas_installed"] == \
            before["replicas_installed"] + 1
        assert table.get() == 7            # now a local read
        assert cluster.node_stats(0)["local_invocations"] == \
            before["local_invocations"] + 1

    def test_attach_of_immutable_rejected(self, cluster):
        a = cluster.create(Counter)
        b = cluster.create(Counter)
        cluster.set_immutable(a)
        with pytest.raises(AttachmentError):
            cluster.attach(a, b)


class TestThreads:
    def test_fork_join(self, cluster):
        counter = cluster.create(Counter, node=2)
        thread = cluster.fork(counter, "add", 5)
        assert thread.join(timeout=10) == 5

    def test_many_threads(self, cluster):
        counter = cluster.create(Counter, node=1)
        threads = [cluster.fork(counter, "add", 1) for _ in range(10)]
        results = [t.join(timeout=10) for t in threads]
        assert counter.get() == 10
        assert len(results) == 10

    def test_join_reraises(self, cluster):
        counter = cluster.create(Counter, node=1)
        thread = cluster.fork(counter, "boom")
        with pytest.raises(ValueError, match="boom"):
            thread.join(timeout=10)


class TestSync:
    def test_lock_mutual_exclusion_across_nodes(self, cluster):
        lock = cluster.create(Lock, node=1)
        assert lock.try_acquire() is True
        assert lock.try_acquire() is False   # from this node, still held
        lock.release()
        assert lock.try_acquire() is True    # free again
        lock.release()

    def test_lock_release_while_free_rejected(self, cluster):
        lock = cluster.create(Lock, node=2)
        with pytest.raises(SynchronizationError):
            lock.release()

    def test_lock_serializes_critical_sections(self, cluster):
        lock = cluster.create(Lock, node=2)
        critical = cluster.create(Critical, lock, node=1)
        threads = [cluster.fork(critical, "run", 3) for _ in range(3)]
        for thread in threads:
            thread.join(timeout=20)
        runs, overlaps = critical.report()
        assert runs == 9
        assert overlaps == 0

    def test_barrier_across_nodes(self, cluster):
        barrier = cluster.create(Barrier, 3, node=0)
        arrivers = [cluster.create(Arriver, barrier, node=n)
                    for n in range(3)]
        threads = [cluster.fork(a, "arrive") for a in arrivers]
        results = [t.join(timeout=20) for t in threads]
        nodes = sorted(r[0] for r in results)
        serials = sorted(r[1] for r in results)
        assert nodes == [0, 1, 2]
        assert serials == [False, False, True]

    def test_condvar_predicate_loop_keeps_an_early_signal(self, cluster):
        """A signal with no waiter is not banked (Mesa): what keeps it is
        the state it announced, which the waiter's loop reads first."""
        monitor = cluster.create(Monitor, node=1)
        arrived = cluster.create(CondVar, monitor, node=1)
        mailbox = cluster.create(Mailbox, monitor, arrived, node=1)
        mailbox.put("early")
        assert mailbox.take() == "early"


class TestClusterLifecycle:
    def test_single_node_cluster(self):
        with Cluster(nodes=1) as single:
            counter = single.create(Counter, 3)
            assert counter.add(4) == 7

    def test_shutdown_is_idempotent(self):
        c = Cluster(nodes=2)
        counter = c.create(Counter, node=1)
        assert counter.add(1) == 1
        c.shutdown()
        c.shutdown()

    def test_invalid_node_count(self):
        with pytest.raises(ClusterError):
            Cluster(nodes=0)

    def test_create_on_bad_node(self, cluster):
        with pytest.raises(ClusterError):
            cluster.create(Counter, node=42)
