"""Additional live-runtime synchronization coverage: CondVar broadcast
and signal, and the bound of a wait nothing ends."""

import time

import pytest

from repro.errors import SynchronizationError
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import (
    AmberObject,
    Barrier,
    Cluster,
    CondVar,
    Monitor,
    current_node,
)
from repro.sim import Invoke, SimObject


class Gate(SimObject):
    """Admits waiters under a Monitor, each wait in its predicate loop:
    ``open_all`` lets everyone through, ``admit`` one more."""

    def __init__(self, monitor, changed):
        self.monitor = monitor
        self.changed = changed
        self.open = False
        self.tickets = 0
        self.passed = 0

    def pass_through(self, ctx):
        yield Invoke(self.monitor, "enter")
        while not (self.open or self.tickets):
            yield Invoke(self.changed, "wait")
        if not self.open:
            self.tickets -= 1
        self.passed += 1
        yield Invoke(self.monitor, "exit")

    def open_all(self, ctx):
        yield Invoke(self.monitor, "enter")
        self.open = True
        yield Invoke(self.changed, "broadcast")
        yield Invoke(self.monitor, "exit")

    def admit(self, ctx):
        yield Invoke(self.monitor, "enter")
        self.tickets += 1
        yield Invoke(self.changed, "signal")
        yield Invoke(self.monitor, "exit")

    def count(self, ctx):
        return self.passed


class GateWaiter(AmberObject):
    def __init__(self, gate):
        self.gate = gate

    def wait_through(self):
        self.gate.pass_through()
        return current_node()


def make_gate(cluster, node):
    monitor = cluster.create(Monitor, node=node)
    changed = cluster.create(CondVar, monitor, node=node)
    return monitor, changed, cluster.create(Gate, monitor, changed,
                                            node=node)


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


class TestCondVarBroadcast:
    def test_broadcast_releases_all_waiters(self, cluster):
        _, _, gate = make_gate(cluster, 1)
        waiters = [cluster.create(GateWaiter, gate, node=n)
                   for n in range(3)]
        threads = [cluster.fork(waiter, "wait_through")
                   for waiter in waiters]
        time.sleep(0.3)          # let them all park at the condvar
        gate.open_all()
        nodes = sorted(thread.join(timeout=20) for thread in threads)
        assert nodes == [0, 1, 2]

    def test_signal_releases_exactly_one(self, cluster):
        _, _, gate = make_gate(cluster, 2)
        waiters = [cluster.create(GateWaiter, gate, node=n)
                   for n in range(2)]
        threads = [cluster.fork(waiter, "wait_through")
                   for waiter in waiters]
        time.sleep(0.3)
        gate.admit()
        time.sleep(0.3)
        assert gate.count() == 1
        gate.admit()             # release the second
        for thread in threads:
            thread.join(timeout=20)
        assert gate.count() == 2


class TestTimeouts:
    """A wait nothing ends raises within ``Suspend``'s bound, half the
    reply timeout: 1 s at a 0.5 s peer timeout.  The objects live on
    node 0, the driver, whose environment the test sets."""

    def test_a_wait_nobody_signals_is_typed_within_its_bound(
            self, cluster, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.5")
        monitor, changed, _ = make_gate(cluster, 0)
        monitor.enter()
        started = time.monotonic()
        with pytest.raises(SynchronizationError,
                           match=r"Suspend\('condvar'\)"):
            changed.wait()
        assert 1.0 <= time.monotonic() - started < 5.0

    def test_a_barrier_timeout_names_its_reason(self, cluster,
                                                monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.5")
        barrier = cluster.create(Barrier, 3, node=0)
        started = time.monotonic()
        with pytest.raises(
                SynchronizationError,
                match=r"Suspend\('barrier'\): no Wakeup within 1 s"):
            barrier.wait()
        assert 1.0 <= time.monotonic() - started < 5.0
