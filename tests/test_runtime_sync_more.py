"""Additional live-runtime synchronization coverage: CondVar broadcast
and barrier timeout diagnostics."""

import time

import pytest

from repro.errors import SynchronizationError
from repro.runtime import (
    AmberObject,
    Barrier,
    Cluster,
    CondVar,
    current_node,
)


class GateWaiter(AmberObject):
    def __init__(self, cond):
        self.cond = cond

    def wait_through(self):
        self.cond.wait(timeout=20)
        return current_node()


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


class TestCondVarBroadcast:
    def test_broadcast_releases_all_waiters(self, cluster):
        cond = cluster.create(CondVar, node=1)
        waiters = [cluster.create(GateWaiter, cond, node=n)
                   for n in range(3)]
        threads = [cluster.fork(waiter, "wait_through")
                   for waiter in waiters]
        time.sleep(0.3)          # let them all park at the condvar
        cond.broadcast()
        nodes = sorted(thread.join(timeout=20) for thread in threads)
        assert nodes == [0, 1, 2]

    def test_signal_releases_exactly_one(self, cluster):
        cond = cluster.create(CondVar, node=2)
        waiters = [cluster.create(GateWaiter, cond, node=n)
                   for n in range(2)]
        threads = [cluster.fork(waiter, "wait_through")
                   for waiter in waiters]
        time.sleep(0.3)
        cond.signal()
        time.sleep(0.3)
        cond.signal()            # release the second
        for thread in threads:
            thread.join(timeout=20)

    def test_wait_timeout_raises(self, cluster):
        cond = cluster.create(CondVar, node=1)
        with pytest.raises(SynchronizationError):
            cond.wait(timeout=0.2)


class TestBarrierDiagnostics:
    def test_timeout_reports_arrival_count(self, cluster):
        barrier = cluster.create(Barrier, 3, node=0)
        with pytest.raises(SynchronizationError, match="1/3"):
            barrier.wait(timeout=0.3)
