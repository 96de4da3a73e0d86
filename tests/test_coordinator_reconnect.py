"""Coordinator-outage tolerance: a killed coordinator can be replaced
on the same port and the cluster heals around it.

During the outage control-plane requests fail typed (``ClusterError``)
and fast — the ``_connected`` gate in ``CoordinatorClient`` refuses new
requests instead of letting them burn their full deadline.  Once a
successor binds the port, every node's client reconnects, re-registers,
and resumes heartbeats; the data plane never stops.
"""

import time

import pytest

from repro.errors import ClusterError
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import AmberObject, Cluster
from repro.runtime.coordinator import Coordinator


class Counter(AmberObject):
    def __init__(self):
        self.value = 0

    def add(self, amount):
        self.value += amount
        return self.value


def _await(probe, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if probe():
                return True
        except Exception:
            pass
        time.sleep(0.1)
    return False


def _start_successor(cluster, port, server):
    """Bind a successor on the old port, retrying while the dead
    incarnation's sockets drain out of the kernel."""
    deadline = time.monotonic() + 5.0
    while True:
        try:
            return Coordinator(cluster.num_nodes, cluster._region_bytes,
                               port=port, server=server)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


class TestCoordinatorRestart:
    def test_kill_and_restart_mid_run(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "8")
        with Cluster(nodes=2) as cluster:
            handle = cluster.create(Counter, node=1)
            assert cluster.call(handle, "add", 1) == 1

            old = cluster._coordinator
            port = old.address[1]
            old.close()

            # In-flight control-plane traffic during the outage is a
            # typed failure, never a hang — and it fails fast: the
            # client's _connected gate refuses the request instead of
            # letting it burn its full deadline.
            t0 = time.monotonic()
            with pytest.raises(ClusterError):
                cluster._client.query_region(1 << 40)
            assert time.monotonic() - t0 < 2.0

            successor = _start_successor(cluster, port, old.server)
            cluster._coordinator = successor

            # Every node (driver + 1 worker) re-registers with the
            # successor and resumes heartbeats.
            assert _await(lambda: len(successor._registered)
                          >= cluster.num_nodes, 20.0), "re-register"
            assert _await(lambda: len(successor._last_heard)
                          >= cluster.num_nodes, 15.0), "heartbeats"
            assert cluster._client.stats["coordinator_reconnects"] >= 1

            # The data plane survived the outage, and fresh creations
            # (which need coordinator grants) work against the
            # successor's adopted address-space state.
            assert cluster.call(handle, "add", 1) == 2
            fresh = cluster.create(Counter, node=1)
            assert cluster.call(fresh, "add", 5) == 5

    def test_connected_gate_recovers(self, monkeypatch):
        """The gate that fails requests fast while disconnected must
        reopen after the reconnect — not wedge the client forever."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "8")
        with Cluster(nodes=2) as cluster:
            old = cluster._coordinator
            port = old.address[1]
            old.close()
            # Until the client's reader sees the loss, the gate is still
            # open from before: waiting for it to reopen would pass at once.
            assert _await(lambda: not cluster._client._connected.is_set(),
                          10.0), "gate never closed"
            with pytest.raises(ClusterError):
                cluster._client.query_region(0)
            successor = _start_successor(cluster, port, old.server)
            cluster._coordinator = successor
            assert _await(lambda: cluster._client._connected.is_set(),
                          20.0), "gate never reopened"
            # A normal control-plane request goes through again.
            assert cluster._client.query_region(1 << 40) is None
