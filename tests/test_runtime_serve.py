"""The live kernel's one serve path: table dispatch, then duplicate
peek -> resident-or-forward -> claim -> hints -> body -> reply."""

import logging
import time

import pytest

from repro.errors import AmberError, AttachmentError
from repro.runtime import AmberObject, Cluster
from repro.runtime import messages as m
from repro.runtime.kernel import NodeKernel


class Tally(AmberObject):
    def __init__(self, broken=False):
        if broken:
            raise ValueError("broken constructor")
        self.bumps = 0

    def bump(self):
        self.bumps += 1
        return self.bumps

    def value(self):
        return self.bumps

    def fail(self):
        raise KeyError("no such thing")


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


def _moved_behind_the_drivers_back(cluster):
    """An object at node 2 that node 0 still looks for at its home,
    node 1: the driver's next request is forwarded exactly once."""
    tally = cluster.create(Tally, node=1)
    cluster.move(tally, 2)
    return tally


def _counters(cluster):
    return {"hints": [cluster.node_stats(n)["hints"] for n in (0, 1)],
            "forwards": cluster.node_stats(1)["forwards"]}


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.02)


class TestDispatchTable:
    def test_every_request_message_has_a_handler(self):
        requests = [cls for cls in m.KINDS
                    if {"request_id", "reply_to"} <= set(cls._fields)]
        assert len(requests) >= 7
        assert [cls for cls in requests
                if cls not in NodeKernel._HANDLERS] == []

    def test_unknown_message_is_dropped(self, cluster, caplog):
        kernel = cluster.kernel
        sends = kernel.mesh.stats["sends"]
        with caplog.at_level(logging.ERROR, logger="repro.runtime.kernel"):
            kernel._dispatch(m.Shutdown("not a kernel message"))
            kernel._dispatch(object())
        assert caplog.records == []
        assert kernel.mesh.stats["sends"] == sends


class TestForwardedRequests:
    def test_forwarded_invoke_and_locate_send_hints(self, cluster):
        for request in (lambda t: cluster.call(t, "bump"),
                        lambda t: cluster.locate(t)):
            tally = _moved_behind_the_drivers_back(cluster)
            before = _counters(cluster)
            assert request(tally) in (1, 2)    # bumps == 1 / at node 2
            # One hint for each node of the chase path, origin included.
            _wait_for(lambda: _counters(cluster) == {
                "hints": [n + 1 for n in before["hints"]],
                "forwards": before["forwards"] + 1})
            # Hinted: the next request goes straight to node 2.
            assert cluster.locate(tally) == 2
            assert _counters(cluster)["forwards"] == \
                before["forwards"] + 1

    def test_forwarded_move_and_control_send_none(self, cluster):
        for request in (lambda t: cluster.move(t, 0),
                        lambda t: cluster.set_immutable(t)):
            tally = _moved_behind_the_drivers_back(cluster)
            before = _counters(cluster)
            request(tally)
            time.sleep(0.2)
            assert _counters(cluster) == {
                "hints": before["hints"],
                "forwards": before["forwards"] + 1}


class TestBodies:
    def test_raising_body_yields_the_typed_remote_error(self, cluster):
        tally = cluster.create(Tally, node=1)
        with pytest.raises(KeyError):
            cluster.call(tally, "fail")
        with pytest.raises(AmberError):
            cluster.call(tally, "no_such_operation")
        with pytest.raises(AttachmentError):
            cluster.unattach(tally)
        with pytest.raises(ValueError):
            cluster.create(Tally, True, node=1)
        assert cluster.call(tally, "bump") == 1     # node 1 is unharmed


class TestPeekBeforeRoute:
    def test_answered_request_is_replayed_after_the_object_left(
            self, cluster):
        """A re-sent twin reaching the node that already answered it
        gets the cached reply — not a forward to the object's new node,
        where it would execute a second time."""
        tally = cluster.create(Tally, node=1)
        kernel = cluster.kernel
        message = m.InvokeMsg(next(kernel._request_ids), 0, tally.vaddr,
                              "bump", (), {}, trace=(0,))
        kernel.mesh.send(1, message)
        _wait_for(lambda: cluster.call(tally, "value") == 1)
        cluster.move(tally, 2)
        before = cluster.node_stats(1)
        kernel.mesh.send(1, message)
        _wait_for(lambda: cluster.node_stats(1)["dedup_replayed"]
                  == before["dedup_replayed"] + 1)
        after = cluster.node_stats(1)
        assert after["forwards"] == before["forwards"]
        assert cluster.call(tally, "value") == 1
