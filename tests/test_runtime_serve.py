"""The live kernel's one serve path: table dispatch, then duplicate
peek -> resident-or-forward -> claim -> hints -> body -> reply."""

import logging
import sys
import threading
import time
import traceback

import pytest

from repro.core.address_space import AddressSpaceServer, Region
from repro.errors import (
    AddressSpaceError,
    AmberError,
    AttachmentError,
    NodeFailure,
    RemoteInvocationError,
    RuntimeTransportError,
)
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import AmberObject, Cluster, current_node
from repro.runtime import messages as m
from repro.runtime import objects as runtime_objects
from repro.runtime.frames import _encode
from repro.runtime.kernel import NodeKernel
from repro.runtime.objects import process_kernel
from tests.live_helpers import Mover, move_behind_the_drivers_back, next_hop


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

    def nap(self, seconds):
        time.sleep(seconds)
        return self.bump()

    def suspects(self):
        """The peers this node's failure detector suspects."""
        return sorted(process_kernel()._suspected_peers())

    def where(self):
        return current_node()


class Latch(Tally):
    """Cannot leave the node it was created on: a lock does not pickle."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


def _moved_behind_the_drivers_back(cluster):
    """An object at node 2 that node 0 still looks for at its home,
    node 1 — a third party moved it: the driver's next request is
    forwarded exactly once."""
    tally = cluster.create(Tally, node=1)
    move_behind_the_drivers_back(cluster, tally, 2)
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
        assert len(requests) >= 6
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
            # The origin has read its hint off the reply, which came
            # from node 2, by the time the request returns; node 1, the
            # last forwarder, sent the request there and is told nothing.
            assert _counters(cluster) == {
                "hints": [before["hints"][0] + 1, before["hints"][1]],
                "forwards": before["forwards"] + 1}
            time.sleep(0.2)
            assert _counters(cluster)["hints"][1] == before["hints"][1]
            # Hinted: the next request goes straight to node 2.
            assert cluster.locate(tally) == 2
            assert _counters(cluster)["forwards"] == \
                before["forwards"] + 1

    def test_forwarded_move_and_control_send_none(self, cluster):
        """Nothing is read off their replies and nothing is sent back
        along the chase; a move that succeeded hints its mover itself."""
        for request, own in ((lambda t: cluster.move(t, 0), 1),
                             (lambda t: cluster.set_immutable(t), 0)):
            tally = _moved_behind_the_drivers_back(cluster)
            before = _counters(cluster)
            request(tally)
            time.sleep(0.2)
            assert _counters(cluster) == {
                "hints": [before["hints"][0] + own, before["hints"][1]],
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
        message = m.InvokeMsg(next(kernel.request_ids), 0, tally.vaddr,
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


def _totals(cluster):
    """``node_stats`` summed over every node."""
    total = {}
    for node in range(cluster.num_nodes):
        for key, value in cluster.node_stats(node).items():
            total[key] = total.get(key, 0) + value
    return total


def _pool_submits(cluster, node):
    stats = cluster.node_stats(node)
    return stats["workers_started"] + stats["worker_handoffs"]


def _per_op(cluster, ops, run):
    """``node_stats`` totals that ``run()`` adds, per op.  Reading the
    stats sends frames of its own: two reads back to back price one, so
    it can be taken out again."""
    first = _totals(cluster)
    base = _totals(cluster)
    run()
    after = _totals(cluster)
    return after, {key: (after[key] - base[key] - (base[key] - first[key]))
                   / ops for key in after}


class TestLivePathCounts:
    """What one move+call pair costs, counted by the nodes themselves:
    no clock.  As in AmberBench's ``live_mobility``, the mover calls
    next, and the move's reply has told it where the object went."""

    PAIRS = 200
    CHASES = 20

    def test_a_move_and_call_pair_costs_exactly(self):
        with Cluster(nodes=3) as cluster:
            tally = cluster.create(Tally, node=1)
            dest = 1

            def pairs(count):
                nonlocal dest
                for _ in range(count):
                    dest = 3 - dest
                    cluster.move(tally, dest)
                    assert cluster.call(tally, "bump") > 0

            pairs(4)        # every connection dialled, both ways round
            after, per_pair = _per_op(cluster, self.PAIRS,
                                      lambda: pairs(self.PAIRS))
            # Move: request, install, its ack, the reply; the call goes
            # straight to the object, hinted by the mover itself.
            assert per_pair["transport_sends"] == 6
            assert per_pair["hints"] == 1
            assert per_pair["forwards"] == 0
            assert per_pair["moves_out"] == 1 and per_pair["moves_in"] == 1
            # One hand-off to a pool worker: the invocation itself.
            assert per_pair["workers_started"] \
                + per_pair["worker_handoffs"] == 1
            assert per_pair["invocations_executed"] == 1
            for quiet in ("resends", "dedup_replayed", "dedup_in_flight",
                          "transport_retries", "transport_reconnects",
                          "transport_dropped_frames", "circuit_opens"):
                assert after[quiet] == 0, quiet
            assert cluster.call(tally, "value") == 4 + self.PAIRS
            assert cluster.locate(tally) == dest

    def test_a_call_chased_after_a_third_party_move_costs_exactly(self):
        """Moved by a third party, the object is called at its previous
        node, which forwards the call: request, forward, reply."""
        with Cluster(nodes=3) as cluster:
            tallies = [cluster.create(Tally, node=1)
                       for _ in range(self.CHASES + 1)]
            for tally in tallies:
                move_behind_the_drivers_back(cluster, tally, 2)
            assert cluster.call(tallies.pop(), "bump") == 1    # warm-up

            def chases():
                for tally in tallies:
                    assert cluster.call(tally, "bump") == 1

            _, per_call = _per_op(cluster, self.CHASES, chases)
            assert per_call["transport_sends"] == 3
            assert per_call["forwards"] == 1
            assert per_call["hints"] == 1       # the reply's sender
            # The forward is a reader's; the invocation, a worker's.
            assert per_call["workers_started"] \
                + per_call["worker_handoffs"] == 1
            assert per_call["invocations_executed"] == 1

    def test_a_chain_hints_the_middle_by_frame_and_the_origin_by_reply(
            self):
        """Moved twice behind the caller: 0 -> 1 -> 2 -> 3.  Node 1 gets
        a LocationHint, the origin reads the reply's sender, node 2 —
        the last forwarder — already points at node 3."""
        with Cluster(nodes=4) as cluster:
            for request in (lambda t: cluster.call(t, "bump"),
                            lambda t: cluster.locate(t)):
                tally = cluster.create(Tally, node=1)
                move_behind_the_drivers_back(cluster, tally, 2)
                # Itself forwarded by node 1.
                move_behind_the_drivers_back(cluster, tally, 3)
                before = [cluster.node_stats(n) for n in range(4)]
                assert request(tally) in (1, 3)
                assert cluster.node_stats(0)["hints"] == \
                    before[0]["hints"] + 1
                _wait_for(lambda: cluster.node_stats(1)["hints"]
                          == before[1]["hints"] + 1)
                time.sleep(0.2)
                after = [cluster.node_stats(n) for n in range(4)]
                assert [a["hints"] - b["hints"]
                        for a, b in zip(after, before)] == [1, 1, 0, 0]
                assert [a["forwards"] - b["forwards"]
                        for a, b in zip(after, before)] == [0, 1, 1, 0]
                # Both hinted nodes now send straight to node 3.
                assert cluster.locate(tally) == 3
                cluster.move(tally, 1)      # driver -> 3, no forward
                assert [cluster.node_stats(n)["forwards"]
                        for n in range(4)] == \
                    [a["forwards"] for a in after]


class TestReaderServes:
    def test_a_slow_request_cannot_stall_the_frames_behind_it(
            self, cluster):
        """One connection, driver to node 1: an operation sleeping 1 s,
        then a locate, a move and a forwarded call behind it."""
        napper = cluster.create(Tally, node=1)
        located = cluster.create(Tally, node=1)
        moved = cluster.create(Tally, node=1)
        chased = _moved_behind_the_drivers_back(cluster)
        assert cluster.call(napper, "value") == 0
        forwards = cluster.node_stats(1)["forwards"]
        slow = cluster.fork(napper, "nap", 1.0)
        t0 = time.monotonic()
        assert cluster.locate(located) == 1
        cluster.move(moved, 2)
        assert cluster.call(chased, "bump") == 1
        assert time.monotonic() - t0 < 0.5
        assert slow.join(timeout=15) == 1
        assert time.monotonic() - t0 >= 0.9
        assert cluster.node_stats(1)["forwards"] == forwards + 1

    def test_reader_served_requests_cost_no_pool_worker(self, cluster):
        tally = cluster.create(Tally, node=1)
        other = cluster.create(Tally, node=1)
        chased = _moved_behind_the_drivers_back(cluster)
        assert cluster.call(tally, "bump") == 1
        cluster.move(other, 2)              # 1 -> 2 dialled
        cluster.move(other, 1)
        before = [_pool_submits(cluster, node) for node in (1, 2)]
        forwards = cluster.node_stats(1)["forwards"]
        assert cluster.locate(tally) == 1
        cluster.attach(tally, other)
        cluster.unattach(tally)
        cluster.move(tally, 2)
        cluster.node_stats(1)
        assert [_pool_submits(cluster, node) for node in (1, 2)] == before
        assert cluster.call(chased, "bump") == 1    # forwarded by node 1
        assert [_pool_submits(cluster, node) for node in (1, 2)] == \
            [before[0], before[1] + 1]
        assert cluster.node_stats(1)["forwards"] == forwards + 1
        assert cluster.call(tally, "bump") == 2     # moved with its state

    def test_a_move_that_must_drain_is_served_by_a_worker(self, cluster):
        tally = cluster.create(Tally, node=1)
        assert cluster.call(tally, "value") == 0
        before = _pool_submits(cluster, 1)
        slow = cluster.fork(tally, "nap", 0.6)
        _wait_for(lambda: cluster.node_stats(1)["invocations_executed"]
                  and _pool_submits(cluster, 1) == before + 1)
        t0 = time.monotonic()
        cluster.move(tally, 2)      # waits out the nap, on a worker
        assert time.monotonic() - t0 > 0.2
        assert slow.join(timeout=15) == 1
        # The nap and the drain: the reader claimed the move, found the
        # bind count held and handed it on — claimed once.
        assert _pool_submits(cluster, 1) == before + 2
        assert cluster.node_stats(1)["dedup_in_flight"] == 0
        assert cluster.locate(tally) == 2
        assert cluster.call(tally, "bump") == 2

    def test_an_install_never_acked_ends_the_move_in_the_deadline_verdict(
            self, cluster, monkeypatch):
        """The mover's answer is the continuation's: nobody waits in a
        request for the install, the resender fires its deadline."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.25")    # reply in 1 s
        kernel = cluster.kernel
        tally = cluster.create(Tally, node=0)
        mesh_post = kernel.mesh.post

        def post(node, message):
            if isinstance(message, m.InstallMsg):
                return False            # lost on the wire, every time
            return mesh_post(node, message)

        monkeypatch.setattr(kernel.mesh, "post", post)
        t0 = time.monotonic()
        entry = kernel.start(kernel.node_id, tally.vaddr, m.MoveMsg,
                             tally.vaddr, 1)
        time.sleep(0.3)
        # The install is out and unanswered, and no thread is parked
        # waiting for its reply.
        assert [type(pending.message) for pending
                in kernel._pending.values()] == [m.MoveMsg, m.InstallMsg]
        assert not any(
            "wait_reply" in (caller.f_code.co_name
                             for caller, _ in traceback.walk_stack(frame))
            for frame in sys._current_frames().values())
        with pytest.raises((TimeoutError, NodeFailure)) as caught:
            kernel.wait_reply(entry, timeout=10)
        assert "InstallMsg" in str(caught.value)
        assert 0.9 < time.monotonic() - t0 < 3.0
        assert kernel.stats["resends"] >= 2     # its ladder ran
        assert not kernel._pending


class TestTheMoverIsHinted:
    """A move's ``ok`` reply comes once the group is resident at the
    destination, so the mover hints it there and its next request goes
    straight to the object; a move that raises leaves the mover's
    descriptor as it was."""

    def test_the_drivers_next_call_is_not_forwarded(self, cluster):
        tally = cluster.create(Tally, node=1)
        cluster.move(tally, 2)
        assert next_hop(cluster.kernel, tally) == 2
        forwards = cluster.node_stats(1)["forwards"]
        assert cluster.call(tally, "bump") == 1
        assert cluster.node_stats(1)["forwards"] == forwards

    def test_a_move_inside_an_operation_hints_its_node(self, cluster):
        tally = cluster.create(Tally, node=0)
        mover = cluster.create(Mover, node=1)
        cluster.call(mover, "move", tally, 2)
        assert cluster.call(mover, "next_hop", tally) == 2
        forwards = cluster.node_stats(0)["forwards"]
        assert cluster.call(mover, "call", tally, "where") == 2
        assert cluster.node_stats(0)["forwards"] == forwards

    def test_a_refused_move_hints_nothing(self, cluster):
        latch = cluster.create(Latch, node=1)
        assert next_hop(cluster.kernel, latch) == 1
        with pytest.raises(TypeError, match="pickle"):
            cluster.move(latch, 2)
        assert next_hop(cluster.kernel, latch) == 1

    def test_an_install_never_acked_hints_nothing(self, cluster,
                                                  monkeypatch):
        """The source is the driver, whose installs are lost; the mover
        on node 1 gets the install's deadline verdict."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.25")    # reply in 1 s
        kernel = cluster.kernel
        tally = cluster.create(Tally, node=0)
        mover = cluster.create(Mover, node=1)
        assert cluster.call(mover, "next_hop", tally) == 0
        mesh_post = kernel.mesh.post

        def post(node, message):
            if isinstance(message, m.InstallMsg):
                return False            # lost on the wire, every time
            return mesh_post(node, message)

        monkeypatch.setattr(kernel.mesh, "post", post)
        move = cluster.fork(mover, "move", tally, 2)
        with pytest.raises((TimeoutError, NodeFailure), match="InstallMsg"):
            move.join(timeout=10)
        assert cluster.call(mover, "next_hop", tally) == 0

    def test_an_immutable_move_hints_the_copy_at_the_destination(
            self, cluster):
        table = cluster.create(Tally, node=1)
        cluster.set_immutable(table)
        cluster.move(table, 2)
        assert next_hop(cluster.kernel, table) == 2
        assert cluster.call(table, "where") == 2
        mover = cluster.create(Mover, node=1)
        assert cluster.call(mover, "call", table, "where") == 1


class Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class Ledger(AmberObject):
    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += n
        return self.total

    def unpicklable_result(self):
        self.total += 1
        return Unpicklable()

    def unpicklable_error(self):
        self.total += 1
        raise KeyError(Unpicklable())

    def big_result(self, size):
        self.total += 1
        return b"x" * size


class _Wire:
    """In place of a node's mesh: frames every message as the mesh does
    and keeps it.  ``refuse`` posts fail as to an unknown peer, then
    ``fail`` writes fail as a batch that exhausted its retries."""

    def __init__(self):
        self.frames = []
        self.refuse = self.fail = 0

    def post(self, node, message):
        if self.refuse:
            self.refuse -= 1
            raise RuntimeTransportError(f"no address for node {node}")
        _encode(message)
        self.frames.append(message)
        return True

    def flush(self, node):
        if self.fail:
            self.fail -= 1
            raise RuntimeTransportError(f"frame to node {node} dropped")

    def send(self, node, message):
        self.post(node, message)
        self.flush(node)


@pytest.fixture
def lone_kernel(monkeypatch):
    """Node 1's kernel alone in this process, its mesh a :class:`_Wire`,
    one ``Ledger`` resident; requests are dispatched by hand."""
    monkeypatch.setattr(runtime_objects, "_process_kernel",
                        runtime_objects._process_kernel)
    kernel = NodeKernel(1, AddressSpaceServer())
    kernel.mesh.close()
    kernel.mesh = _Wire()
    try:
        yield kernel, kernel.table.create(Ledger, (), {})
    finally:
        kernel._resender_stop.set()
        kernel._workers.close()


class TestAnswers:
    """One served request, one answer in the reply cache: a duplicate
    gets what the first copy got, and the body runs once."""

    def _serve_twice(self, kernel, vaddr, method, *args):
        message = m.InvokeMsg(7, 0, vaddr, method, args, {})
        kernel._dispatch(message)
        kernel._dispatch(message)          # the origin's re-send
        assert kernel.stats["invocations_executed"] == 1
        assert kernel.stats["dedup_replayed"] == 1
        return kernel.mesh.frames

    @pytest.mark.parametrize("lost", ["refuse", "fail"])
    def test_an_answer_that_was_not_delivered_is_replayed_as_it_was(
            self, lone_kernel, lost):
        kernel, vaddr = lone_kernel
        setattr(kernel.mesh, lost, 1)
        answers = self._serve_twice(kernel, vaddr, "add", 5)
        assert answers[-1] == m.ResultMsg(7, True, 5)
        assert answers == [m.ResultMsg(7, True, 5)] * len(answers)

    @pytest.mark.parametrize("method, args, named", [
        ("unpicklable_result", (), "result"),
        ("unpicklable_error", (), "KeyError"),
        ("big_result", (1 << 16,), "result"),
    ])
    def test_an_outcome_that_cannot_be_framed_gets_a_stand_in(
            self, lone_kernel, monkeypatch, method, args, named):
        monkeypatch.setattr("repro.runtime.frames.MAX_FRAME_BYTES", 1 << 15)
        kernel, vaddr = lone_kernel
        answers = self._serve_twice(kernel, vaddr, method, *args)
        assert len(answers) == 2 and answers[0] == answers[1]
        request_id, ok, value, error = answers[0]
        assert (request_id, ok, value) == (7, False, None)
        assert isinstance(error, RemoteInvocationError)
        assert str(error).startswith(named)


class TestRegionCache:
    def test_a_conflicting_grant_for_a_known_base_is_refused(
            self, lone_kernel):
        """A second, different grant of a region base the node knows
        is a typed error, not a silent change of the home node."""
        kernel, vaddr = lone_kernel
        table = kernel.table
        granted = table._heap._regions[-1]
        assert table.home_node(vaddr) == 1
        with pytest.raises(AddressSpaceError, match="conflicting"):
            table._heap._on_grant(Region(granted.base, granted.size, 2))
        assert table.home_node(vaddr) == 1


class TestRefusedMove:
    """An install that was never accepted for transmission leaves the
    group where it was: objects, descriptors, attachment edges."""

    def test_open_circuit_to_the_destination(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")
        with Cluster(nodes=3) as cluster:
            tally = cluster.create(Tally, node=1)
            rider = cluster.create(Tally, node=1)
            cluster.attach(rider, tally)
            assert cluster.call(tally, "bump") == 1
            cluster.kill_node(2)
            _wait_for(lambda: 2 in cluster.call(tally, "suspects"), 15)
            for _ in range(2):
                with pytest.raises(NodeFailure):
                    cluster.move(tally, 2)
            assert cluster.call(tally, "bump") == 2
            assert cluster.call(rider, "bump") == 1
            assert cluster.locate(tally) == 1 == cluster.locate(rider)
            assert cluster.node_stats(1)["moves_out"] == 0
            cluster.move(rider, 0)          # still one group
            assert cluster.locate(tally) == 0 == cluster.locate(rider)
            assert cluster.call(tally, "bump") == 3

    def test_a_group_that_does_not_pickle(self, cluster):
        latch = cluster.create(Latch, node=1)
        assert cluster.call(latch, "bump") == 1
        with pytest.raises(TypeError, match="pickle"):
            cluster.move(latch, 2)
        assert cluster.call(latch, "bump") == 2
        assert cluster.locate(latch) == 1
        tally = cluster.create(Tally, node=1)
        cluster.attach(tally, latch)
        with pytest.raises(TypeError, match="pickle"):
            cluster.move(tally, 2)
        assert cluster.call(tally, "bump") == 1
        assert cluster.locate(tally) == 1 == cluster.locate(latch)
        with pytest.raises(TypeError, match="pickle"):
            cluster.move(latch, 0)          # drags the tally along
        cluster.unattach(tally)
        cluster.move(tally, 2)
        assert cluster.locate(tally) == 2 and cluster.locate(latch) == 1

    def test_unknown_destination(self, cluster):
        tally = cluster.create(Tally, node=1)
        with pytest.raises(RuntimeTransportError, match="no address"):
            cluster.kernel.move(tally.vaddr, 7)  # past Cluster's check
        assert cluster.call(tally, "bump") == 1
        assert cluster.locate(tally) == 1
