"""Live-runtime tests for forwarding chains, path caching, and the
address-space coordinator."""

import sys
import threading
import time

import pytest

from repro.core.address_space import DEFAULT_REGION_BYTES
from repro.errors import NodeFailure, ObjectNotFoundError
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import AmberObject, Cluster, current_node
from repro.runtime import messages as m
from repro.runtime.objtable import ObjectTable
from tests.live_helpers import Mover, move_behind_the_drivers_back


class Token(AmberObject):
    def __init__(self, tag=0):
        self.tag = tag

    def ping(self):
        return (self.tag, current_node())


class Prober(AmberObject):
    def probe(self, target):
        return target.ping()


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=4) as c:
        yield c


def _moved_twice_behind_the_drivers_back(cluster, tag):
    """A token at node 3 that node 0 still looks for at its home, node 1:
    moved 1 -> 2 -> 3 by third parties (a move hints its mover)."""
    token = cluster.create(Token, tag, node=1)
    token.ping()                        # node 0 learns nothing new
    move_behind_the_drivers_back(cluster, token, 2)
    move_behind_the_drivers_back(cluster, token, 3)
    return token


def _forwards(cluster):
    return [cluster.node_stats(node)["forwards"] for node in (1, 2)]


class TestForwardingChains:
    def test_chain_walk_after_multiple_moves(self, cluster):
        token = _moved_twice_behind_the_drivers_back(cluster, 1)
        before = _forwards(cluster)
        # Node 0 believes node 1; 1 forwards to 2; 2 forwards to 3.
        assert token.ping() == (1, 3)
        assert _forwards(cluster) == [before[0] + 1, before[1] + 1]

    def test_location_hints_shorten_later_requests(self, cluster):
        token = _moved_twice_behind_the_drivers_back(cluster, 2)
        hints = cluster.node_stats(0)["hints"]
        before = _forwards(cluster)
        token.ping()                    # chases the chain, leaves hints
        # The first ping cost the chain, one hop at each of 1 and 2.
        assert _forwards(cluster) == [before[0] + 1, before[1] + 1]
        token.ping()                    # direct now
        assert _forwards(cluster) == [before[0] + 1, before[1] + 1]
        assert cluster.node_stats(0)["hints"] == hints + 1

    def test_uninitialized_descriptor_routes_via_home(self, cluster):
        # Created on node 2 (its home), moved away; node 3 has never
        # heard of it and must route via home.
        token = cluster.create(Token, 3, node=2)
        cluster.move(token, 0)
        prober = cluster.create(Prober, node=3)
        assert prober.probe(token) == (3, 0)


def _lose_installs(kernel, monkeypatch, every=False):
    """The driver's next install frame (``every``: each one) is lost on
    the wire; it is re-sent on silence, as after a chaos drop."""
    mesh_post = kernel.mesh.post
    lost = []

    def post(node, message):
        if isinstance(message, m.InstallMsg) and (every or not lost):
            lost.append(message)
            return False
        return mesh_post(node, message)

    monkeypatch.setattr(kernel.mesh, "post", post)
    return lost


def _move_from_the_driver(cluster, handle, dest):
    """Fork a move of ``handle`` off the driver's node by a
    :class:`Mover` on ``dest``, and return once its install is out."""
    mover = cluster.create(Mover, node=dest)
    move = cluster.fork(mover, "move", handle, dest)
    pending = cluster.kernel._pending
    _until(lambda: any(type(entry.message) is m.InstallMsg
                       and handle.vaddr in entry.message.objects
                       for entry in list(pending.values())))
    return move


def _until(predicate):
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.005)


def _all_forwards(cluster):
    return sum(cluster.node_stats(node)["forwards"] for node in range(4))


class TestTheSourceHoldsWhatCameBack:
    """While a move's install is out, its source holds a request that
    has been to the destination and came back, and sends it on when the
    install gets its outcome: a lost install costs a re-send, not a
    chase that cycles until it runs out of hops."""

    def test_a_call_answers_when_the_home_is_not_the_source(
            self, cluster, monkeypatch):
        token = cluster.create(Token, 4, node=1)
        cluster.move(token, 0)          # the home, node 1, forwards to 0
        forwards = _all_forwards(cluster)
        lost = _lose_installs(cluster.kernel, monkeypatch)
        move = _move_from_the_driver(cluster, token, 2)
        # 0 -> 2 -> 1 (home) -> 0, held there until the re-sent install
        # lands at 2.
        assert token.ping() == (4, 2)
        move.join(timeout=10)
        assert len(lost) == 1
        assert _all_forwards(cluster) - forwards < 10

    def test_a_call_answers_when_the_source_is_the_home(self, cluster,
                                                         monkeypatch):
        token = cluster.create(Token, 5, node=0)
        caller = cluster.create(Mover, node=1)
        forwards = _all_forwards(cluster)
        _lose_installs(cluster.kernel, monkeypatch)
        move = _move_from_the_driver(cluster, token, 2)
        # 1 -> 0 -> 2 -> 0, held there until the re-sent install lands.
        assert cluster.call(caller, "call", token, "ping") == (5, 2)
        move.join(timeout=10)
        assert _all_forwards(cluster) - forwards < 10

    def test_an_install_never_acked_ends_the_held_chase_typed(
            self, cluster, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.25")    # reply in 1 s
        token = cluster.create(Token, 6, node=0)
        _lose_installs(cluster.kernel, monkeypatch, every=True)
        move = _move_from_the_driver(cluster, token, 2)
        t0 = time.monotonic()
        ping = cluster.fork(token, "ping")      # 0 -> 2 -> 0, held
        _until(lambda: any(cluster.kernel.table._held.values()))
        with pytest.raises((TimeoutError, NodeFailure,
                            ObjectNotFoundError)):
            ping.join()
        assert time.monotonic() - t0 < 3.0
        with pytest.raises((TimeoutError, NodeFailure), match="InstallMsg"):
            move.join(timeout=10)
        assert not cluster.kernel.table._held

    def test_a_release_racing_holds_hands_back_each_held_one_once(self):
        """Every request :meth:`ObjectTable.hold` accepted is in what
        the release hands back, once, and a newer move's list stays."""
        table = ObjectTable(0, None, {})
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                table.adopt({64: Token(), 128: Token()}, ())
                _, _, older = table.take_group(64, 1, True)
                _, _, newer = table.take_group(128, 1, True)
                accepted = []

                def hold(me):
                    for i in range(300):
                        if table.hold(64, (me, i)):
                            accepted.append((me, i))

                holders = [threading.Thread(target=hold, args=(me,))
                           for me in range(4)]
                for holder in holders:
                    holder.start()
                released = list(table.release(older))
                for holder in holders:
                    holder.join(timeout=10)
                    assert not holder.is_alive()
                assert sorted(released) == sorted(accepted)
                assert table.hold(128, "late") and newer == ["late"]
                assert table.release(newer) == ["late"]
                assert not table._held
        finally:
            sys.setswitchinterval(switch)


class TestAddressSpace:
    def test_vaddrs_unique_across_nodes(self, cluster):
        handles = [cluster.create(Token, i, node=i % 4)
                   for i in range(40)]
        vaddrs = [handle.vaddr for handle in handles]
        assert len(set(vaddrs)) == len(vaddrs)

    def test_region_exhaustion_grants_more(self):
        """A tiny region forces the heap to go back to the coordinator
        for more address space (the paper's extension mechanism)."""
        with Cluster(nodes=2, region_bytes=1024) as small:
            handles = [small.create(Token, i, node=1)
                       for i in range(40)]   # 40 * 64B > 1024B
            values = [handle.ping() for handle in handles]
            assert values == [(i, 1) for i in range(40)]
