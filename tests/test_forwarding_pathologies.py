"""Kernel-level forwarding-chain pathologies (paper section 3.3).

``tests/test_forwarding.py`` covers the pure ``resolve()`` helper; these
tests drive the *kernel's* chase machinery — thread migration and
control-message routing — through chains that the normal move protocol
would never produce but crash recovery can: over-long chains, cycles
whose links were shed by a restart, and objects that are resident
nowhere.  The tests build the pathologies by mutating descriptor tables
directly from inside a running program (``ctx.cluster``), exactly the
states a crashed-and-restarted node leaves behind.
"""

import pytest

from repro.errors import ObjectNotFoundError
from repro.faults import FaultPlan, NodeCrash
from repro.sim import AmberProgram, ClusterConfig, SimObject
from repro.sim.syscalls import Fork, Invoke, Join, Locate, MoveTo, New, Sleep
from tests.helpers import Cell, run


def build_chain(cluster, vaddr, chain):
    """Point each node of ``chain`` at its successor, regardless of what
    the move protocol had recorded there."""
    for here, there in zip(chain, chain[1:]):
        cluster.node(here).descriptors.update_hint(vaddr, there)


class TestLongChains:
    def test_long_chain_resolves_and_compresses(self):
        """A chain touching every node still resolves, and the chase
        compresses it: the next request from the origin is direct."""
        def main(ctx):
            cell = yield New(Cell, 1)
            yield MoveTo(cell, 5)
            # Rebuild the worst-case chain 0 -> 1 -> 2 -> 3 -> 4 -> 5.
            build_chain(ctx.cluster, cell.vaddr, [0, 1, 2, 3, 4, 5])
            value = yield Invoke(cell, "add", 10)
            return value, ctx.cluster.node(0).descriptors.where[cell.vaddr]

        value, cached = run(main, nodes=6, cpus=1).value
        assert value == 11
        assert cached == 5      # path compression: 0 now points straight

    def test_chase_beyond_hop_cap_raises(self, monkeypatch):
        """A chain longer than MAX_CHASE_HOPS is a pathology, not a
        hang: the chase stops with ObjectNotFoundError."""
        monkeypatch.setattr("repro.sim.mobility.MAX_CHASE_HOPS", 3)

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 5)
            build_chain(ctx.cluster, cell.vaddr, [0, 1, 2, 3, 4, 5])
            yield Invoke(cell, "get")

        with pytest.raises(ObjectNotFoundError, match="thread main .*hops"):
            run(main, nodes=6, cpus=1)

    def test_control_chase_beyond_hop_cap_raises(self, monkeypatch):
        """The same cap stops a control message: Locate walks the one
        chase a migrating thread does."""
        monkeypatch.setattr("repro.sim.mobility.MAX_CHASE_HOPS", 3)

        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 5)
            build_chain(ctx.cluster, cell.vaddr, [0, 1, 2, 3, 4, 5])
            yield Locate(cell)

        with pytest.raises(ObjectNotFoundError,
                           match="control message .*hops"):
            run(main, nodes=6, cpus=1)


class TestCycles:
    """A restart sheds forwarding links; hints upstream of the shed link
    can then form a cycle (e.g. home -> restarted node -> home).  The
    chase must detect the loop and repair the chain by broadcast."""

    def test_thread_chase_cycle_repaired_by_broadcast(self):
        def main(ctx):
            cell = yield New(Cell, 40)          # homed on node 0
            yield MoveTo(cell, 2)               # actually lives on 2
            # Cycle that excludes the true holder: 0 <-> 1.
            ctx.cluster.node(0).descriptors.update_hint(cell.vaddr, 1)
            ctx.cluster.node(1).descriptors.update_hint(cell.vaddr, 0)
            value = yield Invoke(cell, "add", 2)
            return value

        result = run(main, nodes=3, cpus=1)
        assert result.value == 42
        metrics = result.cluster.metrics
        assert metrics.counter("location_broadcasts").value >= 1
        assert metrics.counter("hints_repaired").value >= 1

    def test_cycle_repair_fixes_home_hint(self):
        """After the broadcast repair, the home node points at the true
        holder again — the next chase is direct, no second broadcast."""
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 2)
            ctx.cluster.node(0).descriptors.update_hint(cell.vaddr, 1)
            ctx.cluster.node(1).descriptors.update_hint(cell.vaddr, 0)
            yield Invoke(cell, "get")
            return ctx.cluster.node(0).descriptors.where[cell.vaddr]

        result = run(main, nodes=3, cpus=1)
        assert result.value == 2
        assert result.cluster.metrics.counter(
            "location_broadcasts").value == 1

    def test_control_route_cycle_repaired_by_broadcast(self):
        """Locate uses the control-message router, which detects and
        repairs cycles the same way thread migration does."""
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 2)
            ctx.cluster.node(0).descriptors.update_hint(cell.vaddr, 1)
            ctx.cluster.node(1).descriptors.update_hint(cell.vaddr, 0)
            where = yield Locate(cell)
            return where

        result = run(main, nodes=3, cpus=1)
        assert result.value == 2
        assert result.cluster.metrics.counter(
            "location_broadcasts").value >= 1

    def test_object_resident_nowhere_is_declared_lost(self):
        """If the broadcast finds no holder anywhere (the object's heap
        died with an unrecovered node), the chase ends in
        ObjectNotFoundError instead of probing forever."""
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 2)
            ctx.cluster.node(0).descriptors.update_hint(cell.vaddr, 1)
            ctx.cluster.node(1).descriptors.update_hint(cell.vaddr, 0)
            ctx.cluster.node(2).descriptors.clear(cell.vaddr)  # vanished
            yield Invoke(cell, "get")

        with pytest.raises(ObjectNotFoundError, match="lost"):
            run(main, nodes=3, cpus=1)


class Mover(SimObject):
    def shove(self, ctx, cell, dest):
        yield MoveTo(cell, dest)


class Finder(SimObject):
    def find(self, ctx, cell):
        return (yield Locate(cell))


class TestMoveInFlight:
    """From marking the group away until the destination acknowledges,
    a move's source holds the chases that reach it: none bounces off a
    destination that does not hold the object yet, so a fault-free run
    never mistakes an object in transit for a cyclic chain."""

    def test_chases_wait_at_the_source_instead_of_broadcasting(self):
        def main(ctx):
            cell = yield New(Cell, 40)          # homed on node 0
            yield MoveTo(cell, 1)
            # The destination's stale hint points back at the source.
            ctx.cluster.node(2).descriptors.update_hint(cell.vaddr, 1)
            mover = yield New(Mover, on_node=1)
            finder = yield New(Finder)
            shove = yield Fork(mover, "shove", cell, 2)
            # Both chases reach node 1 after it marks the cell away and
            # before node 2 has installed it.
            yield Sleep(2_700.0)
            finding = yield Fork(finder, "find", cell)
            value = yield Invoke(cell, "add", 2)
            yield Join(shove)
            return value, (yield Join(finding))

        result = run(main, nodes=3, cpus=1)
        assert result.value == (42, 2)
        metrics = result.cluster.metrics
        assert metrics.counter("location_broadcasts").value == 0
        assert metrics.counter("home_probes").value == 0
        # Each chase took one forwarding hop: node 1 straight to node 2.
        assert result.cluster.stats.forwarding_hops_followed == 2

    @pytest.mark.parametrize("crash_us", [20_000.0, 22_000.0, 24_000.0])
    def test_source_that_restarts_releases_what_it_held(self, crash_us):
        """Node 1 crashes while it holds main's chase and restarts 5 ms
        later; the retried acknowledgement releases the chase.  The one
        broadcast is the restart's own cycle: node 1 shed its link."""
        def main(ctx):
            cell = yield New(Cell, 40)          # homed on node 0
            yield MoveTo(cell, 1)
            mover = yield New(Mover, on_node=1)
            shove = yield Fork(mover, "shove", cell, 2)
            yield Sleep(6_000.0)
            value = yield Invoke(cell, "add", 2)
            yield Join(shove)
            return value

        plan = FaultPlan(seed=0, crashes=(NodeCrash(
            node=1, at_us=crash_us, restart_us=crash_us + 5_000.0),))
        result = AmberProgram(ClusterConfig(nodes=3, cpus_per_node=2),
                              faults=plan).run(main)
        assert result.value == 42
        assert result.cluster.metrics.counter(
            "location_broadcasts").value == 1


class TestHomeFallback:
    def test_unknown_at_home_raises(self):
        """A chase that reaches the home node and finds no descriptor
        there fails loudly: the home must always know."""
        def main(ctx):
            cell = yield New(Cell)               # homed on node 0
            yield MoveTo(cell, 2)
            # Sever the home's knowledge: the very first hop (main runs
            # on node 0, the home) has nothing to follow.
            ctx.cluster.node(0).descriptors.clear(cell.vaddr)
            yield Invoke(cell, "get")

        with pytest.raises(ObjectNotFoundError, match="home"):
            run(main, nodes=3, cpus=1)

    def test_node_without_hint_routes_via_home(self):
        """The normal fallback: a node that has never seen the object
        asks the home node and follows its chain."""
        def main(ctx):
            cell = yield New(Cell, 7, on_node=1)   # homed on node 1
            yield MoveTo(cell, 2)
            # Forget whatever the move taught node 0: its next request
            # must route via the home node (1), whose forwarding entry
            # leads to the holder (2).
            ctx.cluster.node(0).descriptors.clear(cell.vaddr)
            value = yield Invoke(cell, "where")
            return value

        assert run(main, nodes=3, cpus=1).value == 2


class TestHintChangesDuringForwardingDelay:
    """Forwarding costs ``forward_hop_us`` at the intermediate node.  A
    migrating thread's next hop is the hint read on arrival; a control
    message's is the hint in force once the cost has elapsed.  The one
    chase keeps both (the mobility benchmark's counts depend on each)."""

    @staticmethod
    def _flip_hint_once_node1_forwards(cluster, vaddr):
        node1 = cluster.node(1)

        def watch():
            if node1.stats.forward_hops:
                node1.descriptors.update_hint(vaddr, 3)   # the holder
            else:
                cluster.sim.schedule_us(10.0, watch)

        watch()

    def _hops(self, request):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 3)
            build_chain(ctx.cluster, cell.vaddr, [0, 1, 2, 3])
            self._flip_hint_once_node1_forwards(ctx.cluster, cell.vaddr)
            yield request(cell)
            return ctx.cluster.stats.forwarding_hops_followed

        return run(main, nodes=4, cpus=1).value

    def test_thread_takes_the_hop_it_read_on_arrival(self):
        assert self._hops(lambda cell: Invoke(cell, "get")) == 2  # 1, 2

    def test_control_message_takes_the_hop_in_force_after_the_cost(self):
        assert self._hops(Locate) == 1                            # 1 only
