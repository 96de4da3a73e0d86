"""Tests for the DSM's alternative ownership-management algorithms
(Li & Hudak: centralized, fixed distributed, dynamic distributed).

The dynamic scheme chases *probOwner* hints to the owner itself — the
page-world twin of Amber's forwarding addresses, including the path
compression.
"""

import pytest

from repro.apps.sor import SorProblem
from repro.apps.sor.ivy_sor import run_ivy_sor
from repro.dsm.machine import IvyCluster
from repro.dsm.ops import Compute, Load, Read, Store, TestAndSet, Write
from repro.dsm.pages import PageAccess
from repro.errors import SimulationError

MODES = ("fixed", "centralized", "dynamic")


def locked_counter(cluster, rounds, lock_addr=0, data_addr=5000):
    for _ in range(rounds):
        while True:
            held = yield TestAndSet(lock_addr)
            if not held:
                break
            yield Compute(50.0)
        value = yield Load(data_addr)
        yield Compute(20.0)
        yield Store(data_addr, (value or 0) + 1)
        yield Store(lock_addr, False)


class TestManagerModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_coherent_counting(self, mode):
        cluster = IvyCluster(3, 2, manager_mode=mode)
        for node in range(3):
            cluster.spawn(node, locked_counter, 10)
        cluster.run()
        assert cluster.memory[5000] == 30

    @pytest.mark.parametrize("mode", MODES)
    def test_single_writer_invariant(self, mode):
        def writer(cluster, page):
            yield Write(page * cluster.costs.page_bytes, 8)

        cluster = IvyCluster(3, 1, manager_mode=mode)
        for node in range(3):
            cluster.spawn(node, writer, 2)   # all write page 2
        cluster.run()
        writers = sum(
            1 for node in cluster.nodes
            if node.pages.access(2) is PageAccess.WRITE)
        assert writers == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_owner_cannot_write_a_page_while_it_is_packed(self, mode):
        """A read fault downgrades the owner on arrival, then packs: a
        writer on the owner's node faults instead of changing a page
        whose copy is already being made."""
        def writer(cluster):
            written_at = []
            for _ in range(200):
                yield Write(0, 8)
                written_at.append(cluster.elapsed_us)
                yield Compute(10.0)
            return written_at

        def reader(cluster):
            yield Compute(500.0)
            yield Read(0, 8)

        cluster = IvyCluster(2, 2, manager_mode=mode)
        shipped_at = []
        send = cluster.network.send

        def spy(src, dst, nbytes, deliver):
            if nbytes == cluster.costs.page_bytes:
                shipped_at.append(cluster.elapsed_us)
            send(src, dst, nbytes, deliver)

        cluster.network.send = spy
        owner_side = cluster.spawn(0, writer)
        cluster.spawn(1, reader)
        cluster.run()
        (shipped,) = shipped_at
        # A write checked just before the downgrade completes 1 us on.
        packing_from = shipped - cluster.costs.page_pack_us + 2.0
        assert [t for t in owner_side.result
                if packing_from < t <= shipped] == []
        assert cluster.stats.write_faults == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            IvyCluster(2, 1, manager_mode="quantum")

    def test_centralized_manages_everything_at_node_0(self):
        cluster = IvyCluster(4, 1, manager_mode="centralized")
        assert [cluster.manager_of(page) for page in (0, 5, 13)] == \
            [0, 0, 0]

    def test_dynamic_forwards_along_prob_owner(self):
        """First fault from a far node chases hints; hints then point
        straight at the owner."""
        def toucher(cluster):
            yield Read(0, 8)

        cluster = IvyCluster(4, 1, manager_mode="dynamic")
        cluster.spawn(3, toucher)
        cluster.run()
        # Node 3 now knows the owner directly.
        assert cluster.nodes[3].prob_owner.get(0, 0) == 0

    def test_dynamic_ownership_travels(self):
        def writer(cluster, delay):
            yield Compute(delay)
            yield Write(0, 8)

        cluster = IvyCluster(3, 1, manager_mode="dynamic")
        cluster.spawn(1, writer, 1_000)
        cluster.spawn(2, writer, 50_000)
        cluster.run()
        # The last writer owns the page and holds its record.
        assert 0 in cluster.nodes[2].owned
        assert cluster.nodes[2].owned[0].owner == 2
        assert 0 not in cluster.nodes[1].owned

    def test_dynamic_no_manager_hop_is_cheaper_under_contention(self):
        """The owner services requests directly: lock ping-pong between
        two nodes costs less than with a manager in the loop."""
        def run_mode(mode):
            cluster = IvyCluster(3, 2, manager_mode=mode)
            for node in range(3):
                cluster.spawn(node, locked_counter, 10)
            cluster.run()
            return cluster.elapsed_us

        assert run_mode("dynamic") < run_mode("fixed")

    @pytest.mark.parametrize("mode", MODES)
    def test_sor_runs_under_every_mode(self, mode):
        problem = SorProblem(rows=24, cols=96, iterations=4)
        result = run_ivy_sor(problem, nodes=2, cpus_per_node=2,
                             manager_mode=mode)
        assert result.iterations_run == 4
        assert result.speedup > 1.0

    def test_modes_agree_on_fault_counts_for_simple_patterns(self):
        """Protocol choice changes routing, not what faults: a fixed
        access pattern produces identical fault counts under all three."""
        def reader(cluster):
            yield Read(0, 8)
            yield Write(4096, 8)

        counts = []
        for mode in MODES:
            cluster = IvyCluster(2, 1, manager_mode=mode)
            cluster.spawn(1, reader)
            cluster.run()
            counts.append((cluster.stats.read_faults,
                           cluster.stats.write_faults))
        assert counts[0] == counts[1] == counts[2]
