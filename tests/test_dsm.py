"""Tests for the Ivy-style DSM baseline (paper section 4 comparator).

Protocol invariants under test: single-writer/multi-reader page states,
write faults invalidate every other copy, managers serialize transactions
per page, and reads/writes always see coherent Python-level values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.dsm.machine import IvyCluster, run_ivy
from repro.dsm.ops import (
    Compute,
    Load,
    Read,
    RpcBarrier,
    RpcLockAcquire,
    RpcLockRelease,
    Store,
    TestAndSet,
    Write,
)
from repro.dsm.pages import (
    ManagerTable,
    PageAccess,
    PageTable,
    pages_of_range,
)
from repro.errors import DeadlockError, InvocationError, SimulationError


class TestPageMath:
    def test_pages_of_range_single(self):
        assert list(pages_of_range(0, 1, 1024)) == [0]
        assert list(pages_of_range(1023, 1, 1024)) == [0]
        assert list(pages_of_range(1024, 1, 1024)) == [1]

    def test_pages_of_range_spanning(self):
        assert list(pages_of_range(1000, 100, 1024)) == [0, 1]
        assert list(pages_of_range(0, 4096, 1024)) == [0, 1, 2, 3]

    def test_zero_length_reads_one_page(self):
        assert list(pages_of_range(2048, 0, 1024)) == [2]

    def test_page_table_default_none(self):
        table = PageTable(0)
        assert table.access(5) is PageAccess.NONE
        table.set_access(5, PageAccess.WRITE)
        assert table.access(5) is PageAccess.WRITE
        table.set_access(5, PageAccess.NONE)
        assert table.pages_held() == 0

    def test_manager_initial_owner(self):
        manager = ManagerTable(0, initial_owner=0)
        record = manager.record(42)
        assert record.owner == 0
        assert record.copyset == {0}


def counter_process(cluster, addr, rounds, gap_us=100.0):
    for _ in range(rounds):
        value = yield Load(addr)
        yield Compute(gap_us)
        yield Store(addr, (value or 0) + 1)


class TestCoherence:
    def test_single_process_local_counting(self):
        cluster = IvyCluster(1, 2)
        cluster.spawn(0, counter_process, 0, 10)
        cluster.run()
        assert cluster.memory[0] == 10
        assert cluster.stats.page_transfers == 0

    def test_two_nodes_same_address_serialize_via_tas(self):
        lock_addr, data_addr = 0, 5000

        def locked_counter(cluster, rounds):
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

        cluster = IvyCluster(2, 2)
        cluster.spawn(0, locked_counter, 15)
        cluster.spawn(1, locked_counter, 15)
        cluster.run()
        assert cluster.memory[data_addr] == 30

    def test_write_fault_invalidates_readers(self):
        events = []

        def reader(cluster):
            yield Read(0, 8)
            events.append(("read-done",
                           cluster.nodes[1].pages.access(0)))
            yield Compute(50_000)   # wait while the writer invalidates
            events.append(("after-write",
                           cluster.nodes[1].pages.access(0)))

        def writer(cluster):
            yield Compute(10_000)   # let the reader cache the page first
            yield Write(0, 8)
            events.append(("write-done",
                           cluster.nodes[0].pages.access(0)))

        cluster = IvyCluster(2, 2)
        cluster.spawn(1, reader)
        cluster.spawn(0, writer)
        cluster.run()
        states = dict(events)
        assert states["read-done"] is PageAccess.READ
        assert states["write-done"] is PageAccess.WRITE
        assert states["after-write"] is PageAccess.NONE
        assert cluster.stats.invalidations >= 1

    def test_read_sharing_no_invalidation(self):
        def reader(cluster):
            yield Read(0, 8)
            yield Load(0)

        cluster = IvyCluster(3, 1)
        for node in range(3):
            cluster.spawn(node, reader)
        cluster.run()
        assert cluster.stats.invalidations == 0
        # Every node ends with read access.
        assert all(cluster.nodes[node].pages.access(0) is not
                   PageAccess.NONE for node in range(3))

    def test_owner_keeps_read_copy_after_read_fault(self):
        def writer_then_idle(cluster):
            yield Write(0, 8)
            yield Compute(50_000)

        def late_reader(cluster):
            yield Compute(10_000)
            yield Read(0, 8)

        cluster = IvyCluster(2, 1)
        cluster.spawn(0, writer_then_idle)
        cluster.spawn(1, late_reader)
        cluster.run()
        assert cluster.nodes[0].pages.access(0) is PageAccess.READ
        assert cluster.nodes[1].pages.access(0) is PageAccess.READ

    def test_transfers_counted_per_page(self):
        def toggler(cluster, rounds):
            for _ in range(rounds):
                yield Write(0, 8)
                yield Compute(1_000)

        cluster = IvyCluster(2, 1)
        cluster.spawn(0, toggler, 5)
        cluster.spawn(1, toggler, 5)
        cluster.run()
        page, transfers = cluster.stats.hottest_page()
        assert page == 0
        assert transfers >= 2   # the page bounced between the writers


class TestFaultCosts:
    def test_first_touch_read_is_cheap_for_initial_owner(self):
        """Node 0 nominally owns untouched pages: its first read costs no
        network traffic."""
        def reader(cluster):
            yield Read(0, 8)

        cluster = IvyCluster(2, 1)
        cluster.spawn(0, reader)
        cluster.run()
        assert cluster.network.stats.messages == 0

    def test_remote_fault_costs_page_transfer(self):
        def reader(cluster):
            yield Read(0, 8)

        cluster = IvyCluster(2, 1)
        cluster.spawn(1, reader)
        cluster.run()
        assert cluster.stats.page_transfers == 1
        assert cluster.network.stats.bytes >= cluster.costs.page_bytes

    def test_fault_latency_near_cost_model_prediction(self):
        def reader(cluster):
            yield Read(cluster.costs.page_bytes * 3, 8)  # page 3, mgr 1

        cluster = IvyCluster(2, 1)
        cluster.spawn(1, reader)
        cluster.run()
        predicted = cluster.costs.page_transfer_us()
        assert cluster.elapsed_us == pytest.approx(predicted, rel=0.5)

    def test_range_write_faults_every_page(self):
        def writer(cluster):
            yield Write(0, 4096)    # 4 pages

        cluster = IvyCluster(2, 1)
        cluster.spawn(1, writer)
        cluster.run()
        assert cluster.stats.write_faults == 4
        assert cluster.stats.page_transfers == 4


class TestRpcServices:
    def test_rpc_lock_mutual_exclusion(self):
        def locker(cluster, rounds):
            for _ in range(rounds):
                yield RpcLockAcquire(0)
                value = yield Load(5000)
                yield Compute(100.0)
                yield Store(5000, (value or 0) + 1)
                yield RpcLockRelease(0)

        cluster = IvyCluster(3, 2)
        for node in range(3):
            cluster.spawn(node, locker, 10)
        cluster.run()
        assert cluster.memory[5000] == 30
        assert cluster.stats.lock_rpcs == 60

    def test_rpc_barrier_synchronizes(self):
        order = []

        def phased(cluster, tag, work):
            yield Compute(work)
            order.append(("before", tag))
            yield RpcBarrier(0, 3)
            order.append(("after", tag))

        cluster = IvyCluster(3, 1)
        for node, work in enumerate((1_000, 30_000, 80_000)):
            cluster.spawn(node, phased, node, work)
        cluster.run()
        phases = [phase for phase, _ in order]
        assert phases == ["before"] * 3 + ["after"] * 3
        assert cluster.stats.barrier_rounds == 1

    def test_rpc_barrier_reusable(self):
        def looper(cluster, rounds):
            for _ in range(rounds):
                yield RpcBarrier(7, 2)

        cluster = IvyCluster(2, 1)
        cluster.spawn(0, looper, 4)
        cluster.spawn(1, looper, 4)
        cluster.run()
        assert cluster.stats.barrier_rounds == 4


class TestMachine:
    def test_deadlock_detection(self):
        def stuck(cluster):
            yield RpcBarrier(0, 2)   # nobody else ever arrives

        cluster = IvyCluster(1, 1)
        cluster.spawn(0, stuck)
        with pytest.raises(DeadlockError):
            cluster.run()

    def test_process_exception_surfaces(self):
        def bad(cluster):
            yield Compute(10.0)
            raise RuntimeError("dsm boom")

        cluster = IvyCluster(1, 1)
        cluster.spawn(0, bad)
        with pytest.raises(RuntimeError, match="dsm boom"):
            cluster.run()

    def test_non_generator_rejected(self):
        cluster = IvyCluster(1, 1)
        with pytest.raises(InvocationError):
            cluster.spawn(0, lambda c: 42)

    def test_bad_request_rejected(self):
        def bad(cluster):
            yield "not a request"

        cluster = IvyCluster(1, 1)
        cluster.spawn(0, bad)
        with pytest.raises(InvocationError):
            cluster.run()

    @pytest.mark.parametrize("node", [-1, 2, 5])
    def test_spawn_on_a_node_that_does_not_exist_rejected(self, node):
        """A negative id must not index the node list from its end: the
        process would run on the last node's CPUs under an id that
        equals no owner or manager."""
        cluster = IvyCluster(2, 1)
        with pytest.raises(SimulationError, match="nodes 0..1"):
            cluster.spawn(node, counter_process, 0, 1)
        assert cluster.processes == []

    @pytest.mark.parametrize("request_", [
        RpcLockAcquire(0, server=9), RpcLockRelease(0, server=-1),
        RpcBarrier(0, 1, server=2)])
    def test_rpc_to_a_server_that_does_not_exist_rejected(self, request_):
        def caller(cluster):
            try:
                yield request_
            except SimulationError as error:
                return str(error)

        cluster = IvyCluster(2, 1)
        proc = cluster.spawn(0, caller)
        cluster.run()
        assert "nodes 0..1" in proc.result
        assert cluster.network.stats.messages == 0
        assert cluster.stats.lock_rpcs == 0

    def test_more_processes_than_cpus(self):
        cluster = IvyCluster(1, 2)
        for i in range(5):
            cluster.spawn(0, counter_process, i * 4096, 3)
        cluster.run()
        assert all(cluster.memory[i * 4096] == 3 for i in range(5))

    def test_determinism(self):
        def run_once():
            cluster = IvyCluster(2, 2)
            cluster.spawn(0, counter_process, 0, 5)
            cluster.spawn(1, counter_process, 0, 5)
            cluster.run()
            return cluster.elapsed_us, cluster.stats.total_faults

        assert run_once() == run_once()

    def test_manager_striping(self):
        cluster = IvyCluster(4, 1)
        assert [cluster.manager_of(page) for page in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]


@settings(max_examples=25, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.integers(0, 2),          # node
                  st.integers(0, 3),          # page
                  st.booleans()),             # write?
        min_size=1, max_size=24),
    mode=st.sampled_from(["fixed", "centralized", "dynamic"]),
)
def test_protocol_invariants_random_access_patterns(plan, mode):
    """Property: after any access pattern, under any of the Li & Hudak
    manager algorithms, each page has at most one WRITE holder, and a
    WRITE holder excludes all READ copies."""
    def actor(cluster, steps):
        for page, write in steps:
            addr = page * cluster.costs.page_bytes
            if write:
                yield Write(addr, 8)
            else:
                yield Read(addr, 8)
            yield Compute(500.0)

    cluster = IvyCluster(3, 1, manager_mode=mode)
    per_node = {0: [], 1: [], 2: []}
    for node, page, write in plan:
        per_node[node].append((page, write))
    for node, steps in per_node.items():
        if steps:
            cluster.spawn(node, actor, steps)
    cluster.run()
    for page in range(4):
        access = [cluster.nodes[node].pages.access(page)
                  for node in range(3)]
        writers = sum(1 for a in access if a is PageAccess.WRITE)
        readers = sum(1 for a in access if a is PageAccess.READ)
        assert writers <= 1
        if writers:
            assert readers == 0
