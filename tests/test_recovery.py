"""Crash recovery: failure detection, checkpoint/promotion, orphan
resurrection with at-most-once semantics, and the live runtime's
heartbeat detector.  See docs/RECOVERY.md for the guarantees under test.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.queens import count_completions, seed_prefixes
from repro.apps.sor import SorProblem, run_sequential_sor, sor_main
from repro.apps.sor.sequential import DEFAULT_POINT_UPDATE_US
from repro.errors import (
    DeadlockError,
    NodeFailure,
    ObjectNotFoundError,
    SimulationError,
)
from repro.faults import FaultPlan, NodeCrash
from repro.placement.policies import PlacementPolicy
from repro.recovery import (
    DEFAULT_PEER_TIMEOUT_S,
    PEER_TIMEOUT_ENV,
    RecoveryConfig,
    heartbeat_grace_s,
    peer_timeout_s,
    reply_timeout_s,
)
from repro.recovery.checkpoint import (
    KERNEL_FIELDS,
    CheckpointManager,
    restore_state,
    snapshot_state,
)
from repro.recovery.detector import CONFIRM_US
from repro.recovery.scenario import (
    _MasterOnCrashNode,
    _recover_plan,
    _reports_per_iteration,
    _run,
    _sor_args,
    _sor_problem,
)
from repro.sim import (
    AmberProgram,
    ClusterConfig,
    Fork,
    Invoke,
    Join,
    Locate,
    MoveTo,
    New,
    Sleep,
)
from repro.sim.objects import SimObject
from repro.sim.sync import Barrier, CondVar, Lock, Monitor
from repro.sim.syscalls import Charge, Compute
from repro.sim.thread import SimThread
from tests.helpers import Cell

RECOVERY = RecoveryConfig()


def run_recovering(main_fn, *args, nodes=3, cpus=2, faults=None,
                   recovery=RECOVERY):
    program = AmberProgram(
        ClusterConfig(nodes=nodes, cpus_per_node=cpus),
        faults=faults, recovery=recovery)
    return program.run(main_fn, *args)


def permanent_crash(node, at_us, seed=0):
    return FaultPlan(seed=seed,
                     crashes=(NodeCrash(node=node, at_us=at_us),))


def sor_recover_run(fast, faults=None):
    """``sor_main`` in the ``sor-recover`` shape: ``SorMaster`` on the
    dying node, the sections on nodes 0 and 2."""
    problem = _sor_problem(fast)
    args = _sor_args(problem, 3, 2, _MasterOnCrashNode())
    return problem, _run(3, 2, faults, sor_main, *args)


def recover_plan_crashing_at(fraction, seed, clean):
    """The scenario's plan for ``seed`` with its crash moved to
    ``fraction`` of the clean run."""
    plan = _recover_plan(seed, clean.elapsed_us)
    return replace(plan, crashes=(replace(
        plan.crashes[0], at_us=fraction * clean.elapsed_us),))


# ---------------------------------------------------------------------------
# The REPRO_PEER_TIMEOUT_S knob
# ---------------------------------------------------------------------------


class TestPeerTimeoutKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(PEER_TIMEOUT_ENV, raising=False)
        assert peer_timeout_s() == DEFAULT_PEER_TIMEOUT_S

    def test_override_scales_every_derived_budget(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "10")
        assert peer_timeout_s() == 10.0
        assert reply_timeout_s() == 40.0
        assert heartbeat_grace_s() == 1.0

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "soon")
        with pytest.raises(SimulationError):
            peer_timeout_s()

    def test_nonpositive_raises(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0")
        with pytest.raises(SimulationError):
            peer_timeout_s()

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
    def test_a_wait_that_never_ends_raises(self, monkeypatch, raw):
        """NaN passes a ``<= 0`` check, and an infinite budget is a
        deadline that never passes: both are refused, typed."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, raw)
        with pytest.raises(SimulationError, match=PEER_TIMEOUT_ENV):
            peer_timeout_s()
        with pytest.raises(SimulationError, match=PEER_TIMEOUT_ENV):
            reply_timeout_s()


# ---------------------------------------------------------------------------
# Snapshot / restore units
# ---------------------------------------------------------------------------


class _Stateful(SimObject):
    def __init__(self):
        self.items = [1, 2, 3]
        self.table = {"k": [4, 5]}
        self.grid = np.arange(6, dtype=np.float32)
        self.peer = None
        self.owner = None


class TestSnapshotRestore:
    def _thread(self, tid=1):
        return SimThread(tid)

    def test_snapshot_is_a_structural_copy(self):
        obj = _Stateful()
        state = snapshot_state(obj)
        obj.items.append(99)
        obj.table["k"].append(99)
        obj.grid[0] = 99.0
        assert state["items"] == [1, 2, 3]
        assert state["table"] == {"k": [4, 5]}
        assert state["grid"][0] == 0.0

    def test_object_references_kept_by_identity(self):
        obj = _Stateful()
        obj.peer = _Stateful()
        state = snapshot_state(obj)
        assert state["peer"] is obj.peer

    def test_kernel_fields_never_snapshot(self):
        obj = _Stateful()
        obj._vaddr = 0x1000
        obj._home_node = 2
        state = snapshot_state(obj)
        assert not (set(state) & KERNEL_FIELDS)

    def test_restore_overwrites_state_but_not_identity(self):
        obj = _Stateful()
        obj._vaddr = 0x1000
        state = snapshot_state(obj)
        obj.items = ["mutated"]
        obj.extra = "junk"
        restore_state(obj, state)
        assert obj.items == [1, 2, 3]
        assert not hasattr(obj, "extra")
        assert obj._vaddr == 0x1000  # placement survives promotion

    def test_restore_purges_thread_refs_in_containers_only(self):
        """A promoted lock must not point at waiters being resurrected
        elsewhere, but a live owner (direct attribute) still holds it."""
        obj = _Stateful()
        owner, waiter = self._thread(1), self._thread(2)
        obj.owner = owner
        obj.items = [waiter, "data"]
        obj.table = {"w": waiter, "d": "data"}
        state = snapshot_state(obj)
        restore_state(obj, state)
        assert obj.owner is owner
        assert obj.items == ["data"]
        assert obj.table == {"d": "data"}

    def test_stored_snapshot_survives_restore(self):
        """The backup copy can be promoted twice (second crash)."""
        obj = _Stateful()
        state = snapshot_state(obj)
        restore_state(obj, state)
        obj.items.append("post-promotion")
        assert state["items"] == [1, 2, 3]


# ---------------------------------------------------------------------------
# CheckpointManager units (placement, epochs, stores)
# ---------------------------------------------------------------------------


class _FakeNode:
    def __init__(self, node_id):
        self.id = node_id
        self.down = False


class _FakeCluster:
    def __init__(self, nnodes, homes=None):
        self.nodes = [_FakeNode(i) for i in range(nnodes)]
        self._homes = homes or {}

    def home_node(self, vaddr):
        return self._homes.get(vaddr, 0)


class TestCheckpointManager:
    def _manager(self, nnodes=3, homes=None):
        return CheckpointManager(_FakeCluster(nnodes, homes))

    def test_epochs_are_monotonic_per_vaddr(self):
        manager = self._manager()
        assert [manager.next_epoch(7), manager.next_epoch(7),
                manager.next_epoch(8)] == [1, 2, 1]

    def test_store_rejects_stale_epochs(self):
        manager = self._manager()
        assert manager.store(2, 7, epoch=2, state={"v": 2})
        assert not manager.store(2, 7, epoch=1, state={"v": 1})
        assert manager.latest(7) == (2, 2, {"v": 2})

    def test_latest_skips_down_nodes(self):
        manager = self._manager()
        manager.store(1, 7, epoch=5, state={"v": 5})
        manager.store(2, 7, epoch=3, state={"v": 3})
        manager.cluster.nodes[1].down = True
        assert manager.latest(7) == (2, 3, {"v": 3})
        manager.cluster.nodes[2].down = True
        assert manager.latest(7) is None

    def test_home_placement_prefers_home_when_away(self):
        manager = self._manager(homes={7: 2})
        assert manager.backup_node(7, primary=1) == 2

    def test_home_placement_falls_to_ring_at_home(self):
        """Resident at home: the backup must still be another node."""
        manager = self._manager(homes={7: 1})
        backup = manager.backup_node(7, primary=1)
        assert backup != 1

    def test_backup_never_lands_on_a_down_node(self):
        manager = self._manager(homes={7: 2})
        manager.cluster.nodes[2].down = True
        backup = manager.backup_node(7, primary=1)
        assert backup not in (1, 2)

    def test_single_node_cluster_has_no_backup(self):
        manager = self._manager(nnodes=1)
        assert manager.backup_node(7, primary=0) == 0


# ---------------------------------------------------------------------------
# Simulated failure detection
# ---------------------------------------------------------------------------


class TestSimDetection:
    def _idle_main(self, ctx):
        yield Sleep(100_000.0)
        return "done"

    def test_crash_is_suspected_then_confirmed(self):
        plan = permanent_crash(node=1, at_us=10_000.0)
        result = run_recovering(self._idle_main, faults=plan)
        metrics = result.metrics
        assert metrics.counter("heartbeats_sent").value > 0
        assert metrics.counter("node_suspected").value >= 1
        assert metrics.counter("node_confirmed_dead").value == 1
        latency = metrics.histogram("detection_latency_us").summary()
        assert latency["count"] >= 1
        # Confirmation cannot beat the confirm window.
        assert latency["max"] >= CONFIRM_US

    def test_restarted_node_rejoins(self):
        plan = FaultPlan(seed=0, crashes=(
            NodeCrash(node=1, at_us=10_000.0, restart_us=50_000.0),))
        result = run_recovering(self._idle_main, faults=plan)
        metrics = result.metrics
        assert metrics.counter("node_confirmed_dead").value == 1
        assert metrics.counter("node_rejoined").value >= 1

    def test_detection_is_deterministic(self):
        plan = permanent_crash(node=1, at_us=10_000.0)
        first = run_recovering(self._idle_main, faults=plan)
        second = run_recovering(self._idle_main, faults=plan)
        assert first.elapsed_us == second.elapsed_us
        for name in ("heartbeats_sent", "node_suspected",
                     "node_confirmed_dead"):
            assert (first.metrics.counter(name).value
                    == second.metrics.counter(name).value)

    def test_no_recovery_config_means_no_heartbeats(self):
        """Recovery is opt-in: without a config the run is untouched."""
        result = run_recovering(self._idle_main, recovery=None)
        assert result.metrics.counter("heartbeats_sent").value == 0


# ---------------------------------------------------------------------------
# Threads blocked in synchronization objects on a dying node
# ---------------------------------------------------------------------------


class LockWorker(SimObject):
    SIZE_BYTES = 128

    def __init__(self, lock):
        self.lock = lock
        self.entries = 0

    def work(self, ctx, rounds, hold_us):
        for _ in range(rounds):
            yield Invoke(self.lock, "acquire")
            yield Compute(hold_us)
            self.entries += 1
            yield Invoke(self.lock, "release")
        return self.entries


class BarrierWorker(SimObject):
    SIZE_BYTES = 128

    def __init__(self, barrier):
        self.barrier = barrier
        self.cycles = 0

    def work(self, ctx, cycles, step_us):
        for _ in range(cycles):
            yield Compute(step_us)
            yield Invoke(self.barrier, "wait")
            self.cycles += 1
        return self.cycles


class CondWaiter(SimObject):
    SIZE_BYTES = 128

    def __init__(self, monitor, cond):
        self.monitor = monitor
        self.cond = cond

    def wait_for_go(self, ctx):
        yield Invoke(self.monitor, "enter")
        yield Invoke(self.cond, "wait")
        yield Invoke(self.monitor, "exit")
        return "woken"

    def go(self, ctx, delay_us):
        yield Sleep(delay_us)
        yield Invoke(self.monitor, "enter")
        yield Invoke(self.cond, "signal")
        yield Invoke(self.monitor, "exit")
        return "signalled"


class TestSyncRecovery:
    """The ISSUE's acceptance bar: a thread blocked in Lock.acquire /
    Barrier.wait / CondVar.wait whose sync object's node dies must
    either complete against the promoted backup or fail with a typed
    NodeFailure — never hang (a hang would be a DeadlockError here)."""

    def test_lock_on_dead_node_recovers(self):
        def main(ctx):
            lock = yield New(Lock, on_node=1)
            workers, threads = [], []
            for i in range(3):
                worker = yield New(LockWorker, lock, on_node=2)
                workers.append(worker)
            for worker in workers:
                threads.append((yield Fork(worker, "work", 6, 3_000.0)))
            total = 0
            for thread in threads:
                total += yield Join(thread)
            return total

        result = run_recovering(main,
                                faults=permanent_crash(1, 12_000.0))
        assert result.value == 18
        metrics = result.metrics
        assert metrics.counter("node_confirmed_dead").value == 1
        assert metrics.counter("objects_recovered").value >= 1
        assert metrics.counter("threads_lost").value == 0

    def test_barrier_on_dead_node_recovers(self):
        def main(ctx):
            barrier = yield New(Barrier, 3, on_node=1)
            threads = []
            for node in (0, 2, 2):
                worker = yield New(BarrierWorker, barrier, on_node=node)
                threads.append((yield Fork(worker, "work", 5, 4_000.0)))
            total = 0
            for thread in threads:
                total += yield Join(thread)
            return total

        result = run_recovering(main,
                                faults=permanent_crash(1, 15_000.0))
        assert result.value == 15
        assert result.metrics.counter("objects_recovered").value >= 1
        assert result.metrics.counter("threads_lost").value == 0

    def test_condvar_waiter_survives_monitor_node_death(self):
        """The waiter is parked at Suspend("condvar") on node 1 when it
        dies.  Resurrection replays CondVar.wait against the promoted
        pair; the monitor's newest durable epoch is the waiter's own
        enter write-through (held, owner preserved by identity), so the
        re-run holds() check passes (see docs/RECOVERY.md)."""
        def main(ctx):
            monitor = yield New(Monitor, on_node=1)
            cond = yield New(CondVar, monitor, on_node=1)
            pair = yield New(CondWaiter, monitor, cond, on_node=2)
            waiter = yield Fork(pair, "wait_for_go")
            signaler = yield Fork(pair, "go", 80_000.0)
            woken = yield Join(waiter)
            signalled = yield Join(signaler)
            return (woken, signalled)

        result = run_recovering(main,
                                faults=permanent_crash(1, 20_000.0))
        assert result.value == ("woken", "signalled")
        assert result.metrics.counter("objects_recovered").value >= 2
        assert result.metrics.counter("threads_lost").value == 0


# ---------------------------------------------------------------------------
# At-most-once resurrection semantics
# ---------------------------------------------------------------------------


class Pounder(SimObject):
    SIZE_BYTES = 128

    def __init__(self, cell):
        self.cell = cell

    def pound(self, ctx, rounds, think_us):
        total = 0
        for _ in range(rounds):
            total = yield Invoke(self.cell, "add", 1)
            yield Compute(think_us)
        return total


class Inner(SimObject):
    SIZE_BYTES = 128

    def __init__(self):
        self.count = 0

    def bump(self, ctx):
        yield Compute(500.0)
        self.count += 1
        return self.count

    def get(self, ctx):
        if False:
            yield None
        return self.count


class Reader(SimObject):
    SIZE_BYTES = 128

    def __init__(self, inner):
        self.inner = inner

    def read(self, ctx, delay_us):
        yield Compute(delay_us)
        return (yield Invoke(self.inner, "get"))


class Hopper(SimObject):
    SIZE_BYTES = 128

    def __init__(self, y, away):
        self.y = y
        self.away = away

    def add_then_leave(self, ctx, linger_us):
        seen = yield Invoke(self.y, "add", 1)
        yield Invoke(self.away, "linger", linger_us)
        return seen


class Outer(SimObject):
    SIZE_BYTES = 128

    def __init__(self, inner):
        self.inner = inner

    def call_through(self, ctx, linger_us):
        value = yield Invoke(self.inner, "bump")
        yield Compute(linger_us)  # the crash lands in this window
        return value


class TestAtMostOnce:
    def test_mutations_on_recovered_object_apply_exactly_once(self):
        """Every add either completed before the epoch that survived
        (logged, replay suppressed) or rolled back *with* its result
        (replayed cleanly): the final count is exact, not approximate."""
        def main(ctx):
            cell = yield New(Cell, 0, on_node=1)
            pounder = yield New(Pounder, cell, on_node=2)
            thread = yield Fork(pounder, "pound", 40, 1_000.0)
            return (yield Join(thread))

        result = run_recovering(main,
                                faults=permanent_crash(1, 20_000.0))
        assert result.value == 40
        metrics = result.metrics
        assert metrics.counter("objects_recovered").value >= 1
        assert metrics.counter("invocations_replayed").value >= 1

    def test_nested_invocation_is_not_double_applied(self):
        """The thread dies on node 1 *after* its nested bump completed
        on live node 2.  The replayed outer call re-issues the bump from
        the promoted object's node — a different caller node than the
        original departure — and the regenerated id must still hit the
        completion log on Inner: the count stays 1."""
        def main(ctx):
            inner = yield New(Inner, on_node=2)
            outer = yield New(Outer, inner, on_node=1)
            thread = yield Fork(outer, "call_through", 80_000.0)
            value = yield Join(thread)
            count = yield Invoke(inner, "get")
            return (value, count)

        result = run_recovering(main,
                                faults=permanent_crash(1, 20_000.0))
        assert result.value == (1, 1)
        metrics = result.metrics
        assert metrics.counter("invocations_replayed").value >= 1
        assert metrics.counter("invocations_suppressed").value >= 1

    @staticmethod
    def _nested_local_main(ctx, reader_delay_us=None):
        """``Outer`` and ``Inner`` on node 1, so ``call_through``'s
        ``bump`` is a local call; the thread comes from node 0.  With a
        ``reader_delay_us``, a ``Reader`` on node 2 computes that long
        and then reads ``Inner`` with a migrated ``get``."""
        inner = yield New(Inner, on_node=1)
        outer = yield New(Outer, inner, on_node=1)
        thread = yield Fork(outer, "call_through", 80_000.0)
        reader = None
        if reader_delay_us is not None:
            peer = yield New(Reader, inner, on_node=2)
            reader = yield Fork(peer, "read", reader_delay_us)
        value = yield Join(thread)
        count = yield Invoke(inner, "get")
        if reader is None:
            return (value, count)
        return (value, count, (yield Join(reader)))

    def test_a_nested_local_call_is_not_double_applied(self):
        """Node 1 dies while the thread lingers in ``call_through``
        after its local ``bump``.  A local call logs no completion, and
        no epoch of ``Inner`` is taken after its birth, so the promoted
        ``Inner`` and the replayed ``bump`` agree: one bump."""
        result = run_recovering(self._nested_local_main,
                                faults=permanent_crash(1, 30_000.0))
        assert result.value == (1, 1)
        assert result.metrics.counter("invocations_replayed").value >= 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a nested local call logs no completion")
    def test_a_nested_local_call_another_write_through_carries(self):
        """The hole that is left (docs/RECOVERY.md, "Guarantees and
        limits"): the reader's ``get`` on ``Inner`` completes after the
        local ``bump``, so its write-through epoch carries the bumped
        count but no completion of the ``bump``.  Node 1 dies at 40 ms,
        the promoted ``Inner`` holds that epoch, and the replayed
        ``call_through`` bumps it again: the run gives (2, 2, 1)."""
        result = run_recovering(self._nested_local_main, 5_000.0,
                                faults=permanent_crash(1, 40_000.0))
        assert result.value == (1, 1, 1)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="only a write-through makes a local "
                              "effect durable")
    def test_a_survivors_local_effect_survives_promotion(self):
        """A thread on node 1 adds to ``Y`` locally, then migrates to
        node 2 and is there when node 1 dies at 20 ms.  No write-through
        carried ``Y``'s new state, so the promoted ``Y`` is its birth
        epoch: the thread saw 1 and the run ends with ``Y`` at 0."""
        def main(ctx):
            y = yield New(Cell, 0, on_node=1)
            away = yield New(Spawner, on_node=2)
            hopper = yield New(Hopper, y, away, on_node=1)
            seen = yield Invoke(hopper, "add_then_leave", 60_000.0)
            return (seen, (yield Invoke(y, "get")))

        result = run_recovering(main, faults=permanent_crash(1, 20_000.0))
        assert result.value == (1, 1)

    def test_checkpoints_follow_writes_not_time(self):
        """``N`` cells that are never written cost one birth epoch each,
        however long the run: the other mutable object is the main
        thread's root object, and the one completed migrated invocation
        ships one write-through epoch.  The recovering run's simulated
        time stays within 2 % of the recovery-free run's."""
        cells = 100

        def main(ctx):
            made = []
            for _ in range(cells):
                made.append((yield New(Cell, 0, on_node=1)))
            yield Compute(100_000.0)
            return (yield Invoke(made[0], "get"))

        plain = run_recovering(main, nodes=2, recovery=None)
        result = run_recovering(main, nodes=2)
        assert result.value == plain.value == 0
        shipped = result.metrics.counter("checkpoints_shipped").value
        assert shipped <= cells + 1 + 1
        assert result.elapsed_us <= 1.02 * plain.elapsed_us


class Tally(SimObject):
    """A per-node solution counter whose ``count`` both returns and
    mutates: the completed invocation the write-through gap loses."""

    SIZE_BYTES = 256

    def __init__(self, n):
        self.n = n
        self.solutions = self.visited = self.calls = 0

    def count(self, ctx, prefix):
        solutions, visited = count_completions(self.n, prefix)
        yield Compute(max(1.0, visited * 10.0))
        self.solutions += solutions
        self.visited += visited
        self.calls += 1
        return solutions, visited

    def totals(self, ctx):
        yield Charge(5.0)
        return self.solutions, self.visited, self.calls


class TallyDriver(SimObject):
    SIZE_BYTES = 256

    def __init__(self, tallies, prefixes):
        self.tallies = tallies
        self.prefixes = prefixes

    def drive(self, ctx, offset):
        for j, prefix in enumerate(self.prefixes):
            tally = self.tallies[(offset + j) % len(self.tallies)]
            yield Invoke(tally, "count", prefix, arg_bytes=64)


def tally_main(ctx, n, drivers):
    """``drivers`` threads on node 0 spread N-Queens prefixes over a
    tally on each of nodes 1 and 2; returns every tally's totals."""
    prefixes = seed_prefixes(n, 2)
    tallies = []
    for node in (1, 2):
        tallies.append((yield New(Tally, n, on_node=node)))
    threads = []
    for d in range(drivers):
        driver = yield New(TallyDriver, tallies, prefixes[d::drivers])
        threads.append((yield Fork(driver, "drive", d)))
    for thread in threads:
        yield Join(thread)
    totals = []
    for tally in tallies:
        totals.append((yield Invoke(tally, "totals")))
    return totals


class TestWriteThroughGap:
    """Two crash instants at which a completed invocation whose caller
    already holds the result must survive its object's promotion: the
    completing thread carries the write-through epoch off the dying
    node, and the backup stores it before the promotion.  The gap the
    class is named for stays open (docs/RECOVERY.md, "Guarantees and
    limits", has the crash-instant matrices): write-through declines an
    epoch while another thread is bound to the object, and the matrices
    meet that as typed stalls."""

    def test_a_completed_count_survives_promotion(self):
        clean = run_recovering(tally_main, 7, 4, recovery=None)
        result = run_recovering(
            tally_main, 7, 4,
            faults=permanent_crash(1, 0.48 * clean.elapsed_us))
        assert result.metrics.counter("objects_recovered").value >= 1
        assert result.value == clean.value

    def test_every_sor_report_survives_the_masters_promotion(self):
        """``sor_main`` at full size with ``SorMaster`` on the dying
        node, crashed at 0.575 of the clean run (~171 ms): the last
        reporter of iteration 0 carries the master's write-through epoch
        with all six of its reports, and the backup stores it before the
        promotion."""
        problem, clean = sor_recover_run(fast=False)
        _problem, result = sor_recover_run(
            fast=False, faults=recover_plan_crashing_at(0.575, 0, clean))
        assert np.array_equal(result.value[2], clean.value[2])
        assert _reports_per_iteration(result, problem.iterations) == \
            [6] * problem.iterations


class Boom(SimObject):
    SIZE_BYTES = 128

    def boom(self, ctx):
        raise ValueError("no")

    def boom_in_steps(self, ctx):
        yield Compute(10.0)
        raise ValueError("no")


class Catcher(SimObject):
    SIZE_BYTES = 128

    def __init__(self, boom, method):
        self.boom = boom
        self.method = method
        self.entries_left = None

    def go(self, ctx):
        try:
            yield Invoke(self.boom, self.method)
        except ValueError:
            self.entries_left = len(ctx.thread.resurrect_stack)
            return 42


class TestRaisingRemoteOperation:
    """A remote operation that raises returns one way, atomic or not:
    its own outcome is logged under its own id, its replay entry is
    retired once the caller has caught the error, and its latency is
    observed."""

    @pytest.fixture(params=["boom", "boom_in_steps"])
    def run(self, request):
        def main(ctx):
            boom = yield New(Boom, on_node=1)
            catcher = yield New(Catcher, boom, request.param)
            return (yield Invoke(catcher, "go")), boom, catcher

        return run_recovering(main, nodes=2, cpus=1)

    def test_the_error_is_logged_under_the_operations_own_id(self, run):
        value, boom, _ = run.value
        assert value == 42
        assert [(value, type(exc)) for value, exc
                in boom._amber_completed.values()] == [(None, ValueError)]

    def test_no_replay_entry_outlives_the_catch(self, run):
        _, _, catcher = run.value
        assert catcher.entries_left == 0

    def test_the_remote_latency_is_observed(self, run):
        assert run.metrics.histogram("invoke_remote_us").count == 1


# ---------------------------------------------------------------------------
# Unrecoverable loss is a typed error, never a hang
# ---------------------------------------------------------------------------


class TestUnrecoverable:
    def _main(self, ctx):
        cell = yield New(Cell, 0, on_node=1)
        pounder = yield New(Pounder, cell, on_node=2)
        thread = yield Fork(pounder, "pound", 40, 1_000.0)
        return (yield Join(thread))

    def test_checkpointing_disabled_raises_node_failure(self):
        recovery = RecoveryConfig(checkpointing=False)
        with pytest.raises(NodeFailure):
            run_recovering(self._main, recovery=recovery,
                           faults=permanent_crash(1, 20_000.0))

    def test_same_run_with_checkpointing_completes(self):
        result = run_recovering(self._main,
                                faults=permanent_crash(1, 20_000.0))
        assert result.value == 40


class TestStallEndsTyped:
    """A recovering run that can no longer progress stops its heartbeat
    and sweep timers and ends in a typed DeadlockError naming the stall;
    before, it ticked heartbeats until killed.  ``sor_main`` losing two
    sections is such a run: their threads restart from their Fork while
    the neighbours have moved on."""

    BOUND_US = 60e6

    def test_sor_main_losing_its_sections_stops_on_its_own(self):
        problem = SorProblem(rows=16, cols=16, iterations=4)
        args = (problem, 3, 6, 1, DEFAULT_POINT_UPDATE_US, True, True,
                PlacementPolicy())
        clean = run_recovering(sor_main, *args, recovery=None)
        clocks = []

        def watched(ctx, *args):
            clocks.append(ctx.cluster.sim)
            return (yield from sor_main(ctx, *args))

        program = AmberProgram(
            ClusterConfig(nodes=3, cpus_per_node=2), recovery=RECOVERY,
            faults=permanent_crash(1, 0.35 * clean.elapsed_us))
        with pytest.raises(DeadlockError,
                           match="c0: blocked @node 0, in SorMaster.report"):
            program.run(watched, *args, until_us=self.BOUND_US)
        assert clocks[0].now_us < self.BOUND_US / 10


# ---------------------------------------------------------------------------
# Locate / MoveTo past a dead hop: the recovery route an Invoke takes
# ---------------------------------------------------------------------------


class Spawner(SimObject):
    SIZE_BYTES = 128

    def spawn(self, ctx, linger_us):
        # Born on this node and never migrating: nothing to replay.
        return (yield Fork(self, "linger", linger_us))

    def linger(self, ctx, linger_us):
        yield Compute(linger_us)


class TestControlChaseUnderRecovery:
    """A control message whose next hop is dead is rerouted, or fails
    inside the requesting operation — it never aborts the run."""

    PLAN = FaultPlan(seed=0, rto_us=1_000.0, rto_cap_us=8_000.0,
                     max_attempts=4,
                     crashes=(NodeCrash(node=1, at_us=20_000.0),))

    def test_locate_and_moveto_reach_the_promoted_copy(self):
        def main(ctx):
            cell = yield New(Cell, 7, on_node=1)   # home: the dead node
            yield Sleep(60_000.0)
            where = yield Locate(cell)
            dest = 2 if where == 0 else 0
            yield MoveTo(cell, dest)
            value = yield Invoke(cell, "get")
            return where, dest, (yield Locate(cell)), value

        result = run_recovering(main, faults=self.PLAN)
        where, dest, after, value = result.value
        assert where in (0, 2)      # the backup, never the corpse
        assert after == dest and value == 7
        assert result.metrics.counter("objects_recovered").value == 1

    def test_lost_object_raises_inside_the_operation(self):
        def main(ctx):
            cell = yield New(Cell, 7, on_node=1)
            yield Sleep(60_000.0)
            caught = []
            for request in (Locate(cell), MoveTo(cell, 0)):
                try:
                    yield request
                except NodeFailure as failure:
                    caught.append(str(failure))
            return caught, (yield Locate(ctx.thread))

        result = run_recovering(main, faults=self.PLAN,
                                recovery=RecoveryConfig(
                                    checkpointing=False))
        caught, own_node = result.value
        assert len(caught) == 2 and all("lost" in text for text in caught)
        assert own_node == 0        # the program ran on to completion

    def test_exhausted_probes_raise_inside_the_operation(self):
        """A thread object is not checkpointed and never declared lost:
        locating one that died with its node runs out the probe budget,
        and that too is the operation's error, not the run's."""
        def main(ctx):
            spawner = yield New(Spawner, on_node=1)
            doomed = yield Invoke(spawner, "spawn", 500_000.0)
            yield Sleep(60_000.0)
            try:
                yield Locate(doomed)
            except ObjectNotFoundError as error:
                return str(error)

        result = run_recovering(main, faults=self.PLAN)
        assert "stayed unreachable" in result.value
        assert result.metrics.counter("home_probes").value == 16


# ---------------------------------------------------------------------------
# Property: sor_main losing its master equals the clean run, every report
# counted once, and replays bit-identically
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_sor():
    return sor_recover_run(fast=True)


class TestRecoveredSorProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_recovered_run_matches_clean_and_replays(self, seed,
                                                     clean_sor):
        problem, clean = clean_sor
        plan = _recover_plan(seed, clean.elapsed_us)
        runs = [sor_recover_run(fast=True, faults=plan)[1]
                for _ in range(2)]
        sequential = run_sequential_sor(problem).grid
        for run in runs:
            outcomes, _finish_us, grid = run.value
            assert np.array_equal(grid, clean.value[2])
            assert np.array_equal(grid, sequential)
            assert outcomes == clean.value[0]
            assert _reports_per_iteration(run, problem.iterations) == \
                [6] * problem.iterations
            metrics = run.stats.metrics
            assert metrics.counter("objects_recovered").value >= 1
            assert metrics.counter("invocations_replayed").value >= 1
            assert metrics.counter("threads_lost").value == 0
        assert runs[0].elapsed_us == runs[1].elapsed_us
        assert runs[0].value[2].tobytes() == runs[1].value[2].tobytes()

    def test_reporters_dying_inside_the_master_count_once(self,
                                                          clean_sor):
        """At the scenario's own crash instant (0.35 of the clean run)
        no report has reached the master yet.  Crashed at 0.6, four reporters
        of iteration 0 die suspended inside it and two more are on their
        way: all six replay against the promoted epoch, and each counts
        once.  Promoting the dead copy's state instead still gives the
        exact grid, but iteration 0 then holds ten reports."""
        problem, clean = clean_sor
        _problem, run = sor_recover_run(
            fast=True, faults=recover_plan_crashing_at(0.6, 0, clean))
        assert np.array_equal(run.value[2], clean.value[2])
        assert _reports_per_iteration(run, problem.iterations) == \
            [6] * problem.iterations
        assert run.metrics.counter("invocations_replayed").value == 6


# ---------------------------------------------------------------------------
# Live runtime: heartbeat detection through the coordinator
# ---------------------------------------------------------------------------


class TestLiveDetection:
    def test_killed_peer_is_suspected(self, monkeypatch):
        """Detection only in the live runtime: a killed node process is
        reported by failed_peers() within the grace window."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "5")
        from repro.runtime.cluster import Cluster

        with Cluster(nodes=3) as cluster:
            victim = cluster._processes[1]  # node 1
            victim.terminate()
            victim.join(timeout=5)
            assert cluster._client.peer_failure_event.wait(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline \
                    and 1 not in cluster.failed_peers():
                time.sleep(0.05)
            assert 1 in cluster.failed_peers()
            assert 1 in cluster._coordinator.suspected_nodes()
            assert 2 not in cluster.failed_peers()

    def test_a_registrant_that_never_beats_is_suspected(self):
        """Monitoring starts at registration, the first heartbeat: a
        node that never beats again is still reported, once, after the
        grace window."""
        import queue

        from repro.runtime import messages as m
        from repro.runtime.coordinator import COORDINATOR, Coordinator
        from repro.runtime.transport import Mesh

        grace_s = 0.3
        coordinator = Coordinator(expected_nodes=1, grace_s=grace_s)
        inbox = queue.SimpleQueue()
        silent = Mesh(0, lambda peer, message: inbox.put(message))
        silent.set_directory({COORDINATOR: coordinator.address})
        try:
            silent.send(COORDINATOR, m.Heartbeat(silent.address))
            assert isinstance(inbox.get(timeout=5.0), m.NodeDirectory)
            assert coordinator.suspected_nodes() == set()
            verdict = inbox.get(timeout=5.0)
            assert isinstance(verdict, m.PeerStatus)
            assert (verdict.node, verdict.alive) == (0, False)
            assert verdict.silence_s > grace_s
            assert coordinator.suspected_nodes() == {0}
            # Broadcast once: no second verdict while it stays silent.
            with pytest.raises(queue.Empty):
                inbox.get(timeout=3 * grace_s)
        finally:
            silent.close()
            coordinator.close()

    def test_failed_peers_is_a_snapshot_the_reader_replaces(self):
        """The client's reader thread replaces the suspected set on each
        verdict; a set handed out never changes under a later one, so
        routing can read it while verdicts arrive (iterating the
        verdict table then could raise "dictionary changed size during
        iteration")."""
        from repro.runtime import messages as m
        from repro.runtime.coordinator import COORDINATOR, CoordinatorClient
        from repro.runtime.transport import Mesh

        server = Mesh(COORDINATOR, lambda peer, message: None)
        client = CoordinatorClient(server.address)
        mesh = Mesh(0, lambda peer, message: None)
        client.join(0, mesh)
        server.set_directory({0: mesh.address})

        def send(message):
            server.send(0, message)

        def verdicts_read(expected):
            deadline = time.monotonic() + 5.0
            while client.failed_peers() != expected:
                assert time.monotonic() < deadline, client.failed_peers()
                time.sleep(0.01)
            return client.failed_peers()

        try:
            none = client.failed_peers()
            assert none == frozenset() and type(none) is frozenset
            send(m.PeerStatus(2, alive=False))
            assert client.peer_failure_event.wait(timeout=5.0)
            two = verdicts_read({2})
            send(m.PeerStatus(3, alive=False))
            send(m.PeerStatus(2, alive=True))   # retracted
            three = verdicts_read({3})
            assert type(three) is frozenset
            assert none == frozenset() and two == {2}
            # Many verdicts for new nodes while a router walks the set.
            for node in range(100, 600):
                send(m.PeerStatus(node, alive=False))
            deadline = time.monotonic() + 5.0
            while len(client.failed_peers()) < 501:
                assert time.monotonic() < deadline
                assert sum(1 for _ in client.failed_peers()) <= 501
            assert three == {3}
        finally:
            client.close()
            mesh.close()
            server.close()
