"""One program text, two backends: each program here runs on the
simulator (``AmberProgram.run``) and on a live cluster (``Cluster.run``),
and the answers must be equal — except where :data:`DIFFERENCES` says
the backends differ by design, and why.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.runtime
from repro.apps.matmul import DEFAULT_MAC_US, MatrixB, RowBlockWorker
from repro.apps.queens import (
    DEFAULT_NODE_COST_US,
    KNOWN_SOLUTIONS,
    queens_main,
    seed_prefixes,
)
from repro.apps.sor import SorProblem, run_sequential_sor, sor_main
from repro.apps.sor.sequential import DEFAULT_POINT_UPDATE_US
from repro.errors import AmberError, InvocationError, SynchronizationError
from repro.placement.policies import PlacementPolicy
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import AmberObject, Cluster
from repro.runtime.programtext import REFUSED, WakeupToken
from repro.sim import sync
from repro.sim import syscalls as sc
from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram
from repro.sim.sync import Barrier, CondVar, Lock, Monitor
from tests.live_helpers import move_behind_the_drivers_back

NODES = 3


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=NODES) as c:
        yield c


def on_sim(main, *args):
    config = ClusterConfig(nodes=NODES, cpus_per_node=1)
    return AmberProgram(config).run(main, *args).value


class Box(SimObject):
    def __init__(self, value=0):
        self.value = value

    def add(self, ctx, n):
        yield sc.Charge(1.0)
        self.value += n
        return self.value

    def get(self, ctx):
        return self.value

    def where(self, ctx):
        return ctx.node

    def identity(self, ctx):
        return self.vaddr, self.immutable

    def where_of(self, ctx, other):
        return (yield sc.Invoke(other, "where"))

    def fast_get(self, ctx, other):
        return (yield sc.FastInvoke(other, "get"))

    def span(self, ctx, us):
        """Whether this operation ended on another node than it began."""
        start = ctx.node
        yield sc.Compute(us)
        return start != ctx.node

    def _helper(self, ctx):
        return "internals"


class Gate(SimObject):
    """Wake-ups that race ahead of their ``Suspend``."""

    def __init__(self):
        self.waiter = None

    def woken_by_a_fork(self, ctx):
        self.waiter = ctx.thread
        opener = yield sc.Fork(self, "open")
        yield sc.Suspend("gate")
        yield sc.Join(opener)
        return "woken"

    def open(self, ctx):
        yield sc.Wakeup(self.waiter)

    def woken_by_itself(self, ctx):
        yield sc.Wakeup(ctx.thread)
        yield sc.Suspend("kept")
        return "kept"

    def remember(self, ctx):
        self.waiter = ctx.thread


class Tally(SimObject):
    """A total whose read and write are two invocations: exact only
    under a lock."""

    def __init__(self):
        self.total = 0

    def read(self, ctx):
        return self.total

    def write(self, ctx, total):
        yield sc.Charge(1.0)
        self.total = total


class Buffer(SimObject):
    """A bounded buffer on a Monitor and two CondVars, each wait in its
    predicate loop (Mesa)."""

    def __init__(self, capacity, monitor, not_full, not_empty):
        self.capacity = capacity
        self.monitor = monitor
        self.not_full = not_full
        self.not_empty = not_empty
        self.items = []

    def put(self, ctx, item):
        yield sc.Invoke(self.monitor, "enter")
        while len(self.items) >= self.capacity:
            yield sc.Invoke(self.not_full, "wait")
        self.items.append(item)
        yield sc.Invoke(self.not_empty, "signal")
        yield sc.Invoke(self.monitor, "exit")

    def take(self, ctx):
        yield sc.Invoke(self.monitor, "enter")
        while not self.items:
            yield sc.Invoke(self.not_empty, "wait")
        item = self.items.pop(0)
        yield sc.Invoke(self.not_full, "signal")
        yield sc.Invoke(self.monitor, "exit")
        return item


class Latch(SimObject):
    """Opened by one broadcast, once every waiter is waiting."""

    def __init__(self, monitor, arrived, opened):
        self.monitor = monitor
        self.arrived = arrived
        self.opened = opened
        self.waiting = 0
        self.open = False

    def pass_through(self, ctx):
        yield sc.Invoke(self.monitor, "enter")
        self.waiting += 1
        yield sc.Invoke(self.arrived, "signal")
        while not self.open:
            yield sc.Invoke(self.opened, "wait")
        yield sc.Invoke(self.monitor, "exit")
        return True

    def open_for(self, ctx, waiters):
        yield sc.Invoke(self.monitor, "enter")
        while self.waiting < waiters:
            yield sc.Invoke(self.arrived, "wait")
        self.open = True
        yield sc.Invoke(self.opened, "broadcast")
        yield sc.Invoke(self.monitor, "exit")


class Peer(SimObject):
    """Where a program's threads start: every touch of a shared object
    is an invocation of it."""

    def bump(self, ctx, lock, tally, times):
        for _ in range(times):
            yield sc.Invoke(lock, "acquire")
            total = yield sc.Invoke(tally, "read")
            yield sc.Invoke(tally, "write", total + 1)
            yield sc.Invoke(lock, "release")

    def arrive(self, ctx, barrier, cycles):
        serials = []
        for _ in range(cycles):
            serials.append((yield sc.Invoke(barrier, "wait")))
        return serials

    def produce(self, ctx, buffer, count):
        for item in range(count):
            yield sc.Invoke(buffer, "put", item)

    def consume(self, ctx, buffer, count):
        items = []
        for _ in range(count):
            items.append((yield sc.Invoke(buffer, "take")))
        return items

    def release(self, ctx, lock):
        try:
            yield sc.Invoke(lock, "release")
        except SynchronizationError as error:
            return type(error).__name__
        return "released"

    def cycle(self, ctx, lock):
        yield sc.Invoke(lock, "acquire")
        yield sc.Invoke(lock, "release")

    def call(self, ctx, target, method):
        return (yield sc.Invoke(target, method))


# -- programs --------------------------------------------------------------


def coverage_main(ctx):
    """Every request the live runtime serves, once."""
    answers = {}
    here = yield sc.New(Box, 1)
    there = yield sc.New(Box, 2, on_node=1)
    answers["local invoke"] = yield sc.Invoke(here, "add", 10)
    answers["remote invoke"] = yield sc.Invoke(there, "add", 10)
    answers["runs where the object is"] = yield sc.Invoke(there, "where")
    partner = yield sc.New(Box, 5)
    yield sc.Attach(here, partner)
    answers["fast invoke, attached"] = yield sc.Invoke(here, "fast_get",
                                                       partner)
    thread = yield sc.Fork(there, "add", 1)
    answers["fork/join"] = yield sc.Join(thread)
    yield sc.MoveTo(there, 2)
    answers["locate after move"] = yield sc.Locate(there)
    answers["state moved along"] = yield sc.Invoke(there, "get")
    yield sc.MoveTo(here, 1)
    answers["group moved"] = ((yield sc.Locate(here)),
                              (yield sc.Locate(partner)))
    yield sc.Unattach(here)
    yield sc.MoveTo(here, 2)
    answers["unattached moves alone"] = ((yield sc.Locate(here)),
                                         (yield sc.Locate(partner)))
    frozen = yield sc.New(Box, 7)
    yield sc.SetImmutable(frozen)
    yield sc.MoveTo(frozen, 2)
    answers["a copy leaves the original"] = yield sc.Locate(frozen)
    answers["the copy is read where it went"] = yield sc.Invoke(
        there, "where_of", frozen)
    doomed = yield sc.New(Box)
    yield sc.Delete(doomed)
    try:
        yield sc.Invoke(doomed, "get")
    except AmberError as error:
        answers["deleted"] = type(error).__name__
    yield sc.Compute(5.0)
    yield sc.Charge(1.0)
    yield sc.Yield()
    return answers


COVERAGE = {
    "local invoke": 11,
    "remote invoke": 12,
    "runs where the object is": 1,
    "fast invoke, attached": 5,
    "fork/join": 13,
    "locate after move": 2,
    "state moved along": 13,
    "group moved": (1, 1),
    "unattached moves alone": (2, 1),
    "a copy leaves the original": 0,
    "the copy is read where it went": 2,
    "deleted": "ObjectNotFoundError",
}


def bad_names_main(ctx):
    box = yield sc.New(Box, 1, on_node=2)
    names = []
    for method in ("no_such_operation", "__init__", "_helper"):
        try:
            yield sc.Invoke(box, method)
        except AmberError as error:
            names.append(type(error).__name__)
    names.append((yield sc.Invoke(box, "get")))
    return names


def matmul_main(ctx, a, b_values, replicate):
    b = yield sc.New(MatrixB, b_values)
    if replicate:
        yield sc.SetImmutable(b)
    rows = a.shape[0]
    workers = []
    for node in range(NODES):
        block = a[rows * node // NODES:rows * (node + 1) // NODES]
        workers.append((yield sc.New(RowBlockWorker, block, b, 8,
                                     DEFAULT_MAC_US, on_node=node)))
    threads = []
    for worker in workers:
        threads.append((yield sc.Fork(worker, "multiply")))
    for thread in threads:
        yield sc.Join(thread)
    blocks = []
    for worker in workers:
        blocks.append((yield sc.Invoke(worker, "collect")))
    return np.vstack(blocks), (yield sc.Locate(b))


def fast_unattached_main(ctx):
    a = yield sc.New(Box, 1)
    b = yield sc.New(Box, 5)
    try:
        return (yield sc.Invoke(a, "fast_get", b))
    except InvocationError as error:
        return type(error).__name__


def compute_main(ctx):
    start = ctx.now_us
    yield sc.Compute(1e6)
    yield sc.Charge(1e6)
    return ctx.now_us - start >= 2e6


def move_main(ctx):
    box = yield sc.New(Box, on_node=1)
    timer = yield sc.New(Box, on_node=2)
    thread = yield sc.Fork(box, "span", 50_000.0)
    # Away for 10 ms of simulated time: the fork starts its span.
    yield sc.Invoke(timer, "span", 10_000.0)
    yield sc.MoveTo(box, 2)
    return (yield sc.Join(thread))


def refused_main(ctx, request):
    try:
        yield request
    except AmberError as error:
        return type(error).__name__, str(error)
    return "served"


def self_view_main(ctx):
    """An operation reads its own object's address and flag."""
    box = yield sc.New(Box, on_node=1)
    before = yield sc.Invoke(box, "identity")
    yield sc.SetImmutable(box)
    after = yield sc.Invoke(box, "identity")
    return before == (box.vaddr, False), after == (box.vaddr, True)


def race_main(ctx):
    gate = yield sc.New(Gate, on_node=1)
    return ((yield sc.Invoke(gate, "woken_by_a_fork")),
            (yield sc.Invoke(gate, "woken_by_itself")))


def not_a_thread_main(ctx):
    errors = []
    for request in (sc.Join(None), sc.Wakeup(None)):
        try:
            yield request
        except InvocationError as error:
            errors.append(str(error))
    return errors


def lonely_main(ctx):
    """Two Wakeups bank one: the second Suspend is one nothing wakes."""
    yield sc.Wakeup(ctx.thread)
    yield sc.Wakeup(ctx.thread)
    yield sc.Suspend("once")
    yield sc.Suspend("nobody")


def double_join_main(ctx):
    box = yield sc.New(Box, 1, on_node=1)
    thread = yield sc.Fork(box, "add", 1)
    first = yield sc.Join(thread)
    try:
        return first, (yield sc.Join(thread))
    except AmberError as error:
        return first, type(error).__name__


def move_a_waiter_main(ctx):
    gate = yield sc.New(Gate, on_node=1)
    yield sc.Invoke(gate, "remember")
    try:
        yield sc.MoveTo(gate, 2)
    except TypeError as error:
        return type(error).__name__, (yield sc.Locate(gate))
    return (yield sc.Locate(gate))


def forks_on_every_node(method, *args, per_node=1):
    """Fork ``method`` of a new :class:`Peer` on each node, ``per_node``
    times; join them all and return their answers."""
    threads = []
    for node in range(NODES):
        peer = yield sc.New(Peer, on_node=node)
        for _ in range(per_node):
            threads.append((yield sc.Fork(peer, method, *args)))
    answers = []
    for thread in threads:
        answers.append((yield sc.Join(thread)))
    return answers


def locked_tally_main(ctx):
    lock = yield sc.New(Lock, on_node=1)
    tally = yield sc.New(Tally, on_node=2)
    yield from forks_on_every_node("bump", lock, tally, 5, per_node=2)
    return (yield sc.Invoke(tally, "read"))


def barrier_cycles_main(ctx):
    """How many parties were told they came last, per cycle."""
    barrier = yield sc.New(Barrier, NODES, on_node=0)
    serials = yield from forks_on_every_node("arrive", barrier, 4)
    return [sum(cycle) for cycle in zip(*serials)]


def bounded_buffer_main(ctx):
    monitor = yield sc.New(Monitor, on_node=1)
    not_full = yield sc.New(CondVar, monitor, on_node=1)
    not_empty = yield sc.New(CondVar, monitor, on_node=1)
    buffer = yield sc.New(Buffer, 2, monitor, not_full, not_empty,
                          on_node=1)
    producer = yield sc.New(Peer, on_node=0)
    consumer = yield sc.New(Peer, on_node=2)
    sending = yield sc.Fork(producer, "produce", buffer, 12)
    taking = yield sc.Fork(consumer, "consume", buffer, 12)
    yield sc.Join(sending)
    return (yield sc.Join(taking))


def broadcast_gate_main(ctx):
    monitor = yield sc.New(Monitor, on_node=2)
    arrived = yield sc.New(CondVar, monitor, on_node=2)
    opened = yield sc.New(CondVar, monitor, on_node=2)
    latch = yield sc.New(Latch, monitor, arrived, opened, on_node=2)
    threads = []
    for node in range(NODES):
        peer = yield sc.New(Peer, on_node=node)
        for _ in range(2):
            threads.append((yield sc.Fork(peer, "call", latch,
                                          "pass_through")))
    yield sc.Invoke(latch, "open_for", len(threads))
    passed = []
    for thread in threads:
        passed.append((yield sc.Join(thread)))
    return passed


def non_owner_main(ctx):
    """Another thread's release fails; the owner's succeeds."""
    lock = yield sc.New(Lock, on_node=1)
    yield sc.Invoke(lock, "acquire")
    peer = yield sc.New(Peer, on_node=2)
    thief = yield sc.Join((yield sc.Fork(peer, "release", lock)))
    yield sc.Invoke(lock, "release")
    return thief, (yield sc.Invoke(lock, "try_acquire"))


def unheld_wait_main(ctx):
    """A wait by a thread that does not hold the monitor: the monitor's
    ``exit`` refuses it."""
    monitor = yield sc.New(Monitor, on_node=1)
    cond = yield sc.New(CondVar, monitor, on_node=1)
    try:
        yield sc.Invoke(cond, "wait")
    except SynchronizationError as error:
        return str(error)


#: Name -> (program, the answer both backends give).
SYNC_PROGRAMS = {
    "locked-tally": (locked_tally_main, NODES * 2 * 5),
    "barrier-cycles": (barrier_cycles_main, [1] * 4),
    "bounded-buffer": (bounded_buffer_main, list(range(12))),
    "broadcast-gate": (broadcast_gate_main, [True] * NODES * 2),
    "non-owner-release": (non_owner_main, ("SynchronizationError", True)),
    "wait-without-the-monitor": (
        unheld_wait_main, "CondVar.wait without holding the monitor"),
}


def move_a_held_lock_main(ctx):
    lock = yield sc.New(Lock, on_node=1)
    yield sc.Invoke(lock, "acquire")
    try:
        yield sc.MoveTo(lock, 2)
    except TypeError as error:
        answer = type(error).__name__, (yield sc.Locate(lock))
    else:
        answer = yield sc.Locate(lock)
    yield sc.Invoke(lock, "release")
    return answer


#: Name -> (problem, sections, workers per section, overlap): the shapes
#: the live-only SOR program was tested at, no overlap (the only path
#: through the ``sor-sends`` Suspend) and two workers per section.
PROBLEM = SorProblem(rows=10, cols=24, iterations=6)
SOR_CASES = {
    "3-sections": (PROBLEM, 3, 1, True),
    "5-sections": (PROBLEM, 5, 1, True),
    "1-section": (PROBLEM, 1, 1, True),
    "23-uneven-columns": (SorProblem(rows=8, cols=23, iterations=4), 3, 1,
                          True),
    "no-overlap": (PROBLEM, 3, 1, False),
    "2-workers": (PROBLEM, 3, 2, True),
}


#: Where the backends answer differently by design (DESIGN.md, "One
#: program text, two backends"): name -> (program, the simulator's
#: answer, the live answer, why).
DIFFERENCES = {
    "fast-invoke-unattached": (
        fast_unattached_main, "InvocationError", 5,
        "FastInvoke's co-residency check is simulator-only: live, a "
        "FastInvoke is an Invoke"),
    "move-during-operation": (
        move_main, True, False,
        "a live MoveTo drains the group's running operations instead of "
        "migrating their threads, so an operation ends where it began"),
    "compute-takes-time": (
        compute_main, True, False,
        "Compute and Charge spend simulated time; live they take none"),
    "double-join": (
        double_join_main, (2, 2), (2, "AmberError"),
        "a simulated thread hands its result to every Join; a live "
        "thread's reply is delivered once, so a second Join raises "
        "(lifecycle.Pending.join)"),
    "a-waiter-cannot-move": (
        move_a_waiter_main, 2, ("TypeError", 1),
        "a live ctx.thread is a wake-up token that holds a lock and does "
        "not pickle, so a move of an object holding one is refused and "
        "the object stays; a simulated thread is a reference"),
    "a-held-lock-cannot-move": (
        move_a_held_lock_main, 2, ("TypeError", 1),
        "a held lock's owner is its thread's wake-up token, which does not "
        "pickle: live, the move is refused and the lock stays; the owner "
        "still releases it"),
}

#: One instance of each refused request.
REFUSED_REQUESTS = {
    "NewThread": lambda: sc.NewThread(None, "run"),
    "Start": lambda: sc.Start(None),
    "Sleep": lambda: sc.Sleep(1.0),
    "SetScheduler": lambda: sc.SetScheduler(0, None),
    "Refresh": lambda: sc.Refresh(None),
    "GetStats": lambda: sc.GetStats(),
}


# -- the answers -----------------------------------------------------------


def test_queens_counts_agree(cluster):
    args = (6, NODES, 1, 2, 2, DEFAULT_NODE_COST_US, PlacementPolicy())
    sim_solutions, sim_visited, sim_units, sim_per_worker = on_sim(
        queens_main, *args)
    solutions, visited, units, per_worker = cluster.run(queens_main, *args)
    assert solutions == sim_solutions == KNOWN_SOLUTIONS[6]
    assert units == sim_units == len(seed_prefixes(6, 2))
    assert sum(per_worker) == sum(sim_per_worker) == units
    assert visited == sim_visited


@pytest.mark.parametrize("replicate", [True, False])
def test_matmul_products_agree(cluster, replicate):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 24), dtype=np.float32)
    b = rng.standard_normal((24, 24), dtype=np.float32)
    sim_product, sim_b_at = on_sim(matmul_main, a, b, replicate)
    product, b_at = cluster.run(matmul_main, a, b, replicate)
    assert product.tobytes() == sim_product.tobytes()
    assert b_at == sim_b_at == 0
    assert np.allclose(product, a @ b, rtol=1e-4, atol=1e-4)


def test_every_served_request_agrees(cluster):
    assert on_sim(coverage_main) == cluster.run(coverage_main) == COVERAGE


def test_an_underscore_name_is_no_operation_on_either_backend(cluster):
    expected = ["InvocationError"] * 3 + [1]
    assert on_sim(bad_names_main) == cluster.run(bad_names_main) == expected


@pytest.mark.parametrize("name", sorted(SOR_CASES))
def test_sor_grids_agree(cluster, name):
    problem, sections, workers, overlap = SOR_CASES[name]
    args = (problem, NODES, sections, workers, DEFAULT_POINT_UPDATE_US,
            overlap, True, PlacementPolicy())
    sim_outcomes, _, sim_grid = on_sim(sor_main, *args)
    outcomes, _, grid = cluster.run(sor_main, *args)
    sequential = run_sequential_sor(problem).grid
    assert grid.tobytes() == sim_grid.tobytes() == sequential.tobytes()
    assert outcomes == sim_outcomes


def test_an_operation_sees_its_own_address_and_flag(cluster):
    assert on_sim(self_view_main) == cluster.run(self_view_main) \
        == (True, True)


def test_wakeups_ahead_of_their_suspend_are_kept(cluster):
    assert on_sim(race_main) == cluster.run(race_main) == ("woken", "kept")


def test_join_and_wakeup_of_a_non_thread_raise_alike(cluster):
    expected = ["Join target None is not a thread",
                "Wakeup target None is not a thread"]
    assert on_sim(not_a_thread_main) == cluster.run(not_a_thread_main) \
        == expected


def test_a_suspend_nothing_wakes_is_typed_within_its_bound(cluster,
                                                           monkeypatch):
    monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.5")     # bound: 4 x 0.5 / 2 s
    started = time.monotonic()
    with pytest.raises(SynchronizationError,
                       match=r"Suspend\('nobody'\): no Wakeup within 1 s"):
        cluster.run(lonely_main)
    assert 1.0 <= time.monotonic() - started < 5.0


def test_a_token_loses_no_wakeup_under_stress(monkeypatch):
    """Pairs ping-pong, more threads than cores: one side wakes, then
    suspends; the other suspends, then wakes — so a Wakeup lands before
    its Suspend as often as after, and each Suspend must take the one
    aimed at it."""
    monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.5")     # a lost one: 1 s, typed
    threads, rounds = 8, 300
    tokens = [WakeupToken((0, i)) for i in range(threads)]
    done, failures = [0] * threads, []

    def run(i):
        me, partner = tokens[i], tokens[i ^ 1]
        try:
            for _ in range(rounds):
                if i % 2:
                    me.suspend("ping")
                    partner.wakeup()
                else:
                    partner.wakeup()
                    me.suspend("ping")
                done[i] += 1
        except SynchronizationError as error:
            failures.append(error)

    workers = [threading.Thread(target=run, args=(i,))
               for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert done == [rounds] * threads


class Counter(AmberObject):
    def __init__(self, value=0):
        self.value = value

    def add(self, n):
        self.value += n
        return self.value


def test_a_live_call_cannot_rerun_the_constructor(cluster):
    counter = cluster.create(Counter, 40, node=1)
    with pytest.raises(InvocationError):
        cluster.call(counter, "__init__", 0)
    assert counter.add(0) == 40


def test_the_runtime_sync_classes_are_the_simulators():
    for name in ("Lock", "Monitor", "Barrier", "CondVar"):
        assert getattr(repro.runtime, name) is getattr(sync, name)


@pytest.mark.parametrize("name", sorted(SYNC_PROGRAMS))
def test_sync_programs_agree(cluster, name):
    main, answer = SYNC_PROGRAMS[name]
    assert on_sim(main) == cluster.run(main) == answer


def lock_twice_main(ctx, lock):
    """Acquire and release in two invocations, by this thread and by a
    forked one."""
    yield sc.Invoke(lock, "acquire")
    yield sc.Invoke(lock, "release")
    peer = yield sc.New(Peer, on_node=2)
    yield sc.Join((yield sc.Fork(peer, "cycle", lock)))


class Holder(AmberObject):
    def cycle(self, lock):
        lock.acquire()
        lock.release()


def test_a_live_lock_knows_its_owner_across_activations(cluster):
    """Acquire and release are two activations of one logical thread,
    from the driver, an AmberObject (called and forked) and program
    text; one lock's acquire chases a forwarding address."""
    here, there, chased = (cluster.create(Lock, node=node)
                           for node in (0, 1, 1))
    move_behind_the_drivers_back(cluster, chased, 2)
    forwards = cluster.node_stats(1)["forwards"]
    holder = cluster.create(Holder, node=2)
    for lock in (here, there, chased):
        cluster.call(lock, "acquire")
        cluster.call(lock, "release")
        holder.cycle(lock)
        cluster.fork(holder, "cycle", lock).join(timeout=30)
        cluster.run(lock_twice_main, lock)
        assert lock.try_acquire() is True
        assert lock.try_acquire() is False
        lock.release()
    assert cluster.node_stats(1)["forwards"] == forwards + 1
    assert cluster.locate(chased) == 2


@pytest.mark.parametrize("name", sorted(DIFFERENCES))
def test_expected_difference(cluster, name):
    main, sim_answer, live_answer, _why = DIFFERENCES[name]
    assert on_sim(main) == sim_answer
    assert cluster.run(main) == live_answer


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_refused_request_is_thrown_in_typed(cluster, name):
    assert cluster.run(refused_main, REFUSED_REQUESTS[name]()) == (
        "AmberError", f"{name} is not on the live runtime")
