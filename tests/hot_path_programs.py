"""Small fixed programs that exercise the simulator's per-event path.

Shared by ``test_hot_path_identity`` (every observable of these runs is
pinned to a golden file) and ``test_hot_path_budget`` (the Python-level
call count of the mobility program is bounded).  Each ``run_*`` builds
its own cluster, so the programs are independent and deterministic.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.apps.sor.amber_sor import run_amber_sor
from repro.apps.sor.grid import SorProblem
from repro.errors import NodeFailure
from repro.faults import FaultPlan, NodeCrash
from repro.recovery import RecoveryConfig
from repro.sim import (
    AmberProgram,
    Attach,
    Barrier,
    Charge,
    ClusterConfig,
    Compute,
    FastInvoke,
    Fork,
    Invoke,
    Join,
    Locate,
    Lock,
    MoveTo,
    New,
    SetImmutable,
    SimObject,
    Sleep,
)

HIT, MOVE, LOCATE, READ = range(4)
Plan = List[Tuple[int, int, int]]

MOBILITY_NODES = 8
MOBILITY_TOKENS = 16
MOBILITY_CHASERS = 16
MOBILITY_OPS = 40
MOBILITY_SEED = 1989
TABLE_ENTRIES = 64


def run_sor(tracer=None):
    """SOR 40x280 on 4Nx2P, four iterations."""
    problem = SorProblem(rows=40, cols=280, iterations=4)
    return run_amber_sor(problem, nodes=4, cpus_per_node=2, tracer=tracer)


class Satchel(SimObject):
    SIZE_BYTES = 128

    def __init__(self):
        self.total = 0

    def put(self, ctx, n):
        self.total += n
        return self.total


class Token(SimObject):
    SIZE_BYTES = 128

    def __init__(self, satchel):
        self.hits = 0
        self.satchel = satchel

    def hit(self, ctx, n):
        self.hits += n
        # Attached, hence co-resident wherever the pair has moved to.
        yield FastInvoke(self.satchel, "put", n)
        return self.hits


class Table(SimObject):
    SIZE_BYTES = 1024

    def __init__(self, values):
        self.values = values

    def lookup(self, ctx, index):
        return self.values[index]


class Chaser(SimObject):
    SIZE_BYTES = 64

    def run(self, ctx, tokens, table, plan):
        read_sum = 0
        located = []
        for op, a, b in plan:
            if op == HIT:
                yield Invoke(tokens[a], "hit", b)
            elif op == MOVE:
                yield MoveTo(tokens[a], b)
            elif op == LOCATE:
                located.append((yield Locate(tokens[a])))
            else:
                read_sum += yield Invoke(table, "lookup", a)
        return read_sum, located


def mobility_plans() -> List[Plan]:
    """The seeded plan: 60 % hit a token wherever it is, 15 % move one,
    10 % locate one, 15 % read the replicated table."""
    rng = random.Random(MOBILITY_SEED)
    plans = []
    for _ in range(MOBILITY_CHASERS):
        plan: Plan = []
        for _ in range(MOBILITY_OPS):
            draw = rng.random()
            if draw < 0.60:
                plan.append((HIT, rng.randrange(MOBILITY_TOKENS),
                             rng.randrange(1, 10)))
            elif draw < 0.75:
                plan.append((MOVE, rng.randrange(MOBILITY_TOKENS),
                             rng.randrange(MOBILITY_NODES)))
            elif draw < 0.85:
                plan.append((LOCATE, rng.randrange(MOBILITY_TOKENS), 0))
            else:
                plan.append((READ, rng.randrange(TABLE_ENTRIES), 0))
        plans.append(plan)
    return plans


def _mobility_main(ctx, plans):
    table = yield New(Table, tuple(range(TABLE_ENTRIES)))
    yield SetImmutable(table)
    tokens = []
    for index in range(MOBILITY_TOKENS):
        satchel = yield New(Satchel)
        token = yield New(Token, satchel)
        yield Attach(satchel, token)
        if index % MOBILITY_NODES:
            yield MoveTo(token, index % MOBILITY_NODES)
        tokens.append(token)
    threads = []
    for index, plan in enumerate(plans):
        chaser = yield New(Chaser, on_node=index % MOBILITY_NODES)
        threads.append((yield Fork(chaser, "run", tokens, table, plan,
                                   name=f"chaser{index}")))
    outcomes = []
    for thread in threads:
        outcomes.append((yield Join(thread)))
    return outcomes, [token.hits for token in tokens]


def run_mobility(tracer=None):
    """Seeded chase/move/locate/replicate/FastInvoke on 8Nx2P."""
    config = ClusterConfig(nodes=MOBILITY_NODES, cpus_per_node=2)
    return AmberProgram(config).run(_mobility_main, mobility_plans(),
                                    tracer=tracer)


class Account(SimObject):
    SIZE_BYTES = 64

    def __init__(self, lock, barrier):
        self.lock = lock
        self.barrier = barrier
        self.balance = 0

    def work(self, ctx, rounds, amount):
        last_arrivals = 0
        for _ in range(rounds):
            yield Invoke(self.lock, "acquire")
            yield Compute(30.0)
            self.balance += amount
            yield Invoke(self.lock, "release")
            yield Charge(5.0)
            last_arrivals += yield Invoke(self.barrier, "wait")
        return last_arrivals


def _forkjoin_main(ctx, workers, rounds):
    lock = yield New(Lock)
    barrier = yield New(Barrier, workers)
    account = yield New(Account, lock, barrier, on_node=1)
    threads = []
    for index in range(workers):
        threads.append((yield Fork(account, "work", rounds, index + 1,
                                   name=f"worker{index}")))
    last_arrivals = 0
    for thread in threads:
        last_arrivals += yield Join(thread)
    return account.balance, last_arrivals


def run_forkjoin(tracer=None):
    """Fork-join with a contended Lock and a Barrier on 2Nx2P."""
    config = ClusterConfig(nodes=2, cpus_per_node=2)
    return AmberProgram(config).run(_forkjoin_main, 6, 5, tracer=tracer)


# ---------------------------------------------------------------------
# Faulted and recovering programs: the location chase's failure paths
# and the crash-recovery subsystem, pinned like the fault-free ones.
# ---------------------------------------------------------------------


class Relic(SimObject):
    SIZE_BYTES = 128

    def __init__(self, value=41):
        self.value = value

    def poke(self, ctx):
        if False:
            yield None
        return self.value + 1, ctx.node


class Prober(SimObject):
    SIZE_BYTES = 128

    def __init__(self, relic):
        self.relic = relic

    def run(self, ctx, sleep_us):
        # Locate caches a forwarding hint here via path compression.
        yield Locate(self.relic)
        yield Sleep(sleep_us)
        # By now the relic moved home and its last host is dead: the
        # cached hint is a trap.
        return (yield Invoke(self.relic, "poke"))


def _stale_hint_main(ctx):
    relic = yield New(Relic)                # home: node 0
    yield MoveTo(relic, 2)
    prober = yield New(Prober, relic)
    yield MoveTo(prober, 1)
    thread = yield Fork(prober, "run", 300_000.0)
    yield Sleep(50_000.0)
    yield MoveTo(relic, 0)                  # back home; node 1's hint
    return (yield Join(thread))             # now points at a dead end


def run_stale_hint(tracer=None):
    """The ``repro faults`` mobility plan (seed 0): a stale hint to a
    permanently dead node is shed and the chase falls back to the home
    node, under 2 % message loss."""
    plan = FaultPlan(
        seed=0, drop_rate=0.02, rto_us=1_000.0, rto_cap_us=32_000.0,
        max_attempts=8,
        crashes=(NodeCrash(node=2, at_us=150_000.0, restart_us=None),))
    config = ClusterConfig(nodes=3, cpus_per_node=2)
    return AmberProgram(config, faults=plan).run(_stale_hint_main,
                                                 tracer=tracer)


class Counter(SimObject):
    SIZE_BYTES = 128

    def __init__(self, value=0):
        self.value = value

    def add(self, ctx, n):
        yield Compute(2.0)
        self.value += n
        return self.value


def _cyclic_chain_main(ctx):
    chased = yield New(Counter, 40)         # all four homed on node 0
    located = yield New(Counter, 7)
    for counter in (chased, located):
        yield MoveTo(counter, 1)
        yield MoveTo(counter, 2)            # 0 -> 1 -> 2
    probed = yield New(Counter, 10)
    asked = yield New(Counter, 20)
    for counter in (probed, asked):
        yield MoveTo(counter, 1)            # parked behind the crash
    yield Sleep(70_000.0)
    # Node 1 is down: the home's own entry points at the corpse, so a
    # migrating thread and a control message can only probe it.
    helper = yield Fork(probed, "add", 1, name="helper")
    parked = yield Locate(asked)
    # Node 1 is back but shed its links; node 0 still points at it and
    # it bounces requests back to the home (node 0) — a cycle that
    # excludes the holder.
    value = yield Invoke(chased, "add", 2)  # thread chase
    where = yield Locate(located)           # control-message chase
    after = yield Invoke(located, "add", 1)
    return value, where, after, parked, (yield Join(helper))


def run_cyclic_chain(tracer=None):
    """A crash + restart of node 1: objects behind it are probed until
    it returns, and the two cyclic chains its restart leaves are
    repaired by broadcast, one from a migrating thread, one from a
    Locate."""
    plan = FaultPlan(
        seed=3, rto_us=1_000.0, rto_cap_us=8_000.0, max_attempts=4,
        crashes=(NodeCrash(node=1, at_us=100_000.0,
                           restart_us=160_000.0),))
    config = ClusterConfig(nodes=3, cpus_per_node=2)
    return AmberProgram(config, faults=plan).run(_cyclic_chain_main,
                                                 tracer=tracer)


class Pounder(SimObject):
    SIZE_BYTES = 128

    def __init__(self, counter):
        self.counter = counter

    def pound(self, ctx, rounds, think_us):
        total = 0
        for _ in range(rounds):
            total = yield Invoke(self.counter, "add", 1)
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


class Outer(SimObject):
    SIZE_BYTES = 128

    def __init__(self, inner):
        self.inner = inner

    def call_through(self, ctx, linger_us):
        value = yield Invoke(self.inner, "bump")
        yield Compute(linger_us)            # the crash lands here
        return value

    def spawn(self, ctx, linger_us):
        """A thread born and working on this node: it never migrated,
        so no caller holds a replay entry for it."""
        return (yield Fork(self, "linger", linger_us, name="doomed"))

    def linger(self, ctx, linger_us):
        yield Compute(linger_us)


def _recovery_main(ctx):
    inner = yield New(Inner, on_node=2)
    outer = yield New(Outer, inner, on_node=1)
    counter = yield New(Counter, 0, on_node=1)
    pounder = yield New(Pounder, counter, on_node=2)
    doomed = yield Invoke(outer, "spawn", 80_000.0)
    nested = yield Fork(outer, "call_through", 80_000.0, name="nested")
    pounding = yield Fork(pounder, "pound", 40, 1_000.0, name="pounding")
    value = yield Join(nested)
    total = yield Join(pounding)
    try:
        yield Join(doomed)
        lost = None
    except NodeFailure as failure:
        lost = str(failure)
    where = yield Locate(inner)
    return value, total, inner.count, lost, where


def run_recovery(tracer=None):
    """``recovery=RecoveryConfig()`` and a permanent crash of node 1:
    birth and write-through checkpoints, promotion, a nested
    replay whose inner call is suppressed, a replayed pounder, and one
    unrecoverable thread failing its joiner with NodeFailure."""
    plan = FaultPlan(
        seed=0, rto_us=1_000.0, rto_cap_us=8_000.0, max_attempts=4,
        crashes=(NodeCrash(node=1, at_us=30_000.0),))
    config = ClusterConfig(nodes=3, cpus_per_node=2)
    return AmberProgram(config, faults=plan,
                        recovery=RecoveryConfig()).run(_recovery_main,
                                                       tracer=tracer)


class Mover(SimObject):
    SIZE_BYTES = 64

    def shove(self, ctx, counter, dest):
        yield MoveTo(counter, dest)
        return (yield Locate(counter))


def _move_race_main(ctx):
    counter = yield New(Counter, 5)         # resident on node 0
    threads = []
    for node, dest in ((1, 2), (2, 3), (3, 1)):
        mover = yield New(Mover, on_node=node)
        threads.append((yield Fork(mover, "shove", counter, dest,
                                   name=f"mover{node}")))
    seen = []
    for thread in threads:
        seen.append((yield Join(thread)))
    return seen, (yield Locate(counter))


def run_move_race(tracer=None):
    """Three remote MoveTo requests reach the holder inside one
    move-setup window: the losers find the object gone at
    ``setup_done`` and re-route to wherever it went."""
    config = ClusterConfig(nodes=4, cpus_per_node=1)
    return AmberProgram(config).run(_move_race_main, tracer=tracer)
