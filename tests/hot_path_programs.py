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
