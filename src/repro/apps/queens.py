"""Parallel N-Queens over a distributed work pool.

The paper's SOR study covers regular, static parallelism.  Its
introduction promises more: "a dynamic program structure that can express
and benefit from locality".  This application exercises the dynamic side
of the model on both backends — an irregular tree search whose work units
have wildly uneven costs, load-balanced through a shared pool object:

* a **WorkPool** object (one node) seeded with every partial placement of
  the first ``split_depth`` queens;
* one **worker thread per CPU**, anchored to a per-node Worker object;
  each loops: take a prefix from the pool (a remote invocation for most
  workers — function shipping again), count all completions beneath it
  locally, report the tally back;
* counting is real (a bitmask DFS); simulated time is charged per search
  node visited, so load imbalance and pool contention behave like the
  real thing.

The pool is the kind of mutable, hot object the paper's model handles
well: it stays put, and the *threads* come to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.costs import CostModel
from repro.placement.policies import PlacementPolicy
from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram
from repro.sim.stats import ClusterStats
from repro.sim.syscalls import Charge, Compute, Fork, Invoke, Join, New

#: Simulated CPU cost per search-tree node visited, microseconds
#: (CVAX-class: bound checks, mask updates, call overhead).
DEFAULT_NODE_COST_US = 20.0

#: Known solution counts for verification.
KNOWN_SOLUTIONS = {1: 1, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352,
                   10: 724, 11: 2680, 12: 14200}


def count_completions(n: int, columns: Tuple[int, ...]
                      ) -> Tuple[int, int]:
    """Count solutions extending ``columns`` (queens already placed in
    rows 0..len(columns)-1); returns (solutions, nodes_visited)."""
    full = (1 << n) - 1
    cols = diag1 = diag2 = 0
    for row, col in enumerate(columns):
        bit = 1 << col
        if cols & bit or diag1 & (bit << row) or \
                diag2 & (bit << (n - 1 - row)):
            return 0, 0   # prefix already conflicts
        cols |= bit
        diag1 |= bit << row
        diag2 |= bit << (n - 1 - row)

    def search(row: int, cols: int, d1: int, d2: int) -> Tuple[int, int]:
        if row == n:
            return 1, 0
        solutions = 0
        visited = 0
        free = full & ~(cols | (d1 >> row) | (d2 >> (n - 1 - row)))
        while free:
            bit = free & -free
            free ^= bit
            visited += 1
            sub_solutions, sub_visited = search(
                row + 1, cols | bit, d1 | (bit << row),
                d2 | (bit << (n - 1 - row)))
            solutions += sub_solutions
            visited += sub_visited
        return solutions, visited

    return search(len(columns), cols, diag1, diag2)


def seed_prefixes(n: int, split_depth: int) -> List[Tuple[int, ...]]:
    """All non-conflicting placements of the first ``split_depth``
    queens — the work units."""
    prefixes: List[Tuple[int, ...]] = [()]
    for _ in range(split_depth):
        extended = []
        for prefix in prefixes:
            for col in range(n):
                candidate = prefix + (col,)
                if not _conflicts(n, candidate):
                    extended.append(candidate)
        prefixes = extended
    return prefixes


def _conflicts(n: int, columns: Tuple[int, ...]) -> bool:
    for i, a in enumerate(columns):
        for j in range(i + 1, len(columns)):
            b = columns[j]
            if a == b or abs(a - b) == j - i:
                return True
    return False


class WorkPool(SimObject):
    """The shared pool: take work, report results.  Deliberately simple —
    all synchronization is the object-model guarantee that operations on
    it execute on its node."""

    SIZE_BYTES = 2048

    def __init__(self, prefixes: List[Tuple[int, ...]]):
        self._work = list(reversed(prefixes))
        self.total_units = len(prefixes)
        self.solutions = 0
        self.nodes_visited = 0
        self.units_done = 0

    def take(self, ctx, batch=1):
        """Hand out up to ``batch`` work units (empty list = done).
        Batching trades pool traffic against load-balance granularity."""
        yield Charge(5.0)
        units = []
        while self._work and len(units) < batch:
            units.append(self._work.pop())
        return units

    def report(self, ctx, solutions, visited, units=1):
        yield Charge(5.0)
        self.solutions += solutions
        self.nodes_visited += visited
        self.units_done += units

    def summary(self, ctx):
        yield Charge(2.0)
        return (self.solutions, self.nodes_visited, self.units_done)


class QueensWorker(SimObject):
    """Per-node anchor for worker threads: take/solve/report until the
    pool runs dry."""

    def __init__(self, n: int, pool: WorkPool, node_cost_us: float):
        self.n = n
        self.pool = pool
        self.node_cost_us = node_cost_us
        self.units_solved = 0

    def run(self, ctx, batch=1):
        solved = 0   # this thread's tally (the anchor object is shared
        while True:  # by every worker thread on its node)
            prefixes = yield Invoke(self.pool, "take", batch)
            if not prefixes:
                return solved
            total_solutions = total_visited = 0
            for prefix in prefixes:
                solutions, visited = count_completions(self.n, prefix)
                total_solutions += solutions
                total_visited += visited
            # Charge the search cost *before* reporting: the numbers are
            # available to Python instantly, but the simulated CPU paid
            # for every node visited.
            yield Compute(total_visited * self.node_cost_us)
            yield Invoke(self.pool, "report", total_solutions,
                         total_visited, len(prefixes))
            solved += len(prefixes)
            self.units_solved += len(prefixes)


@dataclass
class QueensResult:
    n: int
    nodes: int
    cpus_per_node: int
    split_depth: int
    batch: int
    solutions: int
    nodes_visited: int
    work_units: int
    elapsed_us: float
    sequential_us: float
    stats: ClusterStats
    per_worker_units: List[int]
    #: The simulated cluster, for metrics/trace introspection.
    cluster: object = None

    @property
    def speedup(self) -> float:
        return self.sequential_us / self.elapsed_us

    @property
    def load_imbalance(self) -> float:
        """max/mean units per worker — 1.0 is perfectly even."""
        if not self.per_worker_units:
            return 1.0
        mean = sum(self.per_worker_units) / len(self.per_worker_units)
        return max(self.per_worker_units) / mean if mean else 1.0


def queens_main(ctx, n: int, nodes: int, cpus_per_node: int,
                split_depth: int, batch: int, node_cost_us: float,
                place: PlacementPolicy):
    """The search, for ``AmberProgram.run`` or the live ``Cluster.run``:
    returns ``(solutions, nodes visited, units done, units per worker
    thread)``."""
    pool = yield New(WorkPool, seed_prefixes(n, split_depth),
                     on_node=place.node_for("WorkPool", 0, None,
                                            count=1))
    workers = []
    for node in range(nodes):
        anchor = yield New(QueensWorker, n, pool, node_cost_us,
                           on_node=place.node_for(
                               "QueensWorker", node, node,
                               count=nodes))
        for _ in range(cpus_per_node):
            workers.append((yield Fork(anchor, "run", batch)))
    per_worker = []
    for worker in workers:
        per_worker.append((yield Join(worker)))
    solutions, visited, done = yield Invoke(pool, "summary")
    return solutions, visited, done, per_worker


def run_amber_queens(n: int = 10,
                     nodes: int = 2,
                     cpus_per_node: int = 4,
                     split_depth: int = 2,
                     batch: int = 1,
                     node_cost_us: float = DEFAULT_NODE_COST_US,
                     costs: Optional[CostModel] = None,
                     tracer=None,
                     faults=None,
                     placement: Optional[PlacementPolicy] = None
                     ) -> QueensResult:
    """Count N-Queens solutions on a simulated Amber cluster.

    ``placement`` overrides creation-time placement per class; the
    default policy passes the program's own choices through unchanged.
    """
    place = placement if placement is not None else PlacementPolicy()
    config = ClusterConfig(nodes=nodes, cpus_per_node=cpus_per_node)
    result = AmberProgram(config, costs, faults).run(
        queens_main, n, nodes, cpus_per_node, split_depth, batch,
        node_cost_us, place, tracer=tracer)
    solutions, visited, done, per_worker = result.value
    return QueensResult(
        n=n, nodes=nodes, cpus_per_node=cpus_per_node,
        split_depth=split_depth, batch=batch, solutions=solutions,
        nodes_visited=visited, work_units=done,
        elapsed_us=result.elapsed_us,
        sequential_us=visited * node_cost_us,
        stats=result.stats,
        per_worker_units=per_worker,
        cluster=result.cluster,
    )
