"""Recovery workload: a program whose live mutable state dies mid-run.

The fault scenarios of :mod:`repro.faults.scenario` keep crashed nodes
*restartable* — protocol retries span the outage and no state is lost.
This workload is built to survive the harder case: a node that holds
live, mutable, mid-computation objects dies **permanently**, and the run
must still produce the clean answer via checkpoint promotion and thread
resurrection (``docs/RECOVERY.md``).

``run_recovery_sor``
    Red/Black SOR over horizontal stripes.  Stripe objects (the mutable
    grid state) live on nodes ``1..N-1``; driver threads and the
    iteration barrier stay on node 0.  Drivers carry neighbour edge rows
    *by value* into each ``relax`` invocation, so a resurrected driver
    replays with identical arguments and the promoted stripe computes
    bit-identical values — grid equality with the clean run is
    structural, not probabilistic.

Why not the paper's ``sor_main``: a thread recovers by re-running from
its last migrated invocation, and a section's threads live *on* the
section.  When a section's node dies, its threads restart from their
``Fork`` while their neighbours have moved on, and the run stalls; the
``sor-unrecoverable`` scenario runs exactly that and holds it to a
typed end.

N-Queens needs no program of its own: ``queens-recover`` runs
``queens_main`` itself (:mod:`repro.recovery.scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.sor.grid import (
    BLACK,
    RED,
    VALUE_BYTES,
    SorProblem,
    count_color_points,
    make_grid,
    sweep_color,
)
from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram
from repro.sim.stats import ClusterStats
from repro.sim.sync import Barrier
from repro.sim.syscalls import Charge, Compute, Fork, Invoke, Join, New

#: Bookkeeping cost of an edge-row copy / result collection, us.
EDGE_OP_US = 5.0

TOP = 0
BOTTOM = 1


# ----------------------------------------------------------------------
# SOR over crash-prone stripes
# ----------------------------------------------------------------------


class GridStripe(SimObject):
    """One horizontal band of the grid: rows ``row0 .. row0+nrows-1``
    (global interior coordinates) plus one ghost row on each side.

    The stripe is the recovery target: it is mutable, long-lived, and —
    placed on a crash-prone node — exactly the state the checkpoint
    layer must keep promotable.
    """

    def __init__(self, index: int, row0: int, nrows: int,
                 problem: SorProblem, per_point_us: float):
        self.index = index
        self.row0 = row0
        self.nrows = nrows
        self.omega = problem.omega
        self.per_point_us = per_point_us
        # All columns (boundary included); ghost rows 0 and nrows+1.
        full = make_grid(problem)
        self.grid = full[row0:row0 + nrows + 2, :].copy()
        self.relaxations = 0

    def edge_row(self, ctx, which: int):
        """Copy out my first (TOP) or last (BOTTOM) interior row — the
        neighbour's next ghost row."""
        yield Charge(EDGE_OP_US)
        row = 1 if which == TOP else self.nrows
        return self.grid[row, :].copy()

    def relax(self, ctx, color: int, above: Optional[np.ndarray],
              below: Optional[np.ndarray]):
        """Install ghost rows and update my points of ``color``.

        The ghost rows arrive as invocation arguments, so a replayed
        ``relax`` re-executes against identical inputs; only the
        opposite-color entries of a ghost row are ever read, and those
        are stable for the whole phase (red/black independence)."""
        cols = self.grid.shape[1] - 2
        points = count_color_points(self.nrows, cols, color,
                                    row0=self.row0, col0=0)
        yield Compute(points * self.per_point_us)
        if above is not None:
            self.grid[0, :] = above
        if below is not None:
            self.grid[self.nrows + 1, :] = below
        delta = sweep_color(self.grid, self.omega, color,
                            row0=1, row1=self.nrows + 1,
                            global_row0=self.row0, global_col0=0)
        self.relaxations += 1
        return delta

    def collect(self, ctx):
        """Copy out my interior rows (result assembly)."""
        yield Charge(EDGE_OP_US)
        return self.grid[1:self.nrows + 1, :].copy()


class SorDriver(SimObject):
    """Per-stripe driver, anchored to node 0: fetches neighbour edges,
    invokes ``relax`` (migrating to the stripe's node), and meets the
    others at the barrier after every color phase."""

    SIZE_BYTES = 256

    def __init__(self, index: int, stripes: List[GridStripe],
                 barrier: Barrier, iterations: int, row_bytes: int):
        self.index = index
        self.stripes = stripes
        self.barrier = barrier
        self.iterations = iterations
        self.row_bytes = row_bytes

    def drive(self, ctx):
        stripe = self.stripes[self.index]
        above_src = self.stripes[self.index - 1] if self.index > 0 else None
        below_src = (self.stripes[self.index + 1]
                     if self.index + 1 < len(self.stripes) else None)
        delta = 0.0
        for _iteration in range(self.iterations):
            for color in (BLACK, RED):
                above = below = None
                if above_src is not None:
                    above = yield Invoke(above_src, "edge_row", BOTTOM,
                                         result_bytes=self.row_bytes)
                if below_src is not None:
                    below = yield Invoke(below_src, "edge_row", TOP,
                                         result_bytes=self.row_bytes)
                arg_bytes = self.row_bytes * ((above is not None)
                                              + (below is not None))
                delta = yield Invoke(stripe, "relax", color, above, below,
                                     arg_bytes=arg_bytes)
                yield Invoke(self.barrier, "wait")
        return delta


@dataclass
class RecoverySorResult:
    problem: SorProblem
    nodes: int
    cpus_per_node: int
    stripes: int
    grid: np.ndarray
    final_delta: float
    elapsed_us: float
    stats: ClusterStats
    cluster: object = None


def run_recovery_sor(problem: Optional[SorProblem] = None,
                     nodes: int = 3,
                     cpus_per_node: int = 2,
                     per_point_us: float = 2.0,
                     faults=None,
                     recovery=None) -> RecoverySorResult:
    """Run the striped SOR program; one stripe per node ``1..N-1``, all
    drivers and the barrier on node 0."""
    if problem is None:
        problem = SorProblem(rows=24, cols=24, iterations=6)
    if nodes < 2:
        raise ValueError("recovery SOR needs >=2 nodes "
                         "(stripes live away from the drivers)")
    nstripes = nodes - 1
    row_bytes = (problem.cols + 2) * VALUE_BYTES

    def row_range(index: int) -> Tuple[int, int]:
        lo = problem.rows * index // nstripes
        hi = problem.rows * (index + 1) // nstripes
        return lo, hi - lo

    def main(ctx):
        barrier = yield New(Barrier, nstripes)
        stripes = []
        for i in range(nstripes):
            row0, nrows = row_range(i)
            slab_bytes = (nrows + 2) * (problem.cols + 2) * VALUE_BYTES
            stripe = yield New(GridStripe, i, row0, nrows, problem,
                               per_point_us, size_bytes=slab_bytes,
                               on_node=1 + i)
            stripes.append(stripe)
        threads = []
        for i in range(nstripes):
            driver = yield New(SorDriver, i, stripes, barrier,
                               problem.iterations, row_bytes)
            threads.append((yield Fork(driver, "drive", name=f"drv{i}")))
        deltas = []
        for thread in threads:
            deltas.append((yield Join(thread)))
        grid = make_grid(problem)
        for i, stripe in enumerate(stripes):
            row0, nrows = row_range(i)
            slab = yield Invoke(stripe, "collect")
            grid[row0 + 1:row0 + 1 + nrows, :] = slab
        return grid, max(deltas)

    config = ClusterConfig(nodes=nodes, cpus_per_node=cpus_per_node)
    result = AmberProgram(config, faults=faults,
                          recovery=recovery).run(main)
    grid, final_delta = result.value
    return RecoverySorResult(
        problem=problem, nodes=nodes, cpus_per_node=cpus_per_node,
        stripes=nstripes, grid=grid, final_delta=final_delta,
        elapsed_us=result.elapsed_us, stats=result.stats,
        cluster=result.cluster)
