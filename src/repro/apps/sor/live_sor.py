"""Red/Black SOR on the live multiprocess runtime.

The same decomposition as :mod:`amber_sor` — one section object per
vertical stripe, placed round-robin over the nodes — but running on real
OS processes: edge columns travel as pickled numpy arrays inside
``put_edge`` invocations, and iterations synchronize through a
:class:`~repro.runtime.sync.Barrier` object.

Because every worker drives its whole iteration loop from inside one
``run_iterations`` operation *on its section's node*, the computation is
genuinely distributed: each stripe is updated by the process that owns
it, and only boundary columns cross process borders.

This implementation validates *semantics* (the result is bitwise
identical to the sequential solver); timing claims belong to the
simulator.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.apps.sor.grid import (
    BLACK,
    RED,
    SorProblem,
    make_grid,
    sweep_color,
)
from repro.recovery.config import peer_timeout_s, reply_timeout_s
from repro.runtime.cluster import Cluster
from repro.runtime.objects import AmberObject
from repro.runtime.sync import Barrier


class LiveSorSection(AmberObject):
    """One vertical stripe: cells, ghost columns, and the iteration loop."""

    def __init__(self, index: int, problem: SorProblem, col0: int,
                 ncols: int):
        self.index = index
        self.problem = problem
        self.col0 = col0
        self.ncols = ncols
        full = make_grid(problem)
        self.cells = full[:, col0:col0 + ncols + 2].copy()
        self.left = None          # neighbor handles (set by configure)
        self.right = None
        self.barrier = None
        self._edges_in = {}       # (iteration, color, side) -> values

    def configure(self, left, right, barrier):
        self.left = left
        self.right = right
        self.barrier = barrier

    def put_edge(self, side: str, color: int, iteration: int, values):
        """A neighbor's boundary column arrives (runs on *my* node)."""
        self._edges_in[(iteration, color, side)] = values

    def _await_edges(self, iteration: int, color: int) -> None:
        """Install ghost columns once both neighbors' values arrived.

        The per-iteration barrier guarantees arrival ordering across
        iterations; within an iteration we spin briefly (values are sent
        before the barrier, so this is one reschedule at most).  A
        neighbor silent for a peer timeout is treated as lost.
        """
        rows = self.problem.rows
        deadline = time.monotonic() + peer_timeout_s()
        for side, ghost_col, neighbor in (("left", 0, self.left),
                                          ("right", self.ncols + 1,
                                           self.right)):
            if neighbor is None:
                continue
            key = (iteration, color, side)
            while key not in self._edges_in:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"section {self.index}: edge {key} never arrived")
                time.sleep(0.001)
            self.cells[1:rows + 1, ghost_col] = self._edges_in.pop(key)

    def run_iterations(self) -> Tuple[int, float]:
        """The whole solver loop for this stripe; runs as one Amber
        thread on this section's node."""
        problem = self.problem
        rows = problem.rows
        delta = float("inf")
        for iteration in range(problem.iterations):
            delta = 0.0
            for color in (BLACK, RED):
                phase_delta = sweep_color(
                    self.cells, problem.omega, color,
                    row0=1, row1=rows + 1,
                    col0=1, col1=self.ncols + 1,
                    global_row0=0, global_col0=self.col0)
                delta = max(delta, phase_delta)
                # Ship my fresh boundary columns to the neighbors.
                if self.left is not None:
                    self.left.put_edge("right", color, iteration,
                                       self.cells[1:rows + 1, 1].copy())
                if self.right is not None:
                    self.right.put_edge(
                        "left", color, iteration,
                        self.cells[1:rows + 1, self.ncols].copy())
                # The next phase reads this color's ghosts.
                self._await_edges(iteration, color)
            # Half the lost-peer ceiling, so a stuck barrier surfaces
            # here before the caller's join gives up on this thread.
            self.barrier.wait(timeout=reply_timeout_s() / 2)
        return problem.iterations, float(delta)

    def snapshot(self):
        return self.cells[:, 1:self.ncols + 1].copy()


def run_live_sor(problem: SorProblem, nodes: int = 2,
                 sections: Optional[int] = None,
                 cluster: Optional[Cluster] = None) -> np.ndarray:
    """Solve ``problem`` on a live cluster; returns the assembled grid.

    Pass an existing ``cluster`` to reuse one (tests); otherwise one is
    spawned and torn down around the run.
    """
    nsections = sections if sections is not None else max(2, nodes)
    owns_cluster = cluster is None
    if owns_cluster:
        cluster = Cluster(nodes=nodes)
    try:
        barrier = cluster.create(Barrier, nsections, node=0)
        handles = []
        for s in range(nsections):
            col_lo = problem.cols * s // nsections
            col_hi = problem.cols * (s + 1) // nsections
            handles.append(cluster.create(
                LiveSorSection, s, problem, col_lo, col_hi - col_lo,
                node=s * nodes // nsections))
        for s, handle in enumerate(handles):
            left = handles[s - 1] if s > 0 else None
            right = handles[s + 1] if s < nsections - 1 else None
            handle.configure(left, right, barrier)
        threads = [cluster.fork(handle, "run_iterations")
                   for handle in handles]
        for thread in threads:
            thread.join(timeout=120)
        grid = make_grid(problem)
        for s, handle in enumerate(handles):
            col_lo = problem.cols * s // nsections
            slab = handle.snapshot()
            grid[:, col_lo + 1:col_lo + 1 + slab.shape[1]] = slab
        return grid
    finally:
        if owns_cluster:
            cluster.shutdown()
