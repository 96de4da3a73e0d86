"""Red/Black SOR on the Ivy-style page-based DSM (section 4 comparison).

This is the program a competent Ivy user would write: the grid lives in
the shared virtual address space row-major; work is partitioned by *rows*
(matching the layout, as section 6 notes a page-DSM programmer must);
each process updates its own rows and reads one ghost row from each
neighbor per phase; iterations synchronize at an RPC barrier (the paper
notes recent Ivy uses RPC for synchronization variables).

The communication behaviour the paper predicts falls out:

* fetching a neighbor's edge row costs one page fault *per page the row
  spans* (a 842-column float32 row spans four 1 KiB pages), versus
  Amber's single invocation carrying the whole edge;
* rows are not page-aligned, so neighbors' boundary rows share pages —
  write-write false sharing that ping-pongs those pages every phase
  (section 4.2's artificial sharing).

Numerics are not recomputed here (the Amber implementation already pins
them bitwise to the sequential solver); this port reproduces the *memory
and communication* behaviour, which is what the comparison measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.sor.grid import (
    BLACK,
    RED,
    VALUE_BYTES,
    SorProblem,
    count_color_points,
)
from repro.apps.sor.sequential import (
    DEFAULT_POINT_UPDATE_US,
    sequential_time_us,
)
from repro.core.costs import CostModel
from repro.dsm.machine import IvyCluster, IvyStats
from repro.dsm.ops import Compute, Read, RpcBarrier, Write

#: Shared-memory base address of the grid.
GRID_BASE = 0


@dataclass
class IvySorResult:
    problem: SorProblem
    nodes: int
    cpus_per_node: int
    processes: int
    iterations_run: int
    elapsed_us: float
    sequential_us: float
    stats: IvyStats
    network_messages: int
    network_bytes: int

    @property
    def speedup(self) -> float:
        return self.sequential_us / self.elapsed_us

    @property
    def label(self) -> str:
        return f"{self.nodes}Nx{self.cpus_per_node}P"


def _row_addr(problem: SorProblem, row: int) -> int:
    return GRID_BASE + row * (problem.cols + 2) * VALUE_BYTES


def _row_bytes(problem: SorProblem) -> int:
    return (problem.cols + 2) * VALUE_BYTES


def _sor_process(cluster: IvyCluster, problem: SorProblem,
                 row_lo: int, row_hi: int, per_point_us: float,
                 parties: int):
    """One SOR process owning interior rows [row_lo, row_hi) (0-based
    interior coordinates; array rows are offset by the boundary row)."""
    nrows = row_hi - row_lo
    row_bytes = _row_bytes(problem)
    # Array rows: interior row r is array row r + 1.
    my_first = _row_addr(problem, row_lo + 1)
    ghost_above = _row_addr(problem, row_lo)       # neighbor/boundary row
    ghost_below = _row_addr(problem, row_hi + 1)
    for _ in range(problem.iterations):
        for color in (BLACK, RED):
            # Ghost rows from the neighbors (or fixed boundary rows).
            yield Read(ghost_above, row_bytes)
            yield Read(ghost_below, row_bytes)
            # Ownership of my rows (first touch faults; steady state only
            # re-faults pages a neighbor's reads downgraded).
            yield Write(my_first, nrows * row_bytes)
            points = count_color_points(nrows, problem.cols, color,
                                        row0=row_lo, col0=0)
            yield Compute(points * per_point_us)
        yield RpcBarrier(0, parties)


def run_ivy_sor(problem: SorProblem,
                nodes: int = 1,
                cpus_per_node: int = 4,
                processes: Optional[int] = None,
                per_point_us: float = DEFAULT_POINT_UPDATE_US,
                costs: Optional[CostModel] = None,
                manager_mode: str = "fixed") -> IvySorResult:
    """Run SOR on the DSM.  One process per CPU by default, pinned in
    contiguous blocks (explicit placement, as Ivy requires).
    ``manager_mode`` selects Li & Hudak's ownership algorithm
    (fixed / centralized / dynamic)."""
    nprocs = processes if processes is not None else nodes * cpus_per_node
    cluster = IvyCluster(nodes, cpus_per_node, costs,
                         manager_mode=manager_mode)
    for p in range(nprocs):
        row_lo = problem.rows * p // nprocs
        row_hi = problem.rows * (p + 1) // nprocs
        node = p * nodes // nprocs
        cluster.spawn(node, _sor_process, problem, row_lo, row_hi,
                      per_point_us, nprocs, name=f"sor{p}")
    cluster.run()
    return IvySorResult(
        problem=problem,
        nodes=nodes,
        cpus_per_node=cpus_per_node,
        processes=nprocs,
        iterations_run=problem.iterations,
        elapsed_us=cluster.elapsed_us,
        sequential_us=sequential_time_us(problem, problem.iterations,
                                         per_point_us),
        stats=cluster.stats,
        network_messages=cluster.network.stats.messages,
        network_bytes=cluster.network.stats.bytes,
    )
