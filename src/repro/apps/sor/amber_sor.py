"""The Amber Red/Black SOR program (section 6, Figure 1).

The grid is split into vertical stripes, one *section object* per stripe,
distributed across the nodes.  Every thread that touches a section's data
executes operations *on that section object*, so the kernel clusters them
onto the section's node — the paper's recipe for exploiting the
shared-memory hardware within a node.

Per section (Figure 1):

* a **coordinator** drives the iteration phases (it also updates the
  stripe's boundary columns so their values can be shipped early);
* **worker threads** update the stripe's interior points in parallel;
* **edge threads** (one per neighboring section) carry a whole boundary
  column to the neighbor in a single remote invocation
  (``put_edge``) — "the values for an entire edge of a section [are]
  transferred in a single invocation";
* a **convergence thread** reports the iteration's maximum change to a
  single master object; the master releases everyone once all sections
  have reported — the per-iteration barrier.

With ``overlap=True`` (the paper's preferred structure) the edge threads
ship a phase's boundary values *while* the workers update the interior:
"The exchange of values for edge points of one color is overlapped with
the computation for points of the other color."  With ``overlap=False``
the coordinator completes each phase's exchange before proceeding, which
reproduces the slower of the two 8Nx4P points in Figure 2.

Numerics are real (numpy, float32) and bitwise-identical to the
sequential baseline; simulated time is charged per point update.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.sor.grid import (
    BLACK,
    RED,
    VALUE_BYTES,
    SorProblem,
    count_color_points,
    make_grid,
    max_delta,
    sweep_color,
)
from repro.apps.sor.sequential import (
    DEFAULT_POINT_UPDATE_US,
    sequential_time_us,
)
from repro.core.costs import CostModel
from repro.placement.policies import PlacementPolicy
from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram
from repro.sim.stats import ClusterStats
from repro.sim.syscalls import (
    Charge,
    Compute,
    Fork,
    Invoke,
    Join,
    New,
    Suspend,
    Wakeup,
)

LEFT = 0
RIGHT = 1

#: Bookkeeping cost of one coordination step (enqueue/flag update), us.
COORD_OP_US = 5.0


def default_sections(nodes: int) -> int:
    """The paper's sectioning rule: eight sections, "except for the
    experiments involving three and six nodes, which were run with
    partitionings of six section objects"."""
    if nodes in (3, 6):
        return 6
    if nodes > 8:
        return nodes
    return 8


def _wake_all(waiters: List) -> object:
    """Generator yielding a Wakeup for every queued waiter."""
    while waiters:
        yield Wakeup(waiters.pop())


class SorMaster(SimObject):
    """Aggregates per-iteration deltas; the per-iteration barrier.

    Convergence threads invoke ``report`` (remotely, for sections on other
    nodes); the last reporter of an iteration computes the verdict and
    wakes the rest.
    """

    SIZE_BYTES = 512

    def __init__(self, nsections: int, tolerance: float):
        self._nsections = nsections
        self._tolerance = tolerance
        self._deltas: Dict[int, List[float]] = {}
        self._verdicts: Dict[int, bool] = {}
        self._waiting: Dict[int, List] = {}
        self.iterations_seen = 0

    def report(self, ctx, section: int, iteration: int, delta: float):
        """Record ``delta``; block until all sections reported; return
        True if the computation should continue (not yet converged)."""
        yield Charge(COORD_OP_US)
        deltas = self._deltas.setdefault(iteration, [])
        deltas.append(delta)
        if len(deltas) == self._nsections:
            converged = (self._tolerance > 0
                         and max_delta(*deltas) < self._tolerance)
            self._verdicts[iteration] = not converged
            self.iterations_seen = max(self.iterations_seen, iteration + 1)
            yield from _wake_all(self._waiting.get(iteration, []))
        else:
            while iteration not in self._verdicts:
                self._waiting.setdefault(iteration, []).append(ctx.thread)
                yield Suspend("sor-master")
        return self._verdicts[iteration]


class SorSection(SimObject):
    """One vertical stripe of the grid and all its coordination state."""

    def __init__(self, index: int, nsections: int, problem: SorProblem,
                 col0: int, ncols: int, workers: int,
                 per_point_us: float, overlap: bool):
        self.index = index
        self.nsections = nsections
        self.problem = problem
        self.col0 = col0            # global interior column of array col 1
        self.ncols = ncols
        self.workers = workers
        self.per_point_us = per_point_us
        self.overlap = overlap

        # Slab: all rows, my columns and a ghost/boundary column each side
        # (array col 0, ncols+1), zero-padded to an odd width for sweep_color.
        slab = make_grid(problem)[:, col0:col0 + ncols + 2]
        self.cells = np.zeros((problem.rows + 2, (ncols + 2) | 1), np.float32)
        self.cells[:, :ncols + 2] = slab

        self.master: Optional[SorMaster] = None
        self.neighbors: List[Optional["SorSection"]] = [None, None]

        # --- coordination state (mutated only at yield boundaries) -----
        self._stop = False
        self._phase_seq = 0
        self._phase_color = BLACK
        self._phase_cols: Tuple[int, int] = (1, 1)   # array col range
        self._workers_done = 0
        self._phase_delta = 0.0
        self._worker_wait: List = []
        self._coord_wait: List = []
        self._send_queue: List[deque] = [deque(), deque()]
        self._edger_wait: List = [[], []]
        self._sends_in_flight = 0
        self._edges_in: Dict[Tuple[int, int, int], bool] = {}
        self._pending_report: Optional[Tuple[int, float]] = None
        self._converger_wait: List = []
        self._verdicts: Dict[int, bool] = {}

        # --- results ------------------------------------------------------
        self.iterations_run = 0
        self.final_delta = float("inf")

    # -- setup ----------------------------------------------------------

    def configure(self, ctx, master, left, right):
        """Wire the section to its master and neighbors (invoked so the
        main thread never pokes at a remote object's internals)."""
        yield Charge(COORD_OP_US)
        self.master = master
        self.neighbors = [left, right]

    # -- numerics helpers ------------------------------------------------

    def _row_slice(self, widx: int) -> Tuple[int, int]:
        rows = self.problem.rows
        lo = rows * widx // self.workers
        hi = rows * (widx + 1) // self.workers
        return lo, hi

    def _sweep(self, color: int, row_lo: int, row_hi: int,
               col_lo: int, col_hi: int) -> float:
        """Update color points of interior rows [row_lo, row_hi) x array
        columns [col_lo, col_hi); returns the max change."""
        return sweep_color(
            self.cells, self.problem.omega, color,
            row0=1 + row_lo, row1=1 + row_hi,
            col0=col_lo, col1=col_hi,
            global_row0=0, global_col0=self.col0)

    def _points(self, color: int, row_lo: int, row_hi: int,
                col_lo: int, col_hi: int) -> int:
        if row_hi <= row_lo or col_hi <= col_lo:
            return 0
        return count_color_points(
            row_hi - row_lo, col_hi - col_lo, color,
            row0=row_lo, col0=self.col0 + col_lo - 1)

    # -- the threads of Figure 1 ----------------------------------------

    def run(self, ctx):
        """The coordinator: drives phases, edges, and convergence."""
        problem = self.problem
        boundary_cols = [1] if self.ncols == 1 else [1, self.ncols]
        interior = (2, self.ncols) if self.ncols > 2 else (1, 1)
        for iteration in range(problem.iterations):
            iter_delta = 0.0
            for color in (BLACK, RED):
                self._phase_delta = 0.0
                if self.overlap:
                    # 1. Boundary columns first, so their values can be
                    #    shipped while the interior is computed.
                    for col in boundary_cols:
                        pts = self._points(color, 0, problem.rows,
                                           col, col + 1)
                        yield Compute(pts * self.per_point_us)
                        delta = self._sweep(color, 0, problem.rows,
                                            col, col + 1)
                        self._phase_delta = max_delta(self._phase_delta, delta)
                    # 2. Launch the edge exchange.
                    yield from self._request_sends(iteration, color)
                    # 3. Interior in parallel with the exchange.
                    yield from self._run_workers(ctx, color, *interior)
                else:
                    # Everything computed first, then the exchange,
                    # serially (the slower 8Nx4P point of Figure 2).
                    yield from self._run_workers(ctx, color, 1,
                                                 self.ncols + 1)
                    yield from self._request_sends(iteration, color)
                    while self._sends_in_flight > 0:
                        self._coord_wait.append(ctx.thread)
                        yield Suspend("sor-sends")
                # 4. The next phase reads this color's ghost values:
                #    wait for the neighbors' edges to arrive.
                yield from self._await_edges(ctx, iteration, color)
                iter_delta = max_delta(iter_delta, self._phase_delta)
            # Iteration barrier: report the delta, learn the verdict.
            self._pending_report = (iteration, iter_delta)
            yield from _wake_all(self._converger_wait)
            while iteration not in self._verdicts:
                self._coord_wait.append(ctx.thread)
                yield Suspend("sor-verdict")
            self.iterations_run = iteration + 1
            self.final_delta = iter_delta
            if not self._verdicts[iteration]:
                break
        self._stop = True
        yield from _wake_all(self._worker_wait)
        yield from _wake_all(self._edger_wait[LEFT])
        yield from _wake_all(self._edger_wait[RIGHT])
        yield from _wake_all(self._converger_wait)
        return (self.iterations_run, self.final_delta)

    def _run_workers(self, ctx, color: int, col_lo: int, col_hi: int):
        self._workers_done = 0
        self._phase_color = color
        self._phase_cols = (col_lo, col_hi)
        self._phase_seq += 1
        yield from _wake_all(self._worker_wait)
        while self._workers_done < self.workers:
            self._coord_wait.append(ctx.thread)
            yield Suspend("sor-workers")

    def _request_sends(self, iteration: int, color: int):
        for side in (LEFT, RIGHT):
            if self.neighbors[side] is not None:
                self._send_queue[side].append((iteration, color))
                self._sends_in_flight += 1
                yield from _wake_all(self._edger_wait[side])
        yield Charge(COORD_OP_US)

    def _await_edges(self, ctx, iteration: int, color: int):
        for side in (LEFT, RIGHT):
            if self.neighbors[side] is None:
                continue
            while (iteration, color, side) not in self._edges_in:
                self._coord_wait.append(ctx.thread)
                yield Suspend("sor-edges")

    def worker(self, ctx, widx: int):
        """One interior-update worker; splits the stripe by rows."""
        seen_seq = 0
        row_lo, row_hi = self._row_slice(widx)
        while True:
            while self._phase_seq == seen_seq and not self._stop:
                self._worker_wait.append(ctx.thread)
                yield Suspend("sor-phase")
            if self._stop:
                return
            seen_seq = self._phase_seq
            color = self._phase_color
            col_lo, col_hi = self._phase_cols
            pts = self._points(color, row_lo, row_hi, col_lo, col_hi)
            yield Compute(pts * self.per_point_us)
            delta = self._sweep(color, row_lo, row_hi, col_lo, col_hi)
            self._phase_delta = max_delta(self._phase_delta, delta)
            self._workers_done += 1
            if self._workers_done == self.workers:
                yield from _wake_all(self._coord_wait)

    def edger(self, ctx, side: int):
        """One edge-exchange thread: ships a boundary column to the
        neighbor in a single (usually remote) invocation."""
        neighbor = self.neighbors[side]
        edge_col = 1 if side == LEFT else self.ncols
        rows = self.problem.rows
        while True:
            while not self._send_queue[side] and not self._stop:
                self._edger_wait[side].append(ctx.thread)
                yield Suspend("sor-edger")
            if self._stop and not self._send_queue[side]:
                return
            iteration, color = self._send_queue[side].popleft()
            values = self.cells[1:rows + 1, edge_col].copy()
            yield Invoke(neighbor, "put_edge",
                         1 - side, color, iteration, values,
                         arg_bytes=rows * VALUE_BYTES)
            self._sends_in_flight -= 1
            if self._sends_in_flight == 0:
                yield from _wake_all(self._coord_wait)

    def put_edge(self, ctx, side: int, color: int, iteration: int,
                 values: np.ndarray):
        """Install a neighbor's boundary column into my ghost column.
        Runs on *this* section's node (the sender's thread migrated
        here) — the single network transaction of section 4.2."""
        yield Charge(COORD_OP_US)
        rows = self.problem.rows
        ghost_col = 0 if side == LEFT else self.ncols + 1
        self.cells[1:rows + 1, ghost_col] = values
        self._edges_in[(iteration, color, side)] = True
        yield from _wake_all(self._coord_wait)

    def converger(self, ctx):
        """Reports iteration deltas to the master (the barrier)."""
        while True:
            while self._pending_report is None and not self._stop:
                self._converger_wait.append(ctx.thread)
                yield Suspend("sor-converge")
            if self._stop:
                return
            iteration, delta = self._pending_report
            self._pending_report = None
            verdict = yield Invoke(self.master, "report",
                                   self.index, iteration, delta)
            self._verdicts[iteration] = verdict
            yield from _wake_all(self._coord_wait)

    def snapshot(self, ctx):
        """Copy out my stripe's interior columns (tests/verification)."""
        yield Charge(COORD_OP_US)
        return self.cells[:, 1:self.ncols + 1].copy()


def sor_main(ctx, problem: SorProblem, nodes: int, nsections: int,
             workers: int, per_point_us: float, overlap: bool,
             collect_grid: bool, place: PlacementPolicy):
    """The program of Figure 1, for ``AmberProgram.run`` or the live
    ``Cluster.run``: sections in contiguous blocks over ``nodes``, then
    every section's threads; returns ``(each coordinator's (iterations,
    delta), the time its last one was joined, the grid or None)``."""
    master = yield New(SorMaster, nsections, problem.tolerance,
                       on_node=place.node_for("SorMaster", 0, None,
                                              count=1))
    section_objs = []
    for s in range(nsections):
        col_lo = problem.cols * s // nsections
        col_hi = problem.cols * (s + 1) // nsections
        ncols = col_hi - col_lo
        slab_bytes = (problem.rows + 2) * (ncols + 2) * VALUE_BYTES
        section = yield New(
            SorSection, s, nsections, problem, col_lo, ncols,
            workers, per_point_us, overlap,
            size_bytes=slab_bytes,
            on_node=place.node_for("SorSection", s, s * nodes // nsections,
                                   count=nsections))
        section_objs.append(section)
    for s, section in enumerate(section_objs):
        left = section_objs[s - 1] if s > 0 else None
        right = section_objs[s + 1] if s < nsections - 1 else None
        yield Invoke(section, "configure", master, left, right)
    threads = []
    coordinators = []
    for s, section in enumerate(section_objs):
        for w in range(workers):
            threads.append((yield Fork(section, "worker", w,
                                       name=f"w{s}.{w}")))
        if s > 0:
            threads.append((yield Fork(section, "edger", LEFT,
                                       name=f"e{s}.L")))
        if s < nsections - 1:
            threads.append((yield Fork(section, "edger", RIGHT,
                                       name=f"e{s}.R")))
        threads.append((yield Fork(section, "converger",
                                   name=f"c{s}")))
        coordinators.append((yield Fork(section, "run",
                                        name=f"coord{s}")))
    outcomes = []
    for coordinator in coordinators:
        outcomes.append((yield Join(coordinator)))
    finish_us = ctx.now_us
    for thread in threads:
        yield Join(thread)
    grid = None
    if collect_grid:
        grid = make_grid(problem)
        for s, section in enumerate(section_objs):
            col_lo = problem.cols * s // nsections
            slab = yield Invoke(section, "snapshot")
            grid[:, col_lo + 1:col_lo + 1 + slab.shape[1]] = slab
    return outcomes, finish_us, grid


@dataclass
class AmberSorResult:
    problem: SorProblem
    nodes: int
    cpus_per_node: int
    sections: int
    workers_per_section: int
    overlap: bool
    per_point_us: float
    iterations_run: int
    final_delta: float
    #: Simulated time from program start to the join of the last
    #: coordinator (excludes optional grid collection).
    elapsed_us: float
    #: Simulated sequential-baseline time for the same iteration count.
    sequential_us: float
    stats: ClusterStats
    grid: Optional[np.ndarray] = None
    #: The simulated cluster, for structural introspection (Figure 1).
    cluster: object = None

    @property
    def speedup(self) -> float:
        return self.sequential_us / self.elapsed_us

    @property
    def label(self) -> str:
        return f"{self.nodes}Nx{self.cpus_per_node}P"


def run_amber_sor(problem: SorProblem,
                  nodes: int = 1,
                  cpus_per_node: int = 4,
                  sections: Optional[int] = None,
                  workers_per_section: Optional[int] = None,
                  overlap: bool = True,
                  per_point_us: float = DEFAULT_POINT_UPDATE_US,
                  costs: Optional[CostModel] = None,
                  collect_grid: bool = False,
                  tracer=None,
                  faults=None,
                  placement: Optional[PlacementPolicy] = None
                  ) -> AmberSorResult:
    """Run the Amber SOR program on a simulated cluster.

    The defaults reproduce the paper's experimental setup: sections per
    :func:`default_sections`, sections distributed in contiguous blocks
    over the nodes, one worker thread per CPU share of a section.
    ``placement`` overrides creation-time placement per class; the
    default policy passes the program's block layout through unchanged.
    A shape the program cannot run (a section without a column or a
    worker) raises ``ValueError`` naming the argument.
    """
    # Imported here: the analysis goldens pin this module's line numbers.
    from repro.errors import finite

    config = ClusterConfig(nodes=nodes, cpus_per_node=cpus_per_node)
    nsections = sections if sections is not None else default_sections(nodes)
    # Every section needs a column and a worker: refuse any other shape
    # before a cluster is built.
    finite("sections", nsections, ValueError, 1, problem.cols,
           integral=True)
    workers = (workers_per_section if workers_per_section is not None
               else max(1, config.total_cpus // nsections))
    finite("workers_per_section", workers, ValueError, 1, integral=True)
    place = placement if placement is not None else PlacementPolicy()
    result = AmberProgram(config, costs, faults).run(
        sor_main, problem, nodes, nsections, workers, per_point_us, overlap,
        collect_grid, place, tracer=tracer)
    outcomes, finish_us, grid = result.value
    iterations_run = max(outcome[0] for outcome in outcomes)
    final_delta = max_delta(*(outcome[1] for outcome in outcomes))
    return AmberSorResult(
        problem=problem,
        nodes=nodes,
        cpus_per_node=cpus_per_node,
        sections=nsections,
        workers_per_section=workers,
        overlap=overlap,
        per_point_us=per_point_us,
        iterations_run=iterations_run,
        final_delta=final_delta,
        elapsed_us=finish_us,
        sequential_us=sequential_time_us(problem, iterations_run,
                                         per_point_us),
        stats=result.stats,
        grid=grid,
        cluster=result.cluster,
    )
