"""Red/Black SOR: the paper's evaluation application (section 6).

The problem: steady-state temperature over the interior of a square plate
with fixed boundary temperatures (Laplace's equation), solved by Red/Black
Successive Over-Relaxation.  Checkerboard-colored points are updated in two
phases per iteration; same-color points are independent, so each phase
parallelizes freely.

Three implementations share the numpy kernels in :mod:`grid`:

* :mod:`sequential` — the plain single-stream baseline the paper's speedups
  are measured against;
* :mod:`amber_sor` — the Amber program of Figure 1: one section object per
  stripe of the grid, worker threads per section, edge-exchange threads
  overlapping communication with computation, and a convergence master.
  Its program text, :func:`sor_main`, runs on the simulator and on the
  live runtime (``Cluster.run``) alike;
* :mod:`ivy_sor` — the same decomposition on the page-based DSM baseline
  (for the section 4 comparison; see :mod:`repro.dsm`).
"""

from repro.apps.sor.amber_sor import AmberSorResult, run_amber_sor, sor_main
from repro.apps.sor.grid import (
    PAPER_COLS,
    PAPER_ROWS,
    SorProblem,
    make_grid,
    sor_iterate,
    sweep_color,
)
from repro.apps.sor.sequential import SequentialSorResult, run_sequential_sor

__all__ = [
    "AmberSorResult",
    "PAPER_COLS",
    "PAPER_ROWS",
    "SequentialSorResult",
    "SorProblem",
    "make_grid",
    "run_amber_sor",
    "run_sequential_sor",
    "sor_iterate",
    "sor_main",
    "sweep_color",
]
