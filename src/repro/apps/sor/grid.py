"""Numerical kernels shared by every SOR implementation.

The grid is a ``(rows+2, cols+2)`` float32 array: the outer ring holds the
fixed boundary temperatures, the inner ``rows x cols`` block is the
computed interior ("the steady-state temperature over the interior of a
square plate given the temperatures around the plate's boundary").  Points
are checkerboard-colored by the parity of their *global* interior
coordinates, so any partitioning of the grid updates exactly the same
points in each phase.

float32 mirrors the 4-byte VAX F-floating values of the original, and sets
the edge-exchange payload sizes used by the simulated runs.

Because same-color points never read each other, a color sweep gives
bitwise-identical results no matter how it is partitioned — the tests pin
the parallel implementations to the sequential one exactly.

A sweep touches only its color, through strided views of the grid, so
no mask and no full-window temporary is built.  Two layouts:

* **Flat (odd row length).**  When the grid's row length ``W`` is odd,
  flat index ``r * W + c`` has the parity of ``r + c``, so the points of
  one color in a row band are every other element of
  ``grid.reshape(-1)``: one 1-D stride-2 view, whose four neighbors are
  the same view shifted by ``-W``, ``+W``, ``-1`` and ``+1``.  The view
  also crosses each row's out-of-window columns (ghost, boundary, pad);
  their old bytes are written back and their change is zeroed before the
  max.  Their positions in the view are cached per window shape.
  ``SorSection`` pads its slab to an odd width for this.
* **Strided (everything else).**  A color in a window is two
  sub-lattices, one per row parity: rows ``r, r+2, ..`` from column
  ``c`` and rows ``r+1, r+3, ..`` from column ``c`` shifted by one, each
  a 2-D stride-2 view.  It serves even row lengths (the sequential
  ``(rows+2, cols+2)`` grid at even ``cols``, which keeps its shape and
  stays the independent oracle), windows under ``FLAT_MIN_COLS``
  columns (a section's boundary columns, where the flat view would be
  mostly out-of-window points) and non-contiguous grids.

The arithmetic per point is fixed on both —
``((up + down) + left) + right``, ``* 0.25``, ``- old``, ``* omega``,
``old +`` — because float32 addition does not associate: any other
order moves last bits, and every SOR in the tree (and the goldens under
``tests/golden/``) is compared to this kernel byte for byte.  Every
reduction of changes to one delta goes through :func:`max_delta`, which
keeps a NaN wherever it comes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import finite

#: The specific problem measured in Figure 2: "a grid size of 122 by 842".
PAPER_ROWS = 122
PAPER_COLS = 842

BLACK = 0
RED = 1

#: Default over-relaxation factor (typical for SOR on Laplace problems).
DEFAULT_OMEGA = 1.5

#: Bytes per grid value (VAX F-floating / numpy float32).
VALUE_BYTES = 4

#: The narrowest window ``sweep_color`` sweeps as one flat view: in a
#: narrower one most of the view would be out-of-window points.
FLAT_MIN_COLS = 3

_QUARTER = np.float32(0.25)


@dataclass(frozen=True)
class SorProblem:
    """A problem instance: dimensions, boundary condition, SOR parameters.

    ``iterations`` fixes the sweep count (the paper measures fixed-size
    runs); set ``tolerance`` > 0 to let convergence stop the run early.
    """

    rows: int = PAPER_ROWS
    cols: int = PAPER_COLS
    omega: float = DEFAULT_OMEGA
    iterations: int = 30
    tolerance: float = 0.0
    #: Boundary temperatures: (top, bottom, left, right).
    boundary: Tuple[float, float, float, float] = (100.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "iterations"):
            finite(name, getattr(self, name), ValueError, 1, integral=True)

    @property
    def points(self) -> int:
        """Interior points — the paper's problem-size axis (Figure 3)."""
        return self.rows * self.cols

    def scaled(self, rows: int, cols: int) -> "SorProblem":
        """The same problem at a different grid size (Figure 3 sweeps)."""
        return SorProblem(rows, cols, self.omega, self.iterations,
                          self.tolerance, self.boundary)


def make_grid(problem: SorProblem) -> np.ndarray:
    """Build the initial ``(rows+2, cols+2)`` grid with boundary set."""
    grid = np.zeros((problem.rows + 2, problem.cols + 2), dtype=np.float32)
    top, bottom, left, right = problem.boundary
    grid[0, :] = top
    grid[-1, :] = bottom
    grid[:, 0] = left
    grid[:, -1] = right
    # Corners belong to both edges; top/bottom take precedence (arbitrary
    # but fixed, and identical across implementations).
    grid[0, 0] = grid[0, -1] = top
    grid[-1, 0] = grid[-1, -1] = bottom
    return grid


def count_color_points(rows: int, cols: int, color: int,
                       row0: int = 0, col0: int = 0) -> int:
    """Number of points of ``color`` in a ``rows x cols`` block whose
    top-left interior point has global coordinates ``(row0, col0)`` — the
    per-phase compute cost driver.  The colors split the block evenly;
    the odd point of an odd block has the corner's color."""
    return (rows * cols + 1 - (row0 + col0 + color) % 2) // 2


def max_delta(*deltas: float) -> float:
    """The largest of ``deltas``, or a NaN if any of them is one.

    Python's ``max`` keeps a NaN only when it comes first (``x > nan``
    and ``nan > x`` are both false), so a diverged part of the grid could
    read as converged; every SOR delta reduction goes through this."""
    for delta in deltas:
        if delta != delta:
            return delta
    return max(deltas)


def sweep_color(grid: np.ndarray, omega: float, color: int,
                row0: int = 1, row1: int = None,
                col0: int = 1, col1: int = None,
                global_row0: int = 0, global_col0: int = 0) -> float:
    """Update the points of ``color`` in ``grid[row0:row1, col0:col1]``
    in place; return the maximum absolute change.

    ``row0``/``col0`` etc. are *array* indices (1 = first interior line).
    ``global_row0``/``global_col0`` are the global interior coordinates of
    array position (1, 1), so parities line up across partitions.
    """
    if row1 is None:
        row1 = grid.shape[0] - 1
    if col1 is None:
        col1 = grid.shape[1] - 1
    omega = np.float32(omega)
    # Column offset of the color's first point in the window's first row.
    shift = (global_row0 + row0 + global_col0 + col0 + color) % 2
    if (grid.shape[1] % 2 and col1 - col0 >= FLAT_MIN_COLS
            and row1 > row0 and grid.flags.c_contiguous):
        return _sweep_flat(grid, omega, row0, row1, col0, col1, shift)
    return _sweep_strided(grid, omega, row0, row1, col0, col1, shift)


def _relaxed(old, up, down, left, right, omega) -> np.ndarray:
    """The over-relaxed values of points ``old`` from their four
    neighbors, in a new array, in the one fixed float32 order."""
    updated = up + down
    updated += left
    updated += right
    np.multiply(_QUARTER, updated, out=updated)
    updated -= old
    np.multiply(omega, updated, out=updated)
    np.add(old, updated, out=updated)
    return updated


@lru_cache(maxsize=128)
def _outside(width: int, rows: int, first: int,
             col0: int, col1: int) -> np.ndarray:
    """Positions in a flat band view (``rows`` rows of ``width``, from
    column ``first`` of the first row, stride 2) whose column is outside
    ``[col0, col1)``; read-only, as the cache shares it."""
    count = ((rows - 1) * width + col1 - first + 1) // 2
    cols = (first + 2 * np.arange(count)) % width
    outside = np.flatnonzero((cols < col0) | (cols >= col1))
    outside.setflags(write=False)
    return outside


def _sweep_flat(grid, omega, row0, row1, col0, col1, shift) -> float:
    width = grid.shape[1]
    flat = grid.reshape(-1)
    start = row0 * width + col0 + shift
    stop = (row1 - 1) * width + col1
    points = flat[start:stop:2]
    old = points.copy()             # read the strided points once
    updated = _relaxed(old, flat[start - width:stop - width:2],
                       flat[start + width:stop + width:2],
                       flat[start - 1:stop - 1:2],
                       flat[start + 1:stop + 1:2], omega)
    outside = _outside(width, row1 - row0, col0 + shift, col0, col1)
    updated[outside] = old[outside]     # out-of-window bytes unchanged
    points[...] = updated
    updated -= old
    np.abs(updated, out=updated)
    updated[outside] = 0                # ... and no part of the delta
    return float(updated.max())


def _sweep_strided(grid, omega, row0, row1, col0, col1, shift) -> float:
    delta = 0.0
    for r, c in ((row0, col0 + shift), (row0 + 1, col0 + 1 - shift)):
        if r >= row1 or c >= col1:
            continue
        block = grid[r:row1:2, c:col1:2]
        old = block.copy()          # read the strided points once
        updated = _relaxed(old, grid[r - 1:row1 - 1:2, c:col1:2],
                           grid[r + 1:row1 + 1:2, c:col1:2],
                           grid[r:row1:2, c - 1:col1 - 1:2],
                           grid[r:row1:2, c + 1:col1 + 1:2], omega)
        block[...] = updated
        updated -= old
        np.abs(updated, out=updated)
        delta = max_delta(delta, float(updated.max()))
    return delta


def sor_iterate(grid: np.ndarray, omega: float) -> float:
    """One full Red/Black iteration over the whole grid (black phase then
    red phase); returns the maximum change across both phases."""
    delta_black = sweep_color(grid, omega, BLACK)
    delta_red = sweep_color(grid, omega, RED)
    return max_delta(delta_black, delta_red)


def residual(grid: np.ndarray) -> float:
    """Max |Laplace residual| over the interior — an implementation-
    independent quality measure used by tests."""
    interior = grid[1:-1, 1:-1]
    neighbors = (grid[:-2, 1:-1] + grid[2:, 1:-1]
                 + grid[1:-1, :-2] + grid[1:-1, 2:])
    return float(np.abs(0.25 * neighbors - interior).max())
