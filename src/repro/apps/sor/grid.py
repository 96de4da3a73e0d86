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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

#: The specific problem measured in Figure 2: "a grid size of 122 by 842".
PAPER_ROWS = 122
PAPER_COLS = 842

BLACK = 0
RED = 1

#: Default over-relaxation factor (typical for SOR on Laplace problems).
DEFAULT_OMEGA = 1.5

#: Bytes per grid value (VAX F-floating / numpy float32).
VALUE_BYTES = 4


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


def color_mask(rows: int, cols: int, color: int,
               row0: int = 0, col0: int = 0) -> np.ndarray:
    """Boolean mask of the points of ``color`` within a ``rows x cols``
    block whose top-left interior point has global coordinates
    ``(row0, col0)``.  The mask depends on the origin only through the
    parity of its corner, so it is built once per (shape, parity) and
    shared; the array is read-only."""
    return _parity_mask(rows, cols, (row0 + col0 + color) % 2)


@lru_cache(maxsize=64)
def _parity_mask(rows: int, cols: int, parity: int) -> np.ndarray:
    """Mask of the points ``(r, c)`` with ``(r + c) % 2 == parity``."""
    r = np.arange(rows).reshape(-1, 1)
    c = np.arange(cols).reshape(1, -1)
    mask = ((r + c) % 2) == parity
    mask.setflags(write=False)
    return mask


def count_color_points(rows: int, cols: int, color: int,
                       row0: int = 0, col0: int = 0) -> int:
    """Number of points of ``color`` in the block — the per-phase compute
    cost driver, computed without materializing a mask."""
    total = rows * cols
    # Points where (r + c) % 2 == 0 in the block.
    evens = 0
    for r in range(2):
        rows_r = (rows - r + 1) // 2          # rows with parity r (local)
        parity = (row0 + r + col0) % 2        # parity of first col there
        cols_even = (cols + 1) // 2 if parity == 0 else cols // 2
        evens += rows_r * cols_even
    return evens if color == BLACK else total - evens


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
    if row1 <= row0 or col1 <= col0:
        return 0.0
    block = grid[row0:row1, col0:col1]
    mask = color_mask(row1 - row0, col1 - col0, color,
                      global_row0 + row0 - 1, global_col0 + col0 - 1)
    neighbors = (grid[row0 - 1:row1 - 1, col0:col1]
                 + grid[row0 + 1:row1 + 1, col0:col1]
                 + grid[row0:row1, col0 - 1:col1 - 1]
                 + grid[row0:row1, col0 + 1:col1 + 1])
    updated = block + np.float32(omega) * (
        np.float32(0.25) * neighbors - block)
    delta = np.abs(updated - block, dtype=np.float32)
    block[mask] = updated[mask]
    masked = delta[mask]
    return float(masked.max()) if masked.size else 0.0


def sor_iterate(grid: np.ndarray, omega: float) -> float:
    """One full Red/Black iteration over the whole grid (black phase then
    red phase); returns the maximum change across both phases."""
    delta_black = sweep_color(grid, omega, BLACK)
    delta_red = sweep_color(grid, omega, RED)
    return max(delta_black, delta_red)


def residual(grid: np.ndarray) -> float:
    """Max |Laplace residual| over the interior — an implementation-
    independent quality measure used by tests."""
    interior = grid[1:-1, 1:-1]
    neighbors = (grid[:-2, 1:-1] + grid[2:, 1:-1]
                 + grid[1:-1, :-2] + grid[1:-1, 2:])
    return float(np.abs(0.25 * neighbors - interior).max())
