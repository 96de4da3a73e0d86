"""Figure 3: effect of varying the SOR problem size at 4Nx4P.

Shape: speedup rises steeply with grid size, then flattens below the
16-CPU ideal; the paper's 122x842 grid ("X") lands near its Figure 2
value for 4Nx4P.
"""

import pytest

from repro.bench.figure3 import main as figure3_main
from repro.bench.figure3 import run_figure3

ITERATIONS = 10


@pytest.fixture(scope="module")
def figure3_points():
    return run_figure3(iterations=ITERATIONS)


def test_figure3_regenerates(figure3_points):
    assert len(figure3_points) == 6
    print()
    print(figure3_main(iterations=ITERATIONS))


def test_speedup_monotone_in_problem_size(figure3_points):
    speedups = [p.speedup for p in figure3_points]
    assert speedups == sorted(speedups)


def test_small_grids_communication_bound(figure3_points):
    """"for sufficiently small grids [communication] will dominate
    computation and limit speedup"."""
    assert figure3_points[0].speedup < 0.6 * 16


def test_large_grids_approach_ideal(figure3_points):
    assert figure3_points[-1].speedup > 0.85 * 16


def test_curve_flattens(figure3_points):
    """The marginal gain from quadrupling the problem shrinks."""
    first_jump = figure3_points[1].speedup - figure3_points[0].speedup
    last_jump = figure3_points[-1].speedup - figure3_points[-2].speedup
    assert last_jump < first_jump


def test_paper_grid_is_marked(figure3_points):
    marked = [p for p in figure3_points if p.is_paper_grid]
    assert len(marked) == 1
    assert marked[0].points == 122 * 842
