"""Tests for the SOR application (paper section 6).

The key correctness property: the Amber program computes *bitwise
identical* grids to the sequential baseline for any partitioning, because
same-color points never read each other within a phase.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sor import (
    SorProblem,
    make_grid,
    run_amber_sor,
    run_sequential_sor,
    sweep_color,
)
from repro.apps.sor import amber_sor
from repro.apps.sor.amber_sor import SorSection, default_sections
from repro.apps.sor.grid import (
    BLACK,
    RED,
    VALUE_BYTES,
    count_color_points,
    residual,
    sor_iterate,
)
from repro.apps.sor.sequential import sequential_time_us

SMALL = SorProblem(rows=10, cols=36, iterations=6)


def color_mask(rows, cols, color, row0=0, col0=0):
    """Points of ``color`` in a block whose corner is global
    ``(row0, col0)`` (the kernel itself builds no mask)."""
    r = np.arange(rows).reshape(-1, 1)
    c = np.arange(cols).reshape(1, -1)
    return ((r + c) % 2) == (row0 + col0 + color) % 2


class TestGridKernels:
    def test_boundary_preserved(self):
        grid = make_grid(SMALL)
        top, bottom, left, right = SMALL.boundary
        sor_iterate(grid, SMALL.omega)
        assert np.all(grid[0, :] == np.float32(top))
        assert np.all(grid[-1, :] == np.float32(bottom))
        assert np.all(grid[1:-1, 0] == np.float32(left))
        assert np.all(grid[1:-1, -1] == np.float32(right))

    def test_black_phase_only_touches_black_points(self):
        grid = make_grid(SMALL)
        before = grid.copy()
        sweep_color(grid, SMALL.omega, BLACK)
        changed = grid[1:-1, 1:-1] != before[1:-1, 1:-1]
        mask = color_mask(SMALL.rows, SMALL.cols, BLACK)
        assert not np.any(changed & ~mask)

    def test_iterations_reduce_residual(self):
        grid = make_grid(SMALL)
        initial = residual(grid)
        for _ in range(200):
            sor_iterate(grid, SMALL.omega)
        assert residual(grid) < initial / 100

    def test_convergence_to_laplace_solution(self):
        # float32 against a 100.0 boundary bottoms out around 1e-5, so the
        # tolerance sits above that floor.
        problem = SorProblem(rows=16, cols=16, iterations=2000,
                             omega=1.7, tolerance=1e-4)
        result = run_sequential_sor(problem)
        assert result.iterations_run < 2000   # tolerance triggered
        assert residual(result.grid) < 1e-3

    def test_count_color_points_matches_mask(self):
        for rows, cols in [(1, 1), (3, 5), (10, 36), (7, 8)]:
            for color in (BLACK, RED):
                for row0, col0 in [(0, 0), (1, 0), (3, 7)]:
                    expected = int(color_mask(rows, cols, color,
                                              row0, col0).sum())
                    got = count_color_points(rows, cols, color, row0, col0)
                    assert got == expected

    def test_colors_partition_the_grid(self):
        black = count_color_points(10, 36, BLACK)
        red = count_color_points(10, 36, RED)
        assert black + red == 360


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 12), cols=st.integers(2, 16),
       color=st.sampled_from([BLACK, RED]),
       row0=st.integers(0, 5), col0=st.integers(0, 5))
def test_count_color_points_property(rows, cols, color, row0, col0):
    expected = int(color_mask(rows, cols, color, row0, col0).sum())
    assert count_color_points(rows, cols, color, row0, col0) == expected


class TestAmberSorCorrectness:
    @pytest.mark.parametrize("nodes,cpus,sections", [
        (1, 1, 1),
        (1, 1, 3),
        (1, 4, 8),
        (2, 2, 4),
        (3, 2, 6),
        (4, 4, 8),
    ])
    def test_bitwise_identical_to_sequential(self, nodes, cpus, sections):
        seq = run_sequential_sor(SMALL)
        amber = run_amber_sor(SMALL, nodes=nodes, cpus_per_node=cpus,
                              sections=sections, collect_grid=True)
        assert np.array_equal(seq.grid, amber.grid)
        assert amber.final_delta == pytest.approx(seq.final_delta)

    def test_no_overlap_same_numerics(self):
        seq = run_sequential_sor(SMALL)
        amber = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4,
                              overlap=False, collect_grid=True)
        assert np.array_equal(seq.grid, amber.grid)

    def test_uneven_partition(self):
        problem = SorProblem(rows=9, cols=31, iterations=5)
        seq = run_sequential_sor(problem)
        amber = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=5,
                              collect_grid=True)
        assert np.array_equal(seq.grid, amber.grid)

    def test_tolerance_stops_early_and_consistently(self):
        problem = SorProblem(rows=12, cols=12, iterations=500,
                             tolerance=1e-3)
        seq = run_sequential_sor(problem)
        amber = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=4,
                              collect_grid=True)
        assert amber.iterations_run == seq.iterations_run
        assert amber.iterations_run < 500
        assert np.array_equal(seq.grid, amber.grid)

    def test_deterministic(self):
        a = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4)
        b = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4)
        assert a.elapsed_us == b.elapsed_us
        assert a.stats.as_dict() == b.stats.as_dict()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("problem", [
        SorProblem(rows=8, cols=16, iterations=400, tolerance=1e-3,
                   omega=math.nan),
        SorProblem(rows=8, cols=16, iterations=400, tolerance=1e-3,
                   omega=2.5),
        # One row: the NaN boundary is read by one red point only, so
        # the first iteration's NaN is the red phase's, in the last
        # section, and behind every finite delta below the tolerance.
        SorProblem(rows=1, cols=16, iterations=5, tolerance=1e9,
                   boundary=(100.0, 0.0, 0.0, math.nan)),
    ], ids=["omega-nan", "omega-2.5", "nan-right-boundary"])
    def test_a_diverged_grid_never_reads_as_converged(self, problem):
        """``max(a, nan)`` is ``a``: a NaN delta that came second in any
        reduction once stopped the run as converged (after 1 iteration at
        ``omega=nan``, 210 at 2.5) with ``final_delta == 0.0``."""
        seq = run_sequential_sor(problem)
        amber = run_amber_sor(problem, nodes=2, cpus_per_node=2)
        assert amber.iterations_run == seq.iterations_run \
            == problem.iterations
        assert math.isnan(seq.final_delta)
        assert math.isnan(amber.final_delta)

    @pytest.mark.parametrize("problem,kwargs,argument", [
        (SMALL, dict(workers_per_section=0), "workers_per_section"),
        (SMALL, dict(sections=0), "sections"),
        (SMALL, dict(sections=SMALL.cols + 1), "sections"),
        (SorProblem(rows=10, cols=4), {}, "sections"),   # default 8
    ], ids=["no-workers", "no-sections", "more-sections-than-columns",
            "default-sections-over-4-columns"])
    def test_a_shape_it_cannot_run_is_refused_by_name(
            self, monkeypatch, problem, kwargs, argument):
        def no_cluster(*args, **kwargs):
            raise AssertionError("a cluster was built")
        monkeypatch.setattr(amber_sor, "AmberProgram", no_cluster)
        with pytest.raises(ValueError, match=f"^{argument} "):
            run_amber_sor(problem, nodes=1, **kwargs)


def _result(generator):
    """What a program-text method returns, its syscalls ignored."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def test_section_slabs_hide_their_pad_column():
    """``SorSection`` pads its slab to an odd row length for the flat
    sweep; nothing else sees the pad.  31 columns in 5 sections are
    stripes of 6 (slab 8 wide, padded to 9) and one of 7 (9, no pad)."""
    problem = SorProblem(rows=9, cols=31, iterations=5)
    seq = run_sequential_sor(problem)
    amber = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=5,
                          collect_grid=True)
    assert np.array_equal(seq.grid, amber.grid)
    sections = sorted((obj for obj in amber.cluster.objects.values()
                       if isinstance(obj, SorSection)),
                      key=lambda section: section.index)
    assert [s.ncols for s in sections] == [6, 6, 6, 6, 7]
    for section in sections:
        width = section.ncols + 2
        assert section.cells.shape == (problem.rows + 2, 9)
        # Simulated time and events read the declared, unpadded slab.
        assert section.size_bytes == (problem.rows + 2) * width * VALUE_BYTES
        assert _result(section.snapshot(None)).shape \
            == (problem.rows + 2, section.ncols)
        # Ghost columns (the neighbours' edges), boundary columns and
        # interior: the sequential grid's bytes, the ghosts where
        # ``put_edge`` wrote them.
        assert section.cells[:, :width].tobytes() \
            == seq.grid[:, section.col0:section.col0 + width].tobytes()
        assert not section.cells[:, width:].any()


class TestAmberSorStructure:
    def test_paper_sectioning_rule(self):
        assert default_sections(1) == 8
        assert default_sections(2) == 8
        assert default_sections(3) == 6
        assert default_sections(4) == 8
        assert default_sections(6) == 6
        assert default_sections(8) == 8

    def test_static_placement_no_object_moves(self):
        """The SOR program uses static placement: sections are created on
        their nodes and never move."""
        amber = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=4)
        assert amber.stats.object_moves == 0

    def test_edges_cross_nodes_as_remote_invocations(self):
        amber = run_amber_sor(SMALL, nodes=2, cpus_per_node=2, sections=2)
        # One internal boundary between nodes: 2 edges x 2 colors x
        # 6 iterations = 24 remote put_edge calls, plus convergence
        # reports from the far section.
        assert amber.stats.total_remote_invocations >= 24

    def test_single_node_uses_no_network(self):
        amber = run_amber_sor(SMALL, nodes=1, cpus_per_node=4, sections=4)
        cluster = amber.stats
        assert cluster.thread_migrations == 0

    def test_speedup_accounting(self):
        amber = run_amber_sor(SMALL, nodes=1, cpus_per_node=1, sections=1)
        assert amber.sequential_us == sequential_time_us(
            SMALL, amber.iterations_run, amber.per_point_us)
        assert amber.speedup == pytest.approx(
            amber.sequential_us / amber.elapsed_us)


class TestSorPerformanceShape:
    """Coarse performance-shape assertions; the full curves live in the
    benchmark harness."""

    def test_parallelism_helps_at_scale(self):
        problem = SorProblem(rows=61, cols=421, iterations=4)
        one = run_amber_sor(problem, nodes=1, cpus_per_node=1, sections=2)
        four = run_amber_sor(problem, nodes=2, cpus_per_node=2, sections=4)
        assert four.elapsed_us < one.elapsed_us / 2

    def test_overlap_beats_no_overlap(self):
        problem = SorProblem(rows=61, cols=421, iterations=6)
        with_overlap = run_amber_sor(problem, nodes=4, cpus_per_node=2,
                                     sections=8)
        without = run_amber_sor(problem, nodes=4, cpus_per_node=2,
                                sections=8, overlap=False)
        assert with_overlap.elapsed_us < without.elapsed_us

    def test_larger_grids_scale_better(self):
        small = run_amber_sor(SorProblem(rows=20, cols=60, iterations=4),
                              nodes=4, cpus_per_node=2)
        large = run_amber_sor(SorProblem(rows=80, cols=560, iterations=4),
                              nodes=4, cpus_per_node=2)
        assert large.speedup > small.speedup
