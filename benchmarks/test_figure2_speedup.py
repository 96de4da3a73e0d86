"""Figure 2: measured speedup of the Amber Red/Black SOR program.

Shape assertions follow the paper's own conclusions:

* "Good speedups are possible in this environment" — speedup ~25 at
  8Nx4P (we accept 25% of the figure read-off);
* overlapping communication with computation beats not overlapping;
* "nearly identical speedups are achieved for all of the experiments
  involving a total of four processors (1Nx4P, 2Nx2P, 4Nx1P)";
* "Similar results ... with eight processors (2Nx4P, 4Nx2P)";
* speedup grows monotonically with total processors (at fixed CPU/node).
"""

import pytest

from repro.bench.figure2 import main as figure2_main
from repro.bench.figure2 import run_figure2
from repro.bench.paper_data import (
    FIGURE2_SHAPE_RTOL,
    PAPER_FIGURE2_SPEEDUPS,
)

ITERATIONS = 12   # enough to amortize startup; keeps the suite quick


@pytest.fixture(scope="module")
def figure2_rows():
    return run_figure2(iterations=ITERATIONS)


def test_figure2_regenerates(figure2_rows):
    assert len(figure2_rows) == 12
    print()
    print(figure2_main(iterations=ITERATIONS))


def test_speedups_track_paper_within_band(figure2_rows):
    for row in figure2_rows:
        if row.paper_speedup is None:
            continue
        assert row.speedup == pytest.approx(
            row.paper_speedup, rel=FIGURE2_SHAPE_RTOL), (
            f"{row.label}: {row.speedup:.2f} vs paper "
            f"{row.paper_speedup:.2f}")


def test_headline_8nx4p_speedup(figure2_rows):
    by_label = {row.label: row.speedup for row in figure2_rows}
    assert by_label["8Nx4P"] > 18.0   # "a speedup of 25" band


def test_overlap_beats_no_overlap(figure2_rows):
    by_label = {row.label: row.speedup for row in figure2_rows}
    assert by_label["8Nx4P"] > by_label["8Nx4P (no overlap)"]


def test_four_cpu_configs_nearly_identical(figure2_rows):
    by_label = {row.label: row.speedup for row in figure2_rows}
    four = [by_label["1Nx4P"], by_label["2Nx2P"], by_label["4Nx1P"]]
    assert max(four) / min(four) < 1.10


def test_eight_cpu_configs_similar(figure2_rows):
    by_label = {row.label: row.speedup for row in figure2_rows}
    eight = [by_label["2Nx4P"], by_label["4Nx2P"]]
    assert max(eight) / min(eight) < 1.10


def test_monotone_scaling_at_4p_per_node(figure2_rows):
    by_label = {row.label: row.speedup for row in figure2_rows}
    curve = [by_label[label] for label in
             ("1Nx4P", "2Nx4P", "3Nx4P", "4Nx4P", "6Nx4P", "8Nx4P")]
    assert curve == sorted(curve)
