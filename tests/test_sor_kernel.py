"""The SOR sweep kernel against its predecessor and its golden.

``reference_sweep`` is the masked kernel ``sweep_color`` replaced, kept
here verbatim as the oracle: it evaluates the stencil at every point of
the window and selects the colour with a boolean mask.  ``sweep_color``
must leave the same bytes in the grid and return the same delta on any
window, offset, colour and omega — the parallel SOR programs are pinned
to the sequential one bit for bit, and all of them share this kernel.

``tests/golden/sor_kernel.json`` was generated from the masked kernel,
before the rewrite; a change to the kernel must leave it untouched.
Regenerate (only for an intended change of the arithmetic) with::

    PYTHONPATH=src python -m tests.test_sor_kernel
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sor import (
    SorProblem,
    run_amber_sor,
    run_sequential_sor,
    sweep_color,
)
from repro.apps.sor.grid import BLACK, RED, count_color_points

GOLDEN = Path(__file__).parent / "golden" / "sor_kernel.json"

OMEGAS = (1.0, 1.5, 1.9)


def parity_mask(rows: int, cols: int, color: int,
                row0: int = 0, col0: int = 0) -> np.ndarray:
    """Points of ``color`` in a block whose corner is global
    ``(row0, col0)``."""
    r = np.arange(rows).reshape(-1, 1)
    c = np.arange(cols).reshape(1, -1)
    return ((r + c) % 2) == (row0 + col0 + color) % 2


def reference_sweep(grid, omega, color, row0=1, row1=None, col0=1,
                    col1=None, global_row0=0, global_col0=0) -> float:
    if row1 is None:
        row1 = grid.shape[0] - 1
    if col1 is None:
        col1 = grid.shape[1] - 1
    if row1 <= row0 or col1 <= col0:
        return 0.0
    block = grid[row0:row1, col0:col1]
    mask = parity_mask(row1 - row0, col1 - col0, color,
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


def patterned_grid(rows: int, cols: int) -> np.ndarray:
    """A ``(rows+2, cols+2)`` grid built without a random generator:
    values exact in float32, quadratic in the indices so that no point
    already equals the mean of its neighbours."""
    i = np.arange(rows + 2).reshape(-1, 1)
    j = np.arange(cols + 2).reshape(1, -1)
    values = ((i * i * 37 + j * j * 101 + i * j * 7) % 251) / 8.0 - 7.0
    return values.astype(np.float32)


def same_delta(got: float, expected: float) -> bool:
    return got == expected or (math.isnan(got) and math.isnan(expected))


def sha256(grid: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()


# -- against the masked kernel ---------------------------------------------


@st.composite
def sweeps(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    row0 = draw(st.integers(1, rows + 1))
    row1 = draw(st.integers(row0 - 1, rows + 1))     # empty windows too
    col0 = draw(st.integers(1, cols + 1))
    col1 = draw(st.integers(col0 - 1, cols + 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    grid = np.random.default_rng(seed).uniform(
        -100, 100, (rows + 2, cols + 2)).astype(np.float32)
    return grid, dict(
        omega=draw(st.sampled_from(OMEGAS + (0.3, 1.0 / 3.0))),
        color=draw(st.sampled_from([BLACK, RED])),
        row0=row0, row1=row1, col0=col0, col1=col1,
        global_row0=draw(st.integers(0, 4)),
        global_col0=draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_sweep_matches_the_masked_kernel(case):
    grid, args = case
    expected_grid = grid.copy()
    expected = reference_sweep(expected_grid, **args)
    got = sweep_color(grid, **args)
    assert grid.tobytes() == expected_grid.tobytes()
    assert got == expected
    assert type(got) is float


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 1), (3, 4), (4, 4), (6, 9)])
def test_non_finite_values_propagate_as_in_the_masked_kernel(value, where):
    """Sweeping the poisoned point's own colour puts the NaN change in
    one sub-lattice only, the first or the second by the point's row: a
    running ``if m > best`` over the two would drop it."""
    for color in (BLACK, RED):
        grid = patterned_grid(6, 9)
        grid[where] = value
        expected_grid = grid.copy()
        expected = reference_sweep(expected_grid, 1.5, color)
        got = sweep_color(grid, 1.5, color)
        assert grid.tobytes() == expected_grid.tobytes()
        assert same_delta(got, expected)
        assert not math.isfinite(expected)


def test_non_contiguous_grid():
    """``SorSection.cells`` is a contiguous copy today; the kernel must
    not rely on it."""
    wide = patterned_grid(12, 40)
    expected_wide = wide.copy()
    cells = wide[:, 7:25]
    assert not cells.flags["C_CONTIGUOUS"]
    for color in (BLACK, RED):
        expected = reference_sweep(expected_wide[:, 7:25], 1.5, color,
                                   global_col0=7)
        got = sweep_color(cells, 1.5, color, global_col0=7)
        assert got == expected
    assert wide.tobytes() == expected_wide.tobytes()


def test_count_color_points_exhaustively():
    for rows, cols, row0, col0, color in itertools.product(
            range(13), range(13), (0, 1), (0, 1), (BLACK, RED)):
        expected = int(parity_mask(rows, cols, color, row0, col0).sum())
        assert count_color_points(rows, cols, color, row0, col0) \
            == expected, (rows, cols, row0, col0, color)


# -- against the golden ----------------------------------------------------

#: ``(row0, row1, col0, col1)`` array windows on an 11 x 14 interior.
WINDOWS = {
    "whole": (1, 12, 1, 15),
    "even-corner": (2, 9, 2, 11),
    "odd-row-start": (3, 10, 2, 11),
    "odd-col-start": (2, 9, 5, 14),
    "one-row": (4, 5, 1, 15),
    "one-col": (1, 12, 6, 7),
    "one-point": (5, 6, 7, 8),
    "empty": (5, 5, 3, 9),
    "bottom-right-ring": (8, 12, 10, 15),
}


def kernel_cases():
    for (name, window), color, (grow, gcol), omega in itertools.product(
            WINDOWS.items(), (BLACK, RED),
            ((0, 0), (0, 1), (1, 0), (3, 103)), OMEGAS):
        yield (f"{name}/color{color}/g{grow},{gcol}/w{omega}",
               window, color, grow, gcol, omega)


def observe_kernel() -> dict:
    observed = {}
    for name, (row0, row1, col0, col1), color, grow, gcol, omega \
            in kernel_cases():
        grid = patterned_grid(11, 14)
        delta = sweep_color(grid, omega, color, row0=row0, row1=row1,
                            col0=col0, col1=col1,
                            global_row0=grow, global_col0=gcol)
        observed[name] = [sha256(grid), delta]
    return observed


PAPER_20 = SorProblem(iterations=20)


def observe_sequential() -> dict:
    result = run_sequential_sor(PAPER_20)
    return {"grid_sha256": sha256(result.grid),
            "final_delta": result.final_delta}


def observe_amber(overlap: bool) -> dict:
    result = run_amber_sor(PAPER_20, nodes=8, cpus_per_node=4,
                           overlap=overlap, collect_grid=True)
    return {"events_run": result.cluster.sim.events_run,
            "elapsed_us": result.elapsed_us,
            "grid_sha256": sha256(result.grid),
            "final_delta": result.final_delta}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_kernel_cases_match_golden(golden):
    observed = observe_kernel()
    assert sorted(observed) == sorted(golden["sweep_color"])
    for name, expected in golden["sweep_color"].items():
        assert observed[name] == expected, name


def test_golden_kernel_cases_are_not_trivial(golden):
    cases = golden["sweep_color"]
    untouched = sha256(patterned_grid(11, 14))
    assert len(cases) == len(WINDOWS) * 2 * 4 * len(OMEGAS)
    one_point = [name for name in cases if name.startswith("one-point/")]
    moved = [name for name in one_point if cases[name][0] != untouched]
    # A one-point window holds a point of exactly one colour.
    assert len(moved) == len(one_point) // 2
    for name, (digest, delta) in cases.items():
        if name.startswith("empty/"):
            assert (digest, delta) == (untouched, 0.0)
        elif name not in one_point:
            assert digest != untouched and delta > 0.0, name


def test_sequential_paper_grid_matches_golden(golden):
    assert observe_sequential() == golden["sequential_paper_20"]


@pytest.mark.parametrize("overlap", [True, False])
def test_amber_paper_grid_matches_golden(golden, overlap):
    key = "amber_8Nx4P_paper_20" + ("" if overlap else "_no_overlap")
    assert observe_amber(overlap) == golden[key]
    assert golden[key]["grid_sha256"] \
        == golden["sequential_paper_20"]["grid_sha256"]


def _regenerate() -> None:
    golden = {
        "sweep_color": observe_kernel(),
        "sequential_paper_20": observe_sequential(),
        "amber_8Nx4P_paper_20": observe_amber(True),
        "amber_8Nx4P_paper_20_no_overlap": observe_amber(False),
    }
    lines = ["{", '"sweep_color": {']
    lines.append(",\n".join(
        f"{json.dumps(name)}: {json.dumps(value)}"
        for name, value in golden["sweep_color"].items()))
    lines.append("},")
    lines.append(",\n".join(
        f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
        for key in sorted(golden) if key != "sweep_color"))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
