"""Table 1: latency of Amber operations (paper section 5).

The simulated microbenchmarks must land on the paper's numbers under the
paper's stated conditions — this is the calibration every other
experiment builds on.
"""

import pytest

from repro.bench.paper_data import PAPER_TABLE1_MS
from repro.bench.table1 import main as table1_main
from repro.bench.table1 import run_table1

#: The microbenchmarks are charged exactly, so the tolerance is tight.
RTOL = 0.01


def test_table1_matches_paper():
    rows = run_table1()
    assert len(rows) == len(PAPER_TABLE1_MS)
    for row in rows:
        assert row.measured_ms == pytest.approx(row.paper_ms, rel=RTOL), (
            f"{row.operation}: measured {row.measured_ms} ms, "
            f"paper {row.paper_ms} ms")
    print()
    print(table1_main())


def test_remote_to_local_ratio():
    """Section 1.1: remote references are 3-4 orders of magnitude more
    expensive than local ones."""
    rows = run_table1()
    by_name = {row.operation: row.measured_ms for row in rows}
    ratio = by_name["remote invoke/return"] / by_name["local invoke/return"]
    assert 100 <= ratio <= 10_000
