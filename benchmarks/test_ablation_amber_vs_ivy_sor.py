"""Ablation A1: function shipping (Amber) vs data shipping (Ivy) on SOR.

The paper's section 4 claims, measured on a common cost model:

* on one node the two are equivalent (no network on either side);
* across nodes Amber wins, and the gap grows with node count;
* Ivy pays multiple page faults per edge where Amber pays one
  invocation (section 4.2's "multiple page faults unless the process is
  explicitly moved").
"""

import pytest

from repro.bench.ablations import amber_vs_ivy_sor

ITERATIONS = 8


@pytest.fixture(scope="module")
def rows():
    return amber_vs_ivy_sor(iterations=ITERATIONS)


def test_comparison_regenerates(rows):
    assert len(rows) == 4


def test_equivalent_on_single_node(rows):
    single = rows[0]
    assert single.label == "1Nx4P"
    assert single.amber_speedup == pytest.approx(single.ivy_speedup,
                                                 rel=0.05)
    assert single.ivy_page_transfers == 0


def test_amber_wins_across_nodes(rows):
    for row in rows[1:]:
        assert row.amber_speedup > row.ivy_speedup, row.label


def test_gap_grows_with_nodes(rows):
    gaps = [row.amber_speedup / row.ivy_speedup for row in rows[1:]]
    assert gaps == sorted(gaps)
    assert gaps[-1] > 1.3   # a clear win at 8 nodes


def test_ivy_needs_many_more_messages(rows):
    eight = rows[-1]
    assert eight.ivy_messages > 3 * eight.amber_messages


def test_edges_cost_multiple_faults(rows):
    """A 842-column float32 row spans four 1 KiB pages: each ghost-row
    fetch costs ~4 faults where Amber pays one invocation."""
    eight = rows[-1]
    # 32 processes x 2 ghost rows x 2 colors x iterations, ~4 pages each:
    # the fault count dwarfs the number of logical edge exchanges.
    logical_edges = 32 * 2 * 2 * ITERATIONS
    assert eight.ivy_faults > logical_edges
