"""Ablation A4: move cost vs CPUs per node (section 3.5).

"An added disadvantage is that the need to preempt all running threads
causes the cost of mobility to increase as processors are added to a
node."  The increase is linear in the CPU count with slope preempt_us.
"""

import pytest

from repro.bench.ablations import move_cost_vs_cpus
from repro.core.costs import CostModel


@pytest.fixture(scope="module")
def rows():
    return move_cost_vs_cpus(cpu_counts=(1, 2, 4, 8, 16))


def test_regenerates(rows):
    assert len(rows) == 5


def test_move_cost_increases_with_cpus(rows):
    costs = [row.move_us for row in rows]
    assert costs == sorted(costs)
    assert costs[-1] > costs[0]


def test_increase_is_linear_in_preempt_cost(rows):
    preempt = CostModel.firefly().preempt_us
    for a, b in zip(rows, rows[1:]):
        added_cpus = b.cpus_per_node - a.cpus_per_node
        assert b.move_us - a.move_us == pytest.approx(
            added_cpus * preempt, rel=0.01)


def test_four_cpu_point_is_table1(rows):
    four = {row.cpus_per_node: row.move_us for row in rows}[4]
    assert four == pytest.approx(12_430, rel=0.01)
