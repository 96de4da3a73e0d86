"""The N-Queens work pool of `repro.apps.queens` on the live runtime.

The simulator's program text, unchanged: a WorkPool object on one node,
worker threads on every node pulling batches through function-shipped
invocations.  Counting is real, so the total must match the known
solution counts.
"""

import pytest

from repro.apps.queens import (
    DEFAULT_NODE_COST_US,
    KNOWN_SOLUTIONS,
    QueensWorker,
    WorkPool,
    queens_main,
    seed_prefixes,
)
from repro.placement.policies import PlacementPolicy
from repro.runtime import Cluster


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


class TestLiveWorkPool:
    def test_distributed_count_is_correct(self, cluster):
        n = 8
        units = len(seed_prefixes(n, 2))
        # One worker per node, batches of 2, the pool on node 0.
        solutions, _, done, per_worker = cluster.run(
            queens_main, n, 3, 1, 2, 2, DEFAULT_NODE_COST_US,
            PlacementPolicy())
        assert solutions == KNOWN_SOLUTIONS[n]
        assert done == units
        assert len(per_worker) == 3
        assert sum(per_worker) == units

    def test_pool_empties_exactly_once(self, cluster):
        prefixes = seed_prefixes(6, 1)
        pool = cluster.create(WorkPool, prefixes, node=1)
        worker = cluster.create(QueensWorker, 6, pool, DEFAULT_NODE_COST_US,
                                node=2)
        thread = cluster.fork(worker, "run", 3)
        assert thread.join(timeout=30) == len(prefixes)
        assert pool.take() == []
