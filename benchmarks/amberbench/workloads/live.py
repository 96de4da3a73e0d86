"""Shared by the two live-cluster workloads: the counter object they
invoke, and per-operation kernel/transport counts read from
``Cluster.node_stats``."""

from __future__ import annotations

from collections import Counter as Tally
from typing import Any, Dict

from repro.runtime import AmberObject, Cluster

from benchmarks.amberbench.workloads.base import Workload

NODES = 3
COUNTERS = 8


class Counter(AmberObject):
    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def get(self) -> int:
        return self.value


def cluster_counts(cluster: Cluster) -> Tally:
    """``node_stats`` summed over every node."""
    total: Tally = Tally()
    for node in range(cluster.num_nodes):
        total.update(cluster.node_stats(node))
    return total


class LiveWorkload(Workload):
    """A workload on a 3-node live cluster with 8 counters on nodes 1-2."""

    keeps_all_cpus_busy = True
    cluster: Any = None

    def start_cluster(self) -> None:
        with self.rec.span("runtime.cluster.start"):
            self.cluster = Cluster(nodes=NODES)
        with self.rec.span("runtime.cluster.create"):
            self.counters = [
                self.cluster.create(Counter, node=1 + index % 2)
                for index in range(COUNTERS)]
        self.sent = [0] * COUNTERS
        self.ops_done = 0

    def mark_counts(self) -> None:
        """Start counting per-op kernel work from here.  Reading the
        stats sends messages of its own; two reads back to back measure
        that cost so it can be taken out again."""
        first = cluster_counts(self.cluster)
        self._base = cluster_counts(self.cluster)
        self._read_cost = self._base - first
        self.ops_done = 0

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None

    def check_counter_values(self) -> None:
        """Nothing lost, nothing executed twice."""
        expected = list(self.sent)
        if self.flip_oracle:
            expected[0] += 1
        for handle, count in zip(self.counters, expected):
            self.check(self.cluster.call(handle, "get") == count)

    def layer_metrics(self, stages: Dict[str, float],
                      untraced_round_s: float) -> Dict[str, float]:
        now = cluster_counts(self.cluster)
        ops = max(1, self.ops_done)

        def since_mark(key: str) -> int:
            return now[key] - self._base[key] - self._read_cost[key]

        return {
            "runtime.transport.sends_per_op":
                since_mark("transport_sends") / ops,
            "runtime.transport.retries": since_mark("transport_retries"),
            "runtime.transport.reconnects":
                since_mark("transport_reconnects"),
            "runtime.kernel.forwards_per_op": since_mark("forwards") / ops,
            "runtime.kernel.hints_per_op": since_mark("hints") / ops,
            "runtime.kernel.moves_per_op": since_mark("moves_out") / ops,
            "runtime.kernel.resends": since_mark("resends"),
            "runtime.kernel.dedup_replayed": since_mark("dedup_replayed"),
            "runtime.kernel.circuit_opens": since_mark("circuit_opens"),
        }
