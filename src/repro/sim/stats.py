"""Instrumentation for simulated runs.

Every kernel action increments counters here; benchmarks and tests read them
to verify communication behaviour (message counts, migrations, utilization)
rather than just end-to-end time.  Distributional metrics — operation
latency histograms, lock wait times, network queueing — live in the
cluster's :class:`repro.obs.metrics.MetricsRegistry`, which this snapshot
references so ``as_dict()`` can report p50/p90/p99 alongside the flat
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


@dataclass
class NodeStats:
    node: int
    cpus: int
    #: Total CPU busy time across the node's processors, microseconds.
    cpu_busy_us: float = 0.0
    local_invocations: int = 0
    remote_invocations: int = 0      # traps taken on this node (outbound)
    threads_out: int = 0             # one-way thread transfers from here
    objects_in: int = 0              # objects moved here
    objects_out: int = 0
    replicas_installed: int = 0      # immutable copies installed here
    context_switches: int = 0
    forward_hops: int = 0            # misdelivered requests forwarded on

    def utilization(self, elapsed_us: float) -> float:
        """Mean busy fraction of this node's CPUs over ``elapsed_us``."""
        if elapsed_us <= 0 or self.cpus <= 0:
            return 0.0
        return self.cpu_busy_us / (elapsed_us * self.cpus)


@dataclass
class ClusterStats:
    nodes: List[NodeStats] = field(default_factory=list)
    object_moves: int = 0            # group moves completed
    locates: int = 0
    #: Latency histograms etc. for the same run (attached by SimCluster).
    metrics: Optional[MetricsRegistry] = None

    def node(self, node_id: int) -> NodeStats:
        return self.nodes[node_id]

    # Per-node facts are counted on their node only; the cluster figure
    # is the sum.
    @property
    def thread_migrations(self) -> int:
        return sum(n.threads_out for n in self.nodes)

    @property
    def forwarding_hops_followed(self) -> int:
        return sum(n.forward_hops for n in self.nodes)

    @property
    def replications(self) -> int:
        return sum(n.replicas_installed for n in self.nodes)

    @property
    def total_local_invocations(self) -> int:
        return sum(n.local_invocations for n in self.nodes)

    @property
    def total_remote_invocations(self) -> int:
        return sum(n.remote_invocations for n in self.nodes)

    @property
    def total_cpu_busy_us(self) -> float:
        return sum(n.cpu_busy_us for n in self.nodes)

    def mean_utilization(self, elapsed_us: float) -> float:
        total_cpus = sum(n.cpus for n in self.nodes)
        if elapsed_us <= 0 or total_cpus == 0:
            return 0.0
        return self.total_cpu_busy_us / (elapsed_us * total_cpus)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary, convenient for benchmark reporting.  When a
        metrics registry is attached, every latency histogram contributes
        ``<name>_p50`` / ``_p90`` / ``_p99`` / ``_max`` entries."""
        out: Dict[str, float] = {
            "local_invocations": self.total_local_invocations,
            "remote_invocations": self.total_remote_invocations,
            "thread_migrations": self.thread_migrations,
            "object_moves": self.object_moves,
            "replications": self.replications,
            "forwarding_hops": self.forwarding_hops_followed,
        }
        if self.metrics is not None:
            for name, histogram in sorted(self.metrics.histograms.items()):
                summary = histogram.summary()
                out[f"{name}_count"] = summary["count"]
                for quantile in ("p50", "p90", "p99", "max"):
                    out[f"{name}_{quantile}"] = summary[quantile]
        return out
