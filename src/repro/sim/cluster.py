"""Cluster assembly: nodes + network + address space + kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.address_space import AddressSpaceServer
from repro.core.attachment import AttachmentGraph
from repro.core.costs import MAX_NODES_OR_CPUS, CostModel
from repro.errors import SimulationError, finite
from repro.faults.inject import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.network import Ethernet
from repro.sim.node import SimNode
from repro.sim.objects import SimObject
from repro.sim.stats import ClusterStats


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated machine.

    The paper's testbed is ``ClusterConfig(nodes=8, cpus_per_node=4)`` — up
    to eight Fireflies, each contributing four CVAX processors to user
    threads — on one shared Ethernet.
    """

    nodes: int = 1
    cpus_per_node: int = 4

    def __post_init__(self) -> None:
        for name in ("nodes", "cpus_per_node"):
            finite(name, getattr(self, name), SimulationError, 1,
                   MAX_NODES_OR_CPUS, integral=True)

    @property
    def total_cpus(self) -> int:
        return self.nodes * self.cpus_per_node

    def label(self) -> str:
        """The paper's configuration label, e.g. ``4Nx2P``."""
        return f"{self.nodes}Nx{self.cpus_per_node}P"


class SimCluster:
    """Everything shared by the simulated machine.

    The Python object for every Amber object lives in ``objects`` (there is
    only one OS process here); *where the object is* in the simulated world
    is tracked solely by per-node descriptor tables, exactly as in the
    paper.  The address-space server is global knowledge, mirroring section
    3.3: "Each task has complete knowledge of the assignment of heap regions
    to nodes".
    """

    def __init__(self, config: ClusterConfig,
                 costs: Optional[CostModel] = None,
                 faults=None, recovery=None):
        self.config = config
        self.costs = costs or CostModel.firefly()
        #: Optional repro.recovery.config.RecoveryConfig; when set, the
        #: kernel runs a heartbeat detector, checkpoints mutable objects
        #: to backups, and resurrects orphaned threads after crashes.
        self.recovery = recovery
        self.sim = Simulator()
        #: Always-on registry: the kernel and network feed it operation
        #: latency histograms, lock wait/hold times, queue occupancy.
        self.metrics = MetricsRegistry()
        #: Optional repro.faults.plan.FaultPlan; crash/restart events are
        #: scheduled by the kernel, message faults by the injector.
        self.faults = faults
        injector = None
        if faults is not None:
            injector = FaultInjector(
                faults, self.metrics,
                is_down=lambda node_id: self.nodes[node_id].down)
        self.fault_injector = injector
        self.network = Ethernet(self.sim, self.costs,
                                metrics=self.metrics,
                                faults=injector)
        self.address_server = AddressSpaceServer()
        self.nodes: List[SimNode] = [
            SimNode(node_id, config.cpus_per_node, self.address_server)
            for node_id in range(config.nodes)
        ]
        self.objects: Dict[int, SimObject] = {}
        self.attachments = AttachmentGraph()
        self.stats = ClusterStats(nodes=[node.stats for node in self.nodes],
                                  metrics=self.metrics)
        #: vaddr -> {origin node -> invocation count}; fed by the kernel,
        #: consumed by placement policies (repro.placement).
        self.access_log: Dict[int, Dict[int, int]] = {}
        #: Optional repro.sim.trace.Tracer receiving kernel events.
        self.tracer = None
        #: The run's :class:`repro.analyze.sanitizer.Sanitizer`, when
        #: it ran inside :func:`repro.analyze.runtime.sanitize_runs`.
        self.sanitizer = None
        # The kernel is attached by AmberProgram (import cycle otherwise).
        self.kernel = None

    def node(self, node_id: int) -> SimNode:
        if not 0 <= node_id < len(self.nodes):
            raise SimulationError(
                f"no such node {node_id} (cluster has {len(self.nodes)})")
        return self.nodes[node_id]

    def descriptor_tables(self):
        """node id -> DescriptorTable, for the pure forwarding resolver."""
        return {node.id: node.descriptors for node in self.nodes}

    def home_node(self, vaddr: int) -> int:
        return self.address_server.home_node(vaddr)

    @property
    def now_us(self) -> float:
        return self.sim.now_us
