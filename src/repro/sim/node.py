"""Simulated nodes: small shared-memory multiprocessors.

A node owns its CPUs, a ready queue (the replaceable scheduler object), a
descriptor table, and a heap carved from regions granted by the
address-space server.  All inter-node interaction goes through the kernel
and the shared Ethernet.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.address_space import AddressSpaceServer, NodeHeap
from repro.core.descriptor import DescriptorTable
from repro.sim.scheduler import FifoScheduler, Scheduler
from repro.sim.stats import NodeStats
from repro.sim.thread import SimThread


class Cpu:
    """One processor.  ``thread`` is the occupant; ``run_event`` is the
    pending engine event advancing it (cancelled on preemption)."""

    __slots__ = ("index", "thread", "run_event", "charge_started_ns",
                 "charge_us", "charge_preemptible")

    def __init__(self, index: int):
        self.index = index
        self.thread: Optional[SimThread] = None
        self.run_event = None
        #: Bookkeeping for splitting a preempted charge.
        self.charge_started_ns: int = 0
        self.charge_us: float = 0.0
        self.charge_preemptible: bool = False

    @property
    def idle(self) -> bool:
        return self.thread is None


class SimNode:
    """A multiprocessor node in the simulated cluster."""

    def __init__(self, node_id: int, ncpus: int,
                 server: AddressSpaceServer):
        self.id = node_id
        self.ncpus = ncpus
        self.cpus: List[Cpu] = [Cpu(i) for i in range(ncpus)]
        self.scheduler: Scheduler = FifoScheduler()
        self.descriptors = DescriptorTable(node_id)
        self.heap = NodeHeap(node_id, server)
        self.stats = NodeStats(node_id, ncpus)
        #: Crashed (fault injection): the network drops the node's
        #: traffic and the kernel dispatches nothing here until restart.
        self.down = False

    def idle_cpu(self) -> Optional[Cpu]:
        for cpu in self.cpus:
            if cpu.thread is None:
                return cpu
        return None

    def set_scheduler(self, scheduler: Scheduler) -> None:
        """Install a new scheduler object, carrying queued threads over."""
        for thread in self.scheduler.drain():
            scheduler.enqueue(thread)
        self.scheduler = scheduler

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.id} cpus={self.ncpus}>"
