"""Simulated nodes: small shared-memory multiprocessors.

A node owns its CPUs, a ready queue (the replaceable scheduler object), a
descriptor table, and a heap carved from regions granted by the
address-space server.  All inter-node interaction goes through the kernel
and the shared Ethernet.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.address_space import AddressSpaceServer, NodeHeap
from repro.core.descriptor import DescriptorTable
from repro.sim.scheduler import FifoScheduler, Scheduler
from repro.sim.stats import NodeStats
from repro.sim.thread import SimThread


class Cpu:
    """One processor.  ``thread`` is the occupant; ``run_event`` is the
    engine entry of its one charge in flight (cancelled on preemption),
    and the charge's length and continuation are kept here with it: a
    CPU runs one charge at a time, so its entry's ``fn`` is
    ``partial(cpu.fire, thread, token)``, not a closure per charge."""

    __slots__ = ("index", "stats", "thread", "run_event", "then",
                 "charge_started_ns", "charge_us", "charge_preemptible")

    def __init__(self, index: int, stats: NodeStats):
        self.index = index
        #: The node's statistics (busy time is added per charge).
        self.stats = stats
        self.thread: Optional[SimThread] = None
        self.run_event = None
        #: Continuation of the charge in flight.
        self.then: Optional[Callable[[], None]] = None
        #: Bookkeeping for splitting a preempted charge.
        self.charge_started_ns: int = 0
        self.charge_us: float = 0.0
        self.charge_preemptible: bool = False

    def fire(self, thread: SimThread, token: int) -> None:
        """The charge in flight has elapsed: count it busy and continue.
        ``token`` is ``thread``'s run token when the charge began; a
        thread preempted mid-charge no longer matches it."""
        if thread.run_token != token:
            return
        self.stats.cpu_busy_us += self.charge_us
        self.run_event = None
        self.charge_preemptible = False
        # Dropped before it runs, so that no CPU keeps a finished
        # charge's continuation (and all it references) alive.
        then, self.then = self.then, None
        then()


class SimNode:
    """A multiprocessor node in the simulated cluster."""

    def __init__(self, node_id: int, ncpus: int,
                 server: AddressSpaceServer):
        self.id = node_id
        self.ncpus = ncpus
        self.stats = NodeStats(node_id, ncpus)
        self.cpus: List[Cpu] = [Cpu(i, self.stats) for i in range(ncpus)]
        self.scheduler: Scheduler = FifoScheduler()
        self.descriptors = DescriptorTable(node_id)
        self.heap = NodeHeap(node_id, server)
        #: Crashed (fault injection): the network drops the node's
        #: traffic and the kernel dispatches nothing here until restart.
        self.down = False

    def set_scheduler(self, scheduler: Scheduler) -> None:
        """Install a new scheduler object, carrying queued threads over."""
        for thread in self.scheduler.drain():
            scheduler.enqueue(thread)
        self.scheduler = scheduler

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.id} cpus={self.ncpus}>"
