"""Cluster bootstrap and the driver-side API of the live runtime.

The driver process is node 0: it runs the coordinator (a thread), its own
:class:`~repro.runtime.kernel.NodeKernel`, and the user's program.  Nodes
1..N-1 are child processes (fork start method, so classes defined in the
driver script are visible everywhere).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.core.address_space import DEFAULT_REGION_BYTES
from repro.core.costs import MAX_NODES_OR_CPUS
from repro.errors import ClusterError, finite
from repro.obs.metrics import MetricsRegistry
from repro.runtime.coordinator import Coordinator, CoordinatorClient
from repro.runtime.handles import Handle, ThreadHandle
from repro.runtime.kernel import NodeKernel
from repro.runtime.node import node_main
from repro.runtime.programtext import run_program_text


class Cluster:
    """A running Amber cluster.

    Use as a context manager; everything is torn down on exit::

        with Cluster(nodes=4) as cluster:
            counter = cluster.create(Counter, node=2)
            counter.add(1)
    """

    def __init__(self, nodes: int = 2,
                 region_bytes: int = DEFAULT_REGION_BYTES,
                 chaos=None):
        self.num_nodes = finite("nodes", nodes, ClusterError, 1,
                                MAX_NODES_OR_CPUS, integral=True)
        self._region_bytes = region_bytes
        #: Optional frozen FaultPlan: every node's mesh (driver
        #: included) gets a seeded LiveFaultInjector, and
        #: :meth:`start_chaos` runs the plan's kill/restart schedule.
        self._chaos = chaos
        self._chaos_controller = None
        self._coordinator = Coordinator(nodes, region_bytes)
        self._context = multiprocessing.get_context("fork")
        self._processes: Dict[int, multiprocessing.Process] = {}
        for node_id in range(1, nodes):
            self._spawn_node(node_id)
        self._client = CoordinatorClient(self._coordinator.address,
                                         region_bytes)
        self.kernel = NodeKernel(0, self._client, chaos=chaos)
        self._client.join(0, self.kernel.mesh)
        self._client.wait_directory()
        self._alive = True
        #: Wall-clock latency histograms for driver-side operations
        #: (``invoke_us``, ``move_us``, ``locate_us``, ``create_us``).
        self.metrics = MetricsRegistry()

    def _spawn_node(self, node_id: int) -> None:
        process = self._context.Process(
            target=node_main,
            args=(node_id, self._coordinator.address,
                  self._region_bytes, self._chaos),
            name=f"amber-node-{node_id}", daemon=True)
        process.start()
        self._processes[node_id] = process

    # -- program-facing API -------------------------------------------------

    def create(self, cls: type, *args, node: Optional[int] = None,
               **kwargs) -> Handle:
        """Create an object of ``cls``; on ``node`` if given, else here."""
        self._check_node(node)
        with self._timed("create_us"):
            return self.kernel.create(cls, args, kwargs, node)

    def call(self, handle: Handle, method: str, *args, **kwargs) -> Any:
        """Synchronous invocation (``handle.method(...)`` sugar does the
        same thing)."""
        with self._timed("invoke_us"):
            return self.kernel.invoke(handle.vaddr, method, args, kwargs)

    def fork(self, handle: Handle, method: str, *args,
             **kwargs) -> ThreadHandle:
        """Start an Amber thread running ``method`` on the object; join
        it with ``.join()``."""
        return self.kernel.fork(handle.vaddr, method, args, kwargs)

    def move(self, handle: Handle, node: int) -> None:
        """MoveTo: relocate the object and its attachment group
        (immutable objects are copied instead)."""
        self._check_node(node)
        with self._timed("move_us"):
            self.kernel.move(handle.vaddr, node)

    def locate(self, handle: Handle) -> int:
        with self._timed("locate_us"):
            return self.kernel.locate(handle.vaddr)

    def set_immutable(self, handle: Handle) -> None:
        self.kernel.control(handle.vaddr, "set_immutable")

    def attach(self, handle: Handle, to: Handle) -> None:
        self.kernel.control(handle.vaddr, "attach", to.vaddr)

    def unattach(self, handle: Handle) -> None:
        self.kernel.control(handle.vaddr, "unattach")

    def delete(self, handle: Handle) -> None:
        self.kernel.control(handle.vaddr, "delete")

    def run(self, main: Callable, *args) -> Any:
        """Run program text ``main(ctx, *args)`` here, on node 0: the live
        twin of :meth:`repro.sim.program.AmberProgram.run`."""
        return run_program_text(main, args, {})

    def node_stats(self, node: int) -> Dict[str, int]:
        """Kernel counters of one node (invocations, forwards, moves...)."""
        self._check_node(node)
        return self.kernel.node_stats(node)

    def failed_peers(self) -> FrozenSet[int]:
        """Nodes the coordinator's failure detector currently suspects
        dead (heartbeat silence past the grace window), as a frozen
        snapshot that later verdicts do not change.  Detection only:
        invocations routed at a suspect node still time out rather than
        recover — see docs/RECOVERY.md for the simulator's full story."""
        return self._client.failed_peers()

    # -- chaos (docs/CHAOS.md) ----------------------------------------------

    def start_chaos(self):
        """Start executing the fault plan's kill/restart schedule
        against this cluster's node processes.  Returns the
        :class:`~repro.faults.live.ChaosController` (``stop()``/
        ``join()`` it, or let ``shutdown`` stop it)."""
        if self._chaos is None:
            raise ClusterError("cluster was started without a fault plan")
        from repro.faults.live import ChaosController
        self._chaos_controller = ChaosController(self, self._chaos).start()
        return self._chaos_controller

    def kill_node(self, node: int) -> None:
        """SIGKILL one non-driver node's process: fail-stop, no goodbye
        frames — the failure detector and the request deadlines own the
        aftermath."""
        if not 1 <= node < self.num_nodes:
            raise ClusterError(f"cannot kill node {node}")
        process = self._processes.get(node)
        if process is None or not process.is_alive():
            return
        process.kill()
        process.join(timeout=5)

    def restart_node(self, node: int) -> None:
        """Fork a replacement process for a killed node.  Its first
        heartbeat registers its fresh mesh address with the coordinator,
        which rebroadcasts the directory so survivors redial it."""
        if not 1 <= node < self.num_nodes:
            raise ClusterError(f"cannot restart node {node}")
        old = self._processes.get(node)
        if old is not None and old.is_alive():
            return
        self._spawn_node(node)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        if not self._alive:
            return
        self._alive = False
        if self._chaos_controller is not None:
            self._chaos_controller.stop()
        self._coordinator.broadcast_shutdown()
        for process in self._processes.values():
            process.join(timeout=5)
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
        self.kernel.shutdown()
        self._client.close()
        self._coordinator.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _timed(self, metric: str):
        """Context manager observing wall-clock latency into ``metric``."""
        return _Timed(self.metrics, metric)

    def _check_node(self, node: Optional[int]) -> None:
        if node is not None and not 0 <= node < self.num_nodes:
            raise ClusterError(
                f"no such node {node} (cluster has {self.num_nodes})")


class _Timed:
    """Times a block and records it, in microseconds, on exit."""

    def __init__(self, metrics: MetricsRegistry, name: str):
        self._metrics = metrics
        self._name = name

    def __enter__(self) -> "_Timed":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._metrics.observe(self._name,
                              (time.perf_counter() - self._t0) * 1e6)
