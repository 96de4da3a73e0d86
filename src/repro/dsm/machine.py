"""The DSM machine: processes, page-fault protocol, RPC sync services.

This is a deliberately smaller kernel than the Amber one: processes are
pinned to their nodes (data ships to computation, never the reverse), so
there is no migration machinery — the entire inter-node traffic is page
transfers, invalidations, and the optional RPC lock/barrier services.

Protocol (write-invalidate), the same in every ``manager_mode``.  Each
page has one :class:`OwnershipRecord` — owner, copyset, queue of waiting
faults — and ``at`` below is the node that holds it:

* A fault traps, blocks its process and travels to ``at``, which
  serializes transactions per page: concurrent faults queue on the record.
* read fault: ``at`` -> owner; the owner downgrades to READ, then packs
  and ships the page; the requester installs it and confirms to ``at``,
  its node now in the copyset.
* write fault: ``at`` invalidates every copy except the requester's (in
  parallel, each acknowledged to ``at``), has the owner ship the page
  unless the requester already holds a copy, and once all of that is in
  grants WRITE and makes the requester the owner.

Li & Hudak's three ownership-management algorithms differ in three
decisions and in nothing else:

1. *How a fault reaches* ``at``.  "centralized" and "fixed": ``at`` is
   the page's manager (node 0, or striped by page number), one
   :meth:`IvyCluster._forward` away.  "dynamic": ``at`` is the owner
   itself, found by chasing per-node probOwner hints
   (:meth:`IvyCluster._chase_owner`) — structurally the locating
   algorithm of Amber's forwarding addresses, path compression included.
2. *How* ``at`` *reaches the owner*: another ``_forward`` from a manager;
   in "dynamic" mode it is already there.
3. *Whether the record moves with ownership*: it stays with its manager;
   in "dynamic" mode it moves, queue and all, to the new owner — exactly
   as Li forwards pending requests.

All delays come from the shared :class:`~repro.core.costs.CostModel` and
the same contended Ethernet the Amber backend uses, so head-to-head
comparisons are apples to apples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.costs import MAX_NODES_OR_CPUS, CostModel
from repro.dsm import ops
from repro.dsm.pages import (
    ManagerTable,
    OwnershipRecord,
    PageAccess,
    PageTable,
    pages_of_range,
)
from repro.errors import (
    DeadlockError,
    InvocationError,
    SimulationError,
    finite,
)
from repro.sim.engine import Simulator
from repro.sim.network import Ethernet

#: CPU cost of a satisfied (non-faulting) access check and of the Python
#: value effects of Load/Store/TestAndSet.
LOCAL_ACCESS_US = 1.0


@dataclass
class IvyStats:
    read_faults: int = 0
    write_faults: int = 0
    page_transfers: int = 0
    invalidations: int = 0
    lock_rpcs: int = 0
    barrier_rounds: int = 0
    #: Dynamic-manager mode: requests forwarded along probOwner chains.
    owner_forwards: int = 0
    #: page -> number of times it was transferred (ping-pong detector).
    transfers_by_page: Dict[int, int] = field(default_factory=dict)

    @property
    def total_faults(self) -> int:
        return self.read_faults + self.write_faults

    def hottest_page(self) -> Tuple[Optional[int], int]:
        if not self.transfers_by_page:
            return None, 0
        page = max(self.transfers_by_page,
                   key=lambda p: self.transfers_by_page[p])
        return page, self.transfers_by_page[page]


class IvyProcess:
    """One pinned process: a generator plus scheduling state."""

    _states = ("new", "ready", "running", "blocked", "done")

    def __init__(self, pid: int, node: int, name: str = ""):
        self.pid = pid
        self.node = node
        self.name = name or f"proc-{pid}"
        self.state = "new"
        self.gen = None
        self.cpu: Optional[int] = None
        self.send_value: Any = None
        self.send_exc: Optional[BaseException] = None
        #: Set while blocked in a fault: what to run, instead of the
        #: generator, once the process has a CPU again.
        self.continuation: Optional[Callable[[], None]] = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<IvyProcess {self.name} @node {self.node} {self.state}>"


class _IvyNode:
    def __init__(self, node_id: int, ncpus: int):
        self.id = node_id
        self.ncpus = ncpus
        self.cpu_busy: List[Optional[IvyProcess]] = [None] * ncpus
        self.run_queue: Deque[IvyProcess] = deque()
        self.pages = PageTable(node_id)
        self.manager = ManagerTable(node_id)
        #: Believed owner per page (probOwner).  Kept up to date in every
        #: mode; only the dynamic chase reads it.
        self.prob_owner: Dict[int, int] = {}
        #: Dynamic-manager state: records for the pages this node OWNS.
        self.owned: Dict[int, OwnershipRecord] = {}
        self.cpu_busy_us = 0.0


class IvyCluster:
    """A cluster of multiprocessor nodes sharing one paged address space."""

    #: Supported ownership-management algorithms (Li & Hudak):
    #: "fixed"       — fixed distributed manager, pages striped by number;
    #: "centralized" — one manager (node 0) for every page;
    #: "dynamic"     — no managers: requests chase probOwner hints to the
    #:                 owner itself, the DSM twin of Amber's forwarding
    #:                 addresses.
    MANAGER_MODES = ("fixed", "centralized", "dynamic")

    def __init__(self, nodes: int, cpus_per_node: int,
                 costs: Optional[CostModel] = None,
                 manager_mode: str = "fixed"):
        for name, count in (("nodes", nodes),
                            ("cpus_per_node", cpus_per_node)):
            finite(name, count, SimulationError, 1, MAX_NODES_OR_CPUS,
                   integral=True)
        if manager_mode not in self.MANAGER_MODES:
            raise SimulationError(
                f"unknown manager_mode {manager_mode!r}; "
                f"choose from {self.MANAGER_MODES}")
        self.manager_mode = manager_mode
        self.costs = costs or CostModel.firefly()
        self.sim = Simulator()
        self.network = Ethernet(self.sim, self.costs)
        self.nodes = [_IvyNode(i, cpus_per_node) for i in range(nodes)]
        self.memory: Dict[int, Any] = {}   # python values at addresses
        self.stats = IvyStats()
        self.processes: List[IvyProcess] = []
        self._locks: Dict[int, Dict[str, Any]] = {}
        self._barriers: Dict[int, List[IvyProcess]] = {}
        self._next_pid = 0

    # -- topology helpers ------------------------------------------------

    def manager_of(self, page: int) -> int:
        """The page's manager: striped ("fixed") or node 0
        ("centralized").  Unused in "dynamic" mode."""
        if self.manager_mode == "centralized":
            return 0
        return page % len(self.nodes)

    # -- process management ------------------------------------------------

    def spawn(self, node: int, fn: Callable, *args, name: str = ""
              ) -> IvyProcess:
        """Create a process on ``node`` running ``fn(cluster, *args)``
        (a generator function yielding :mod:`repro.dsm.ops` requests)."""
        if not 0 <= node < len(self.nodes):
            raise SimulationError(
                f"spawn on node {node}: the cluster has nodes "
                f"0..{len(self.nodes) - 1}")
        proc = IvyProcess(self._next_pid, node, name)
        self._next_pid += 1
        proc.gen = fn(self, *args)
        if not hasattr(proc.gen, "send"):
            raise InvocationError(f"{fn!r} is not a generator function")
        self.processes.append(proc)
        self._ready(proc)
        return proc

    def run(self) -> None:
        """Drain the simulation; raises if any process failed or stalled."""
        self.sim.run()
        for proc in self.processes:
            if proc.exception is not None:
                raise proc.exception
        stalled = [p for p in self.processes if p.state != "done"]
        if stalled:
            raise DeadlockError(
                "DSM simulation stalled with live processes: "
                + ", ".join(f"{p.name}({p.state})" for p in stalled))

    @property
    def elapsed_us(self) -> float:
        return self.sim.now_us

    # -- scheduling --------------------------------------------------------

    def _ready(self, proc: IvyProcess) -> None:
        proc.state = "ready"
        node = self.nodes[proc.node]
        node.run_queue.append(proc)
        self._try_dispatch(node)

    def _try_dispatch(self, node: _IvyNode) -> None:
        """Hand idle CPUs to queued processes: each resumes into its
        mid-fault continuation if it has one, else into its generator."""
        while node.run_queue:
            try:
                cpu = node.cpu_busy.index(None)
            except ValueError:
                return
            proc = node.run_queue.popleft()
            proc.state = "running"
            proc.cpu = cpu
            node.cpu_busy[cpu] = proc
            resume, proc.continuation = proc.continuation, None
            self.sim.call_now(resume or (lambda p=proc: self._advance(p)))

    def _release_cpu(self, proc: IvyProcess) -> None:
        node = self.nodes[proc.node]
        node.cpu_busy[proc.cpu] = None
        proc.cpu = None
        self._try_dispatch(node)

    def _block(self, proc: IvyProcess) -> None:
        proc.state = "blocked"
        self._release_cpu(proc)

    def _charge(self, proc: IvyProcess, us: float, then) -> None:
        node = self.nodes[proc.node]

        def fire() -> None:
            node.cpu_busy_us += us
            then()

        self.sim.schedule_us(us, fire)

    # -- generator driving ---------------------------------------------------

    def _advance(self, proc: IvyProcess) -> None:
        exc, value = proc.send_exc, proc.send_value
        proc.send_exc = None
        proc.send_value = None
        try:
            if exc is not None:
                request = proc.gen.throw(exc)
            else:
                request = proc.gen.send(value)
        except StopIteration as stop:
            proc.state = "done"
            proc.result = stop.value
            self._release_cpu(proc)
            return
        except Exception as error:
            proc.state = "done"
            proc.exception = error
            self._release_cpu(proc)
            return
        self._handle(proc, request)

    def _resume(self, proc: IvyProcess, value: Any = None) -> None:
        """Unblock a process after a fault or RPC completes."""
        proc.send_value = value
        self._ready(proc)

    def _continue(self, proc: IvyProcess, value: Any = None) -> None:
        """Keep running on the same CPU."""
        proc.send_value = value
        self._advance(proc)

    # -- request handlers --------------------------------------------------

    def _handle(self, proc: IvyProcess, request: Any) -> None:
        if isinstance(request, ops.Compute):
            self._charge(proc, max(0.0, request.us),
                         lambda: self._continue(proc))
        elif isinstance(request, (ops.Read, ops.Write)):
            pages = list(pages_of_range(request.addr, request.nbytes,
                                        self.costs.page_bytes))
            want = (PageAccess.READ if isinstance(request, ops.Read)
                    else PageAccess.WRITE)
            self._ensure(proc, pages, want, lambda: self._continue(proc))
        elif isinstance(request, ops.Load):
            pages = [request.addr // self.costs.page_bytes]
            self._ensure(proc, pages, PageAccess.READ,
                         lambda: self._continue(
                             proc, self.memory.get(request.addr)))
        elif isinstance(request, ops.Store):
            pages = [request.addr // self.costs.page_bytes]

            def store() -> None:
                self.memory[request.addr] = request.value
                self._continue(proc)

            self._ensure(proc, pages, PageAccess.WRITE, store)
        elif isinstance(request, ops.TestAndSet):
            pages = [request.addr // self.costs.page_bytes]

            def tas() -> None:
                previous = bool(self.memory.get(request.addr))
                self.memory[request.addr] = True
                self._continue(proc, previous)

            self._ensure(proc, pages, PageAccess.WRITE, tas)
        elif isinstance(request, ops.RpcLockAcquire):
            self._rpc_lock_acquire(proc, request)
        elif isinstance(request, ops.RpcLockRelease):
            self._rpc_lock_release(proc, request)
        elif isinstance(request, ops.RpcBarrier):
            self._rpc_barrier(proc, request)
        else:
            self._refuse(proc, InvocationError(
                f"process yielded a non-request value: {request!r}"))

    def _refuse(self, proc: IvyProcess, error: Exception) -> None:
        """Deliver ``error`` into the process at its bad request."""
        proc.send_exc = error
        self.sim.call_now(lambda: self._advance(proc))

    # -- page access / fault protocol -------------------------------------

    def _ensure(self, proc: IvyProcess, pages: List[int],
                want: PageAccess, then) -> None:
        """Acquire ``want`` access to every page in order, then continue."""
        table = self.nodes[proc.node].pages

        def step(index: int) -> None:
            while index < len(pages):
                access = table.access(pages[index])
                satisfied = (access is PageAccess.WRITE
                             or (want is PageAccess.READ
                                 and access is PageAccess.READ))
                if satisfied:
                    index += 1
                    continue
                self._fault(proc, pages[index], want,
                            lambda i=index: step(i + 1))
                return
            self._charge(proc, LOCAL_ACCESS_US, then)

        step(0)

    def _fault(self, proc: IvyProcess, page: int, want: PageAccess,
               resume_step) -> None:
        """Handle one page fault: trap, send the request to wherever the
        page's record is, block until the page (and for writes,
        ownership) arrives."""
        if want is PageAccess.WRITE:
            self.stats.write_faults += 1
        else:
            self.stats.read_faults += 1

        def resume() -> None:
            # Re-runs the _ensure step on the faulting process's node;
            # the process regains a CPU first.
            proc.continuation = resume_step
            self._resume(proc)

        request = (proc, want, resume)

        def trapped() -> None:
            self._block(proc)
            if self.manager_mode == "dynamic":
                self._chase_owner(proc.node, page, request, trace=())
                return
            at = self.manager_of(page)
            self._forward(proc.node, at, lambda: self._serialize(
                at, page, self.nodes[at].manager.record(page), request))

        self._charge(proc, self.costs.page_fault_us, trapped)

    def _forward(self, src: int, dst: int, then) -> None:
        """A control message, or a table lookup when the destination is
        here."""
        if src == dst:
            self.sim.schedule_us(self.costs.manager_us, then)
        else:
            self.network.send(src, dst, self.costs.control_bytes, then)

    def _hop(self, src: int, dst: int, then) -> None:
        """A control message, or nothing between a node and itself."""
        if src == dst:
            then()
        else:
            self.network.send(src, dst, self.costs.control_bytes, then)

    # -- dynamic distributed manager (Li & Hudak's probOwner scheme) ----

    MAX_CHASE = 64

    def _owner_record(self, node_id: int, page: int
                      ) -> Optional[OwnershipRecord]:
        """The ownership record if ``node_id`` owns ``page``.  All pages
        start owned by node 0 (zero-filled), created lazily."""
        node = self.nodes[node_id]
        if page in node.owned:
            return node.owned[page]
        if node_id == 0 and not any(page in other.owned
                                    for other in self.nodes):
            record = OwnershipRecord(owner=0, copyset={0})
            node.owned[page] = record
            return record
        return None

    def _chase_owner(self, at: int, page: int, request,
                     trace: Tuple[int, ...]) -> None:
        """Deliver a fault request to the page's owner by following
        probOwner hints — the DSM twin of Amber's forwarding-address
        chase (section 3.3)."""
        if len(trace) > self.MAX_CHASE:
            proc = request[0]
            proc.send_exc = SimulationError(
                f"page {page}: probOwner chase exceeded {self.MAX_CHASE}")
            self._ready(proc)
            return
        record = self._owner_record(at, page)
        if record is not None:
            # Found the owner.  Point every node along the path at it
            # (path compression; advisory, so no acknowledgements).
            for visited in trace:
                if visited != at:
                    self.nodes[visited].prob_owner[page] = at
            self._serialize(at, page, record, request)
            return
        target = self.nodes[at].prob_owner.get(page, 0)
        if target == at:
            # Stale self-hint: fall back to the initial owner.
            target = 0
        self.stats.owner_forwards += 1
        self.network.send(
            at, target, self.costs.control_bytes,
            lambda: self.sim.schedule_us(
                self.costs.manager_us,
                lambda: self._chase_owner(target, page, request,
                                          trace + (at,))))

    # -- the transaction, at the node that holds the page's record --------

    def _record_home(self, page: int, record: OwnershipRecord) -> int:
        """Where the page's record lives: with its manager, or in
        "dynamic" mode with its owner."""
        if self.manager_mode == "dynamic":
            return record.owner
        return self.manager_of(page)

    def _to_owner(self, at: int, owner: int, then) -> None:
        """From the record's holder to the page's owner — which in
        "dynamic" mode is where the record already is."""
        if self.manager_mode == "dynamic":
            then()
        else:
            self._forward(at, owner, then)

    def _serialize(self, at: int, page: int, record: OwnershipRecord,
                   request) -> None:
        """One transaction per page at a time; later faults queue."""
        if record.busy:
            record.queue.append(request)
            return
        record.busy = True
        self._transaction(at, page, record, request)

    def _transaction(self, at: int, page: int, record: OwnershipRecord,
                     request) -> None:
        """Run one fault to completion at ``at``, then the next queued
        one.  The single place a page's access rights, copyset and owner
        change."""
        proc, want, resume = request
        costs, nodes = self.costs, self.nodes
        requester, owner = proc.node, record.owner

        def finish() -> None:
            record.busy = False
            resume()
            if record.queue:
                # A write fault may have moved the record: the next
                # transaction runs wherever it lives now.
                self._serialize(self._record_home(page, record), page,
                                record, record.queue.popleft())

        if want is PageAccess.READ:
            def readable() -> None:
                nodes[requester].pages.set_access(page, PageAccess.READ)
                record.copyset.add(requester)

            def at_owner() -> None:
                # Downgrade first: no process here may write the page
                # while its copy is being packed.
                nodes[owner].pages.set_access(page, PageAccess.READ)
                self._ship(page, owner, requester, installed)

            def installed() -> None:
                readable()
                nodes[requester].prob_owner[page] = owner
                self._hop(requester, at, finish)   # the confirmation

            if owner == requester:
                # First touch of a page the requester nominally owns
                # (zero-filled): read access without any transfer.
                readable()
                self.sim.schedule_us(costs.manager_us, finish)
            else:
                self._to_owner(at, owner, at_owner)
            return

        # Write fault.  Outstanding: one acknowledgement per copy to
        # invalidate, plus the page itself if the requester has none.
        has_copy = (owner == requester
                    or nodes[requester].pages.access(page)
                    is not PageAccess.NONE)
        to_invalidate = sorted((record.copyset | {owner}) - {requester})
        outstanding = len(to_invalidate) + (not has_copy)

        def one_in() -> None:
            nonlocal outstanding
            outstanding -= 1
            if not outstanding:
                writable()

        def writable() -> None:
            nodes[requester].pages.set_access(page, PageAccess.WRITE)
            nodes[owner].prob_owner[page] = requester
            record.owner = requester
            record.copyset = {requester}
            home = self._record_home(page, record)
            if home != at:
                nodes[home].owned[page] = nodes[at].owned.pop(page)
            finish()

        for target in to_invalidate:   # fan out in parallel
            def zap(t=target) -> None:
                nodes[t].pages.set_access(page, PageAccess.NONE)
                nodes[t].prob_owner[page] = requester
                self.stats.invalidations += 1
                self._hop(t, at, one_in)   # the acknowledgement

            self._hop(at, target, lambda z=zap: self.sim.schedule_us(
                costs.invalidate_us, z))
        if not has_copy:
            self._to_owner(at, owner, lambda: self._ship(
                page, owner, requester, one_in))
        elif not outstanding:
            writable()

    def _ship(self, page: int, owner: int, requester: int,
              installed) -> None:
        """Pack the page at the owner, send it, install it at the
        requester."""
        costs = self.costs

        def send() -> None:
            self.stats.page_transfers += 1
            by_page = self.stats.transfers_by_page
            by_page[page] = by_page.get(page, 0) + 1
            self.network.send(
                owner, requester, costs.page_bytes,
                lambda: self.sim.schedule_us(costs.page_install_us,
                                             installed))

        self.sim.schedule_us(costs.page_pack_us, send)

    # -- RPC lock / barrier services ----------------------------------------

    def _rpc_request(self, proc: IvyProcess, server: int, at_server,
                     awaits_reply: bool = True) -> None:
        """The request leg of every service: the caller blocks, a control
        message reaches the server, the server takes ``manager_us``."""
        if not 0 <= server < len(self.nodes):
            self._refuse(proc, SimulationError(
                f"RPC to server node {server}: the cluster has nodes "
                f"0..{len(self.nodes) - 1}"))
            return

        def arrived() -> None:
            self.sim.schedule_us(self.costs.manager_us, at_server)
            if not awaits_reply:
                self._resume(proc)

        self._block(proc)
        self._hop(proc.node, server, arrived)

    def _rpc_wake(self, server: int, waiter: IvyProcess) -> None:
        """The wake-up leg: the server's reply unblocks ``waiter``."""
        self._hop(server, waiter.node, lambda: self._resume(waiter))

    def _lock_rpc(self, lock_id: int) -> Dict[str, Any]:
        """Count one lock RPC served; the lock's server-side state."""
        self.stats.lock_rpcs += 1
        return self._locks.setdefault(
            lock_id, {"held": False, "queue": deque()})

    def _rpc_lock_acquire(self, proc: IvyProcess,
                          request: ops.RpcLockAcquire) -> None:
        def at_server() -> None:
            lock = self._lock_rpc(request.lock_id)
            if lock["held"]:
                lock["queue"].append(proc)
            else:
                lock["held"] = True
                self._rpc_wake(request.server, proc)

        self._rpc_request(proc, request.server, at_server)

    def _rpc_lock_release(self, proc: IvyProcess,
                          request: ops.RpcLockRelease) -> None:
        def at_server() -> None:
            lock = self._lock_rpc(request.lock_id)
            if lock["queue"]:
                self._rpc_wake(request.server, lock["queue"].popleft())
            else:
                lock["held"] = False

        # The releaser does not wait for an acknowledgement.
        self._rpc_request(proc, request.server, at_server,
                          awaits_reply=False)

    def _rpc_barrier(self, proc: IvyProcess,
                     request: ops.RpcBarrier) -> None:
        def at_server() -> None:
            waiting = self._barriers.setdefault(request.barrier_id, [])
            waiting.append(proc)
            if len(waiting) == request.parties:
                self.stats.barrier_rounds += 1
                del self._barriers[request.barrier_id]
                for waiter in waiting:
                    self._rpc_wake(request.server, waiter)

        self._rpc_request(proc, request.server, at_server)


def run_ivy(workload: Callable[[IvyCluster], List[IvyProcess]],
            nodes: int, cpus_per_node: int,
            costs: Optional[CostModel] = None) -> IvyCluster:
    """Build a cluster, let ``workload`` spawn its processes, run to
    completion, and return the cluster (time + stats inside)."""
    cluster = IvyCluster(nodes, cpus_per_node, costs)
    workload(cluster)
    cluster.run()
    return cluster
