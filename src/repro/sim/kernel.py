"""The simulated Amber kernel: scheduling, invocation, mobility.

This module implements the paper's runtime semantics on the discrete-event
substrate:

* **Invocation path** (sections 3.2, 3.4): every invocation charges the
  entry cost (frame push + residency check).  A resident target runs
  locally; a non-resident one traps, and the *thread migrates* to the
  object — marshal on the source CPU, wire time on the shared Ethernet,
  unmarshal + dispatch on the destination CPU.  Returns mirror this with a
  return-time check against the caller's object.
* **Locating** (section 3.3): migrating threads and control messages follow
  forwarding chains hop by hop; a node with an uninitialized descriptor
  routes to the object's home node (derived from the address).  On arrival
  the final location is cached along the visited path (path compression).
* **Moves** (section 3.5): a move first marks the descriptor non-resident,
  then briefly interrupts every other processor on the node so running
  threads make a context-switch-time residency check; bound threads migrate
  themselves when next scheduled, and suspended bound threads stay until
  rescheduled — both exactly the paper's stated policy (including the lost
  concurrency it admits to).  Because mutable objects are never copied
  while resident state diverges (there is a single authoritative instance),
  the multiprocessor races of section 3.5 affect *timing*, never state.
* **Immutables** (section 2.3): ``MoveTo`` on an immutable copies it;
  invoking a non-resident immutable fetches a local replica.

Timing discipline: a request's simulated cost elapses *before* its state
effects, so cross-CPU interleavings (e.g. two threads racing on a lock) are
resolved in simulated-time order deterministically.

One simplification is calibrated away rather than modeled: install work for
arriving objects is a pure delay at the destination instead of occupying a
destination CPU (moves are rare by the paper's own assumption 1 in §3.5);
thread arrivals *do* occupy the destination CPU via the dispatch surcharge.
A thread performing ``MoveTo``/``Locate`` holds its CPU for the duration of
the synchronous protocol, matching the kernel-mediated move of the paper.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analyze import runtime as _analysis
from repro.errors import (
    AmberError,
    AttachmentError,
    InvocationError,
    MobilityError,
    NodeFailure,
    ObjectNotFoundError,
)
from repro.obs.metrics import Held
from repro.recovery.checkpoint import (
    CheckpointManager,
    restore_state,
    snapshot_state,
)
from repro.recovery.detector import HeartbeatDetector
from repro.recovery.replay import ReplayEntry
from repro.sim import syscalls as sc
from repro.analyze.elide import runtime as _ert
from repro.sim.cluster import SimCluster
from repro.sim.engine import NS_PER_US
from repro.sim.node import Cpu, SimNode
from repro.sim.objects import SimObject, operation_of
from repro.sim.thread import Activation, SimThread, ThreadState

#: Safety bound on forwarding-chain chasing for one request.
MAX_CHASE_HOPS = 1000

#: With faults enabled: bounded patience with an unreachable home node.
#: Each probe re-runs a full reliable send (all retransmissions), spaced
#: by the capped RTO — graceful degradation while the home is down, a
#: clean ObjectNotFoundError once it is evidently never coming back.
MAX_HOME_PROBES = 16

#: At-most-once dedup: completed-invocation outcomes remembered per
#: object.  Bounds memory on long runs; an id evicted here could in
#: principle be replayed, but a replay only happens within one
#: crash-detection window of the completion — hundreds of entries deep
#: is far beyond any plausible in-flight set.
COMPLETION_LOG_LIMIT = 512


class InvocationContext:
    """Passed as the first argument to every operation body."""

    __slots__ = ("_kernel", "thread")

    def __init__(self, kernel: "AmberKernel", thread: SimThread):
        self._kernel = kernel
        self.thread = thread

    @property
    def node(self) -> int:
        """The node the thread is currently executing on."""
        return self.thread.location

    @property
    def now_us(self) -> float:
        return self._kernel.sim.now_us

    @property
    def cluster(self) -> SimCluster:
        return self._kernel.cluster

    @property
    def metrics(self):
        """The cluster's :class:`repro.obs.metrics.MetricsRegistry`."""
        return self._kernel.cluster.metrics

    @property
    def num_nodes(self) -> int:
        return len(self._kernel.cluster.nodes)


class AmberKernel:
    """One kernel drives the whole simulated cluster (the per-node kernels
    of the paper share no state except through messages; here the sharing
    is confined to the address-space server and statistics, which the paper
    also centralizes or replicates)."""

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.costs = cluster.costs
        self.net = cluster.network
        self.metrics = cluster.metrics
        #: Histograms fed once per migration / invocation are held
        #: (bound on first use); rarer emitters go through the registry.
        self._hists = Held(cluster.metrics.histogram)
        self._next_tid = 0
        self.threads: List[SimThread] = []
        cluster.kernel = self
        # --- crash recovery (opt-in via cluster.recovery) -------------
        self.recovery = getattr(cluster, "recovery", None)
        self.checkpoints: Optional[CheckpointManager] = None
        self.detector: Optional[HeartbeatDetector] = None
        #: node id -> simulated crash instant (detection latency basis).
        self._crash_times: Dict[int, float] = {}
        #: Nodes already confirmed dead and swept (idempotence guard).
        self._confirmed_dead: Set[int] = set()
        #: Objects confirmed unrecoverable (primary and backup both
        #: dead at confirmation time): requests fail fast.
        self._lost_objects: Set[int] = set()
        if self.recovery is not None and len(cluster.nodes) > 1:
            self.checkpoints = CheckpointManager(cluster, self.recovery)
            self.detector = HeartbeatDetector(self, self.recovery)
            self.detector.start()
            if self.recovery.checkpointing and \
                    self.recovery.checkpoint_interval_us > 0:
                self.sim.schedule_us(self.recovery.checkpoint_interval_us,
                                     self._checkpoint_sweep)
        if cluster.faults is not None:
            self._schedule_fault_events(cluster.faults)

    # ------------------------------------------------------------------
    # Object management
    # ------------------------------------------------------------------

    def create_object(self, cls: type, args: Tuple, kwargs: dict,
                      node_id: int, size_bytes: Optional[int]) -> SimObject:
        """Allocate, construct, and register an object on ``node_id``."""
        node = self.cluster.node(node_id)
        obj = cls(*args, **kwargs)
        if not isinstance(obj, SimObject):
            raise InvocationError(
                f"{cls.__name__} does not derive from SimObject")
        size = size_bytes if size_bytes is not None else type(obj).SIZE_BYTES
        vaddr = node.heap.allocate(size)
        obj._amber_init(vaddr, node_id, size)
        self.cluster.objects[vaddr] = obj
        node.descriptors.set_resident(vaddr)
        node.stats.objects_created += 1
        san = _analysis.ACTIVE
        if san is not None:
            san.on_create(obj)
        if self._checkpointing_on() and self.checkpoints.eligible(obj):
            # Baseline epoch at birth: even an object that is never
            # quiescent again (a barrier with perpetual waiters) has a
            # construction-time state to promote.
            self._ship_checkpoint(obj, node_id)
        return obj

    def delete_object(self, obj: SimObject, node_id: int) -> None:
        vaddr = obj.vaddr
        node = self.cluster.node(node_id)
        if not node.descriptors.is_resident(vaddr):
            raise MobilityError(
                f"cannot delete {obj!r}: not resident on node {node_id}")
        for other in self.cluster.nodes:
            other.descriptors.clear(vaddr)
        self.cluster.node(obj.home_node).heap.free(vaddr)
        self.cluster.attachments.drop(vaddr)
        self.cluster.objects.pop(vaddr, None)
        obj._location = None

    def new_thread(self, node_id: int, name: str = "",
                   priority: int = 0) -> SimThread:
        thread = SimThread(self._next_tid, name, priority)
        self._next_tid += 1
        node = self.cluster.node(node_id)
        vaddr = node.heap.allocate(SimThread.SIZE_BYTES)
        thread._amber_init(vaddr, node_id, SimThread.SIZE_BYTES)
        thread.location = node_id
        self.cluster.objects[vaddr] = thread
        node.descriptors.set_resident(vaddr)
        node.stats.objects_created += 1
        thread.attach_clock(self.sim)
        self.threads.append(thread)
        return thread

    def _trace(self, kind: str, node: int, thread: str = "",
               vaddr=None, detail: str = "",
               dur_us: float = 0.0) -> None:
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.emit(self.sim.now_us, kind, node, thread, vaddr, detail,
                        dur_us)

    def believed_location(self, node: SimNode, vaddr: int) -> int:
        """Where ``node`` should send a request for ``vaddr``: the
        forwarding hint if any, else the object's home node."""
        descriptor = node.descriptors.lookup(vaddr)
        if descriptor is not None:
            if descriptor.resident:
                return node.id
            return descriptor.forward_to
        home = self.cluster.home_node(vaddr)
        if home == node.id:
            raise ObjectNotFoundError(
                f"object {vaddr:#x} unknown at its home node {node.id}")
        return home

    # ------------------------------------------------------------------
    # Fault injection: node crash and restart
    # ------------------------------------------------------------------

    def _schedule_fault_events(self, plan) -> None:
        for crash in plan.crashes:
            self.cluster.node(crash.node)  # validates the node id
            self.sim.schedule_us(
                crash.at_us, lambda c=crash: self._crash_node(c.node))
            if crash.restart_us is not None:
                self.sim.schedule_us(
                    crash.restart_us,
                    lambda c=crash: self._restart_node(c.node))

    def _crash_node(self, node_id: int) -> None:
        """Fail-stop ``node_id``: its network interface goes silent (the
        injector drops its traffic) and no thread is dispatched here
        until restart.  Preemptible user compute is interrupted exactly
        as by the move protocol; a kernel protocol step already charging
        runs to completion — its outbound messages are then dropped and
        retried by the reliable layer."""
        node = self.cluster.node(node_id)
        if node.down:
            return
        node.down = True
        self._crash_times[node_id] = self.sim.now_us
        self.metrics.inc("crashes")
        self._trace("crash", node_id)
        for cpu in node.cpus:
            self._preempt_cpu(node, cpu)

    def _restart_node(self, node_id: int) -> None:
        """Bring a crashed node back.  Resident objects survive (the
        node's heap is its stable storage), but volatile location hints
        do not: every forwarding entry for an object *not homed here* is
        dropped, so the first post-restart request routes via the home
        node and re-caches a fresh chain (chain repair).  Entries for
        locally homed objects model the persistent home-node map of
        section 3.3 and are kept — the home must always know."""
        node = self.cluster.node(node_id)
        if not node.down:
            return
        node.down = False
        self._confirmed_dead.discard(node_id)
        stale = [vaddr for vaddr, descriptor in node.descriptors.items()
                 if not descriptor.resident
                 and self.cluster.home_node(vaddr) != node_id]
        for vaddr in stale:
            node.descriptors.clear(vaddr)
        self.metrics.inc("recoveries")
        if stale:
            self.metrics.inc("hints_repaired", len(stale))
        self._trace("restart", node_id, detail=f"{len(stale)} hints shed")
        self._try_dispatch(node)

    # ------------------------------------------------------------------
    # Crash recovery: checkpoints, promotion, resurrection
    # ------------------------------------------------------------------

    def _recovering(self) -> bool:
        """True when a failure detector is attached (recovery opt-in)."""
        return self.detector is not None

    def _checkpointing_on(self) -> bool:
        return self.checkpoints is not None and self.recovery.checkpointing

    def _bound_by_live_thread(self, vaddr: int,
                              exclude: Optional[SimThread] = None) -> bool:
        """True if a live thread's activation stack includes ``vaddr`` —
        its state may be mid-operation (torn), so never snapshot it."""
        for thread in self.threads:
            if thread is exclude or thread.done:
                continue
            if any(act.obj.vaddr == vaddr for act in thread.stack):
                return True
        return False

    def _checkpoint_sweep(self) -> None:
        """Periodic epoch sweep: ship a fresh snapshot of every resident
        quiescent mutable object to its backup — bounded staleness for
        state the write-through path never touches."""
        if not self._checkpointing_on():
            return
        if self.threads and self.threads[0].done:
            return  # program over: let the event queue drain
        for node in self.cluster.nodes:
            if node.down:
                continue
            for vaddr, descriptor in sorted(node.descriptors.items()):
                if not descriptor.resident:
                    continue
                obj = self.cluster.objects.get(vaddr)
                if obj is None or not self.checkpoints.eligible(obj):
                    continue
                self._ship_checkpoint(obj, node.id)
        self.sim.schedule_us(self.recovery.checkpoint_interval_us,
                             self._checkpoint_sweep)

    def _ship_checkpoint(self, obj: SimObject, primary: int,
                         carrier: Optional[SimThread] = None) -> None:
        """Snapshot ``obj`` and start a new epoch toward its backup.

        Without a ``carrier`` the epoch ships directly over the faulty
        reliable layer.  With one (write-through at invocation return)
        the epoch rides in the completing thread's luggage and is
        flushed from wherever the thread next lands — the checkpoint
        escapes the node if and only if the thread does, which is what
        makes rollback and replay agree (see repro.recovery.replay).
        """
        vaddr = obj.vaddr
        if vaddr in self._lost_objects:
            return
        if self._bound_by_live_thread(vaddr, exclude=carrier):
            return  # mid-operation state: wait for a quiescent point
        backup = self.checkpoints.backup_node(vaddr, primary)
        if backup == primary:
            return  # single-node cluster: nowhere safer to keep it
        epoch = self.checkpoints.next_epoch(vaddr)
        state = snapshot_state(obj)
        nbytes = self.costs.control_bytes + obj.size_bytes
        self.cluster.node(primary).descriptors.set_backup(
            vaddr, backup, epoch)
        self.metrics.inc("checkpoints_shipped")
        if carrier is not None:
            carrier.carried_checkpoints.append(
                (vaddr, epoch, state, backup, nbytes))
            return
        if self.cluster.node(backup).down:
            self.metrics.inc("checkpoints_lost")
            return
        self.net.send_reliable(
            primary, backup, nbytes,
            lambda: self.checkpoints.store(backup, vaddr, epoch, state),
            on_give_up=lambda: self.metrics.inc("checkpoints_lost"),
            kind="checkpoint")

    def _flush_carried(self, thread: SimThread, node_id: int) -> None:
        """The thread landed on a live node: flush the checkpoint epochs
        it carried away from their primaries."""
        carried, thread.carried_checkpoints = \
            thread.carried_checkpoints, []
        for vaddr, epoch, state, backup, nbytes in carried:
            if node_id == backup:
                self.checkpoints.store(backup, vaddr, epoch, state)
                continue
            if self.cluster.node(backup).down:
                self.metrics.inc("checkpoints_lost")
                continue
            self.net.send_reliable(
                node_id, backup, nbytes,
                lambda b=backup, v=vaddr, e=epoch, s=state:
                    self.checkpoints.store(b, v, e, s),
                on_give_up=lambda: self.metrics.inc("checkpoints_lost"),
                kind="checkpoint")

    def _log_departure(self, thread: SimThread, node_id: int) -> None:
        """Caller-side replay log: remember a migrating invocation as it
        departs, so a confirmed-dead callee can be survived by
        re-launching from here."""
        action = thread.on_arrival
        if action is None or action[0] != "invoke":
            return  # return-home / resume migrations carry no new work
        _, request, is_root = action
        if thread.resurrect_stack and \
                thread.resurrect_stack[-1].request is request:
            return  # re-departure of the same invocation (chase, retry)
        thread.invoke_seq += 1
        # The id's caller-node component anchors to the *outermost* live
        # entry's origin, not the physical departure node: a nested
        # invocation re-issued during replay departs from the promoted
        # object's new node, and the dedup key must still match the
        # completion logged under the original id.
        anchor = (thread.resurrect_stack[0].origin
                  if thread.resurrect_stack else node_id)
        thread.resurrect_stack.append(ReplayEntry(
            id=(anchor, thread.tid, thread.invoke_seq),
            origin=node_id,
            target=request.target.vaddr,
            request=request,
            payload=getattr(request, "arg_bytes", 0),
            depth=len(thread.stack),
            is_root=is_root,
            seq=thread.invoke_seq,
        ))

    def _record_completion(self, thread: SimThread, entry: ReplayEntry,
                           value: Any,
                           exc: Optional[BaseException]) -> None:
        """The migrated invocation behind ``entry`` just returned: log
        its outcome on the target (at-most-once dedup — the log rides
        inside the object's snapshots) and put the write-through epoch
        in the thread's luggage."""
        entry.completed = True
        obj = self.cluster.objects.get(entry.target)
        if obj is None:
            return
        log = getattr(obj, "_amber_completed", None)
        if log is None:
            log = {}
            obj._amber_completed = log
        log[entry.id] = (value, exc)
        while len(log) > COMPLETION_LOG_LIMIT:
            log.pop(next(iter(log)))
        if self._checkpointing_on() \
                and self.recovery.checkpoint_on_remote_invoke \
                and self.checkpoints.eligible(obj) \
                and thread.location is not None:
            self._ship_checkpoint(obj, thread.location, carrier=thread)

    def _deliver_logged(self, thread: SimThread, request) -> bool:
        """Receive-side at-most-once dedup: if this arrival's invocation
        already completed before the caller learned of it (the thread
        was resurrected mid-return), deliver the logged outcome instead
        of re-executing the side effects."""
        if not thread.resurrect_stack:
            return False
        entry = thread.resurrect_stack[-1]
        if entry.request is not request:
            return False
        obj = self.cluster.objects.get(entry.target)
        log = getattr(obj, "_amber_completed", None) \
            if obj is not None else None
        if log is None or entry.id not in log:
            return False
        value, exc = log[entry.id]
        entry.completed = True
        self.metrics.inc("invocations_suppressed")
        self._trace("invoke-suppressed", thread.location, thread.name,
                    entry.target, f"replay of {entry.id} already applied")
        if entry.is_root:
            self._thread_exit(thread, value, exc)
        else:
            self._charge(thread, self.costs.local_return_us,
                         lambda: self._complete_return(thread, value, exc))
        return True

    def _deliver_logged_local(self, thread: SimThread, request) -> bool:
        """Local leg of at-most-once dedup.  A replayed invocation whose
        target was promoted onto the caller's own node never migrates,
        so :meth:`_deliver_logged` cannot intercept it at arrival.
        Every *mutable resident* invocation therefore advances the
        sequence counter here (keeping a replay's sequence stream
        aligned with the original no matter where promotion moved the
        targets — immutable targets never advance it on either path),
        and a completion already logged under the regenerated id is
        delivered instead of re-executing the side effects."""
        thread.invoke_seq += 1
        obj = self.cluster.objects.get(request.target.vaddr)
        log = getattr(obj, "_amber_completed", None) \
            if obj is not None else None
        if not log:
            return False
        anchor = (thread.resurrect_stack[0].origin
                  if thread.resurrect_stack else thread.location)
        entry_id = (anchor, thread.tid, thread.invoke_seq)
        if entry_id not in log:
            return False
        value, exc = log[entry_id]
        self.metrics.inc("invocations_suppressed")
        self._trace("invoke-suppressed", thread.location, thread.name,
                    request.target.vaddr,
                    f"replay of {entry_id} already applied (local)")
        self._charge(thread, self.costs.local_return_us,
                     lambda: self._complete_return(thread, value, exc))
        return True

    def _settle_replay_entries(self, thread: SimThread) -> None:
        """The thread is back with its caller and the results are
        delivered: retire every answered replay entry and flush any
        checkpoint epochs still in the luggage."""
        while thread.resurrect_stack and \
                thread.resurrect_stack[-1].completed:
            thread.resurrect_stack.pop()
        if thread.carried_checkpoints and thread.location is not None:
            self._flush_carried(thread, thread.location)

    def _on_node_confirmed_dead(self, node_id: int) -> None:
        """The detector confirmed ``node_id`` dead: promote backups of
        its resident mutable objects, then resurrect (or fail) every
        thread that was on it or stuck migrating from it."""
        node = self.cluster.node(node_id)
        if not node.down or node_id in self._confirmed_dead:
            return  # restarted inside the window, or already swept
        self._confirmed_dead.add(node_id)
        promoted = 0
        if self.checkpoints is not None:
            for vaddr, descriptor in sorted(node.descriptors.items()):
                if not descriptor.resident:
                    continue
                obj = self.cluster.objects.get(vaddr)
                if obj is None or not self.checkpoints.eligible(obj):
                    continue
                if self._checkpointing_on() and \
                        self._promote_object(node, vaddr, obj):
                    promoted += 1
                else:
                    self._lost_objects.add(vaddr)
                    self.metrics.inc("objects_lost")
                    self._trace("object-lost", node_id, "", vaddr,
                                "no live checkpoint to promote")
        # Shed dead replica sources so immutable fetches never pick a
        # corpse (keep the last copy even if it is behind the crash).
        for obj in self.cluster.objects.values():
            replicas = getattr(obj, "_replica_nodes", None)
            if replicas and node_id in replicas and len(replicas) > 1:
                replicas.discard(node_id)
        victims = sorted(
            (thread for thread in self.threads if not thread.done and (
                thread.location == node_id
                or (thread.state is ThreadState.TRANSIT
                    and (thread.transit_hop == node_id
                         or (thread.transit_path
                             and thread.transit_path[-1] == node_id))))),
            key=lambda thread: thread.tid)
        for victim in victims:
            self._detach_victim(victim)
        plans = [(victim, self._usable_entry(victim))
                 for victim in victims]
        for victim, entry in plans:
            if entry is None:
                self._fail_thread(victim, node_id)
        # Promotion installs take install time at the backup; replays
        # launch once the promoted copies are actually usable.
        delay = self.costs.object_install_us * max(1, promoted)
        for victim, entry in plans:
            if entry is not None:
                self.sim.schedule_us(
                    delay,
                    lambda v=victim, e=entry:
                        self._relaunch_thread(v, e, node_id))
        if promoted or victims:
            self.metrics.observe("recovery_us", delay)

    def _promote_object(self, dead_node: SimNode, vaddr: int,
                        obj: SimObject) -> bool:
        """Promote the newest live checkpoint epoch of ``vaddr`` to be
        the authoritative copy; returns False when every epoch is
        behind a dead node (the object is lost)."""
        held = self.checkpoints.latest(vaddr)
        if held is None:
            return False
        backup_id, epoch, state = held
        restore_state(obj, state)
        backup = self.cluster.node(backup_id)
        backup.descriptors.set_resident(vaddr)
        backup.descriptors.set_backup(vaddr, None, epoch)
        dead_node.descriptors.set_forwarding(vaddr, backup_id)
        home = self.cluster.home_node(vaddr)
        if home != backup_id:
            self.cluster.node(home).descriptors.update_hint(vaddr,
                                                            backup_id)
        obj._location = backup_id
        backup.stats.objects_in += 1
        self.metrics.inc("objects_recovered")
        self._trace("promote", backup_id, "", vaddr,
                    f"epoch {epoch} promoted after node "
                    f"{dead_node.id} died")
        return True

    def _detach_victim(self, thread: SimThread) -> None:
        """Pull a victim out of every kernel structure that still
        references it, invalidating in-flight callbacks."""
        if thread.location is not None:
            node = self.cluster.nodes[thread.location]
            if thread.state is ThreadState.READY:
                node.scheduler.remove(thread)
            if thread.cpu is not None:
                cpu = node.cpus[thread.cpu]
                if cpu.thread is thread:
                    if cpu.run_event is not None:
                        cpu.run_event.cancel()
                    cpu.thread = None
                    cpu.run_event = None
                thread.cpu = None
        thread.run_token += 1
        thread.state = ThreadState.TRANSIT
        for other in self.threads:
            if thread in other.joiners:
                other.joiners.remove(thread)
        thread.send_value = None
        thread.send_exc = None
        thread.surcharge_us = 0.0
        thread.pending_compute_us = 0.0
        thread.slice_left_us = 0.0
        thread.wakeup_pending = False
        thread.pending_invoke_metric = None
        thread.home_probes = 0
        thread.carried_checkpoints = []
        thread.block_reason = ""

    def _usable_entry(self, thread: SimThread) -> Optional[ReplayEntry]:
        """Innermost replay entry whose origin is up and whose target
        still exists; unusable entries are discarded on the way."""
        while thread.resurrect_stack:
            entry = thread.resurrect_stack[-1]
            if self.cluster.node(entry.origin).down \
                    or entry.target in self._lost_objects \
                    or entry.target not in self.cluster.objects:
                thread.resurrect_stack.pop()
                continue
            return entry
        return None

    def _relaunch_thread(self, thread: SimThread, entry: ReplayEntry,
                         dead_id: int) -> None:
        """Re-launch a victim from ``entry``: truncate to the caller
        frames, reset the sequence counter so re-executed nested
        invocations regenerate identical ids, and migrate the thread
        from its origin toward the (possibly promoted) target."""
        if thread.done:
            return
        del thread.stack[entry.depth:]
        entry.completed = False
        thread.invoke_seq = entry.seq
        thread.on_arrival = ("invoke", entry.request, entry.is_root)
        thread.state = ThreadState.TRANSIT
        thread.transit_target = entry.target
        thread.transit_path = [entry.origin]
        thread.transit_start_us = self.sim.now_us
        thread.location = None
        self.metrics.inc("invocations_replayed")
        self._trace("invocation-replay", entry.origin, thread.name,
                    entry.target,
                    f"replaying {entry.id} after node {dead_id} died")
        origin = self.cluster.node(entry.origin)
        try:
            believed = self.believed_location(origin, entry.target)
        except ObjectNotFoundError:
            self._fail_thread(thread, dead_id)
            return
        self._send_thread(thread, entry.origin, believed, entry.payload)

    def _fail_thread(self, thread: SimThread, dead_id: int) -> None:
        """No recoverable invocation: terminate the thread with a typed
        NodeFailure instead of letting it hang, delivering the failure
        to every joiner."""
        failure = NodeFailure(
            f"thread {thread.name} lost with node {dead_id}: no "
            f"checkpointed state to replay its work against")
        thread.run_token += 1
        thread.state = ThreadState.DONE
        thread.result = None
        thread.exception = failure
        thread.location = dead_id
        thread.stack = []
        thread.resurrect_stack = []
        thread.carried_checkpoints = []
        thread.transit_target = None
        thread.transit_path = []
        thread.on_arrival = None
        self.metrics.inc("threads_lost")
        self._trace("thread-failed", dead_id, thread.name,
                    detail="unrecoverable: NodeFailure raised to joiners")
        joiners, thread.joiners = thread.joiners, []
        for joiner in joiners:
            if joiner.done:
                continue
            joiner.send_value = None
            joiner.send_exc = failure
            self._ready(joiner, joiner.location, self.costs.join_us)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def start_main(self, obj: SimObject, method: str, args: Tuple,
                   node_id: int) -> SimThread:
        """Bootstrap: create and start the program's main thread."""
        thread = self.new_thread(node_id, name="main")
        self._start_thread(thread, obj, method, args, charge_to=None)
        return thread

    def _start_thread(self, thread: SimThread, target: SimObject,
                      method: str, args: Tuple,
                      charge_to: Optional[SimThread]) -> None:
        thread.on_arrival = ("invoke",
                             sc.Invoke(target, method, *args), True)
        thread.state = ThreadState.READY
        self._ready(thread, thread.location, self.costs.dispatch_us)

    def _ready(self, thread: SimThread, node_id: int,
               surcharge_us: float) -> None:
        """Queue ``thread`` as runnable on ``node_id``."""
        thread.state = ThreadState.READY
        thread.location = node_id
        thread.cpu = None
        thread.surcharge_us += surcharge_us
        node = self.cluster.nodes[node_id]
        self._trace("ready", node_id, thread.name)
        node.scheduler.enqueue(thread)
        if self.cluster.tracer is not None:
            self.metrics.sample(f"ready_queue_n{node_id}",
                                len(node.scheduler))
        self._try_dispatch(node)

    def _try_dispatch(self, node: SimNode) -> None:
        if node.down:
            return
        while True:
            cpu = node.idle_cpu()
            if cpu is None or len(node.scheduler) == 0:
                return
            thread = node.scheduler.dequeue()
            if thread is None:
                return
            self._install_on_cpu(node, cpu, thread)

    def _install_on_cpu(self, node: SimNode, cpu: Cpu,
                        thread: SimThread) -> None:
        self._trace("run", node.id, thread.name)
        thread.state = ThreadState.RUNNING
        thread.cpu = cpu.index
        thread.location = node.id
        thread.slice_left_us = self.costs.timeslice_us
        cpu.thread = thread
        surcharge = thread.surcharge_us
        thread.surcharge_us = 0.0
        self._charge(thread, surcharge,
                     lambda: self._after_switch_in(thread))

    def _release_cpu(self, thread: SimThread) -> None:
        """Take ``thread`` off its CPU and hand the CPU to the scheduler."""
        node = self.cluster.nodes[thread.location]
        cpu = node.cpus[thread.cpu]
        cpu.thread = None
        cpu.run_event = None
        thread.cpu = None
        self._try_dispatch(node)

    def _after_switch_in(self, thread: SimThread) -> None:
        """Runs whenever a thread (re)gains a CPU: consume any arrival
        action, then make the context-switch-time residency check of
        section 3.5 before letting user code continue."""
        node = self.cluster.nodes[thread.location]
        action = thread.on_arrival
        if action is not None and action[0] == "invoke":
            _, request, is_root = action
            vaddr = request.target.vaddr
            if node.descriptors.is_resident(vaddr):
                thread.on_arrival = None
                if self._recovering() and \
                        self._deliver_logged(thread, request):
                    return
                self._push_and_run(thread, request, is_root)
            else:
                self._trap_and_migrate(thread, vaddr,
                                       payload=request.arg_bytes)
            return
        if action is not None and action[0] == "deliver":
            _, value, exc = action
            top = thread.stack[-1]
            if node.descriptors.is_resident(top.obj.vaddr):
                thread.on_arrival = None
                self._observe_invoke_latency(thread)
                self._settle_replay_entries(thread)
                thread.send_value = value
                thread.send_exc = exc
                self._advance(thread)
            else:
                self._trap_and_migrate(thread, top.obj.vaddr)
            return
        # Plain resume: residency check against the current frame's object.
        if thread.stack:
            top = thread.stack[-1]
            if not node.descriptors.is_resident(top.obj.vaddr):
                self._trap_and_migrate(thread, top.obj.vaddr)
                return
        if thread.pending_compute_us > 0:
            self._run_pending_compute(thread)
        else:
            self._advance(thread)

    def _thread_exit(self, thread: SimThread, value: Any,
                     exc: Optional[BaseException]) -> None:
        def finish() -> None:
            self._trace("exit", thread.location, thread.name)
            self._settle_replay_entries(thread)
            thread.state = ThreadState.DONE
            thread.result = value
            thread.exception = exc
            self._release_cpu(thread)
            joiners, thread.joiners = thread.joiners, []
            san = _analysis.ACTIVE
            for joiner in joiners:
                if san is not None:
                    san.on_join(joiner, thread)
                joiner.send_value = value
                joiner.send_exc = exc
                self._ready(joiner, joiner.location, self.costs.join_us)

        self._charge(thread, self.costs.thread_exit_us, finish)

    # ------------------------------------------------------------------
    # CPU charging
    # ------------------------------------------------------------------

    def _charge(self, thread: SimThread, us: float, then,
                preemptible: bool = False) -> None:
        """Consume ``us`` of CPU on the thread's current CPU, then continue
        with ``then``.  The thread must be RUNNING."""
        # Direct indexing, not cluster.node(): thread.location is
        # kernel-maintained (only ever a validated node id), and this
        # runs once per charge — the single hottest lookup in a run.
        sim = self.sim
        node = self.cluster.nodes[thread.location]
        cpu = node.cpus[thread.cpu]
        cpu.charge_started_ns = sim.now_ns
        cpu.charge_us = us
        cpu.charge_preemptible = preemptible
        token = thread.run_token

        def fire() -> None:
            if thread.run_token != token:
                return  # stale: the thread was preempted mid-charge
            node.stats.cpu_busy_us += us
            cpu.run_event = None
            cpu.charge_preemptible = False
            then()

        # schedule_at_ns directly: charges are kernel-validated
        # non-negative, so the schedule_us guard is pure per-event
        # overhead on the single hottest scheduling site.
        cpu.run_event = sim.schedule_at_ns(
            sim.now_ns + round(us * NS_PER_US), fire)

    def _run_pending_compute(self, thread: SimThread) -> None:
        """Run (part of) an outstanding Compute, honoring the timeslice."""
        remaining = thread.pending_compute_us
        run = min(remaining, thread.slice_left_us)

        def done() -> None:
            # Duration event: timestamped at completion; the exporter
            # backdates the slice start by ``dur_us``.
            self._trace("compute", thread.location, thread.name,
                        dur_us=run)
            thread.pending_compute_us -= run
            thread.slice_left_us -= run
            if thread.pending_compute_us <= 1e-12:
                thread.pending_compute_us = 0.0
                if self._controller_preempts(thread):
                    return
                self._advance(thread)
                return
            node = self.cluster.nodes[thread.location]
            if len(node.scheduler) == 0:
                # Nobody waiting: take a fresh quantum and keep going.
                thread.slice_left_us = self.costs.timeslice_us
                self._run_pending_compute(thread)
            else:
                self._preempt_for_quantum(thread)

        self._charge(thread, run, done, preemptible=True)

    def _controller_preempts(self, thread: SimThread) -> bool:
        """AmberCheck hook: a compute segment just finished and other
        threads are runnable, so preempting here (instead of letting the
        thread run on into its next operation step) is a schedule
        exploration choice.  Without an installed
        :mod:`repro.analyze.check` controller the stock timeslice
        semantics apply unchanged and this is a single attribute load."""
        controller = _analysis.CONTROLLER
        if controller is None:
            return False
        node = self.cluster.nodes[thread.location]
        if len(node.scheduler) == 0:
            return False
        names = getattr(node.scheduler, "thread_names", None)
        queued = tuple(names()) if names is not None else ()
        chosen = controller.choose(
            "preempt", f"node{node.id}:{thread.name}",
            ("continue", "preempt"), queued=queued)
        if chosen == 0:
            return False
        self._preempt_for_quantum(thread)
        return True

    def _preempt_for_quantum(self, thread: SimThread) -> None:
        node = self.cluster.nodes[thread.location]
        node.stats.context_switches += 1
        thread.run_token += 1
        self._release_cpu(thread)
        self._ready(thread, node.id, self.costs.context_switch_us)

    def _preempt_cpu(self, node: SimNode, cpu: Cpu) -> None:
        """Move-protocol preemption of one running CPU (section 3.5): only
        a preemptible (user-compute) charge is actually interrupted; kernel
        protocol steps run to completion."""
        thread = cpu.thread
        if thread is None or not cpu.charge_preemptible:
            return
        if cpu.run_event is not None:
            cpu.run_event.cancel()
        elapsed_us = (self.sim.now_ns - cpu.charge_started_ns) / 1000
        node.stats.cpu_busy_us += elapsed_us
        thread.pending_compute_us = max(
            0.0, thread.pending_compute_us - elapsed_us)
        thread.run_token += 1
        node.stats.preemptions += 1
        node.stats.context_switches += 1
        if elapsed_us > 0:
            self._trace("compute", node.id, thread.name,
                        dur_us=elapsed_us)
        self._trace("preempt", node.id, thread.name)
        cpu.thread = None
        cpu.run_event = None
        thread.cpu = None
        self._ready(thread, node.id,
                    self.costs.context_switch_us
                    + self.costs.residency_check_us)

    # ------------------------------------------------------------------
    # Generator advancement and request dispatch
    # ------------------------------------------------------------------

    def _advance(self, thread: SimThread) -> None:
        """Advance the top activation's generator by one step."""
        activation = thread.stack[-1]
        gen = activation.gen
        exc = thread.send_exc
        value = thread.send_value
        thread.send_exc = None
        thread.send_value = None
        san = _analysis.ACTIVE
        if san is not None:
            san.step_begin(thread, activation.obj, activation.method)
        try:
            try:
                if exc is not None:
                    request = gen.throw(exc)
                else:
                    request = gen.send(value)
            finally:
                if san is not None:
                    san.step_end(thread, activation.obj)
        except StopIteration as stop:
            self._handle_return(thread, stop.value, None)
        except AmberError as error:
            self._handle_return(thread, None, error)
        except Exception as error:  # user code bug: propagate to caller
            self._handle_return(thread, None, error)
        else:
            self._handle_request(thread, request)

    def _handle_request(self, thread: SimThread, request: Any) -> None:
        try:
            handler = self._HANDLERS.get(type(request))
            if handler is None:
                raise InvocationError(
                    f"operation yielded a non-request value: {request!r}")
            handler(self, thread, request)
        except AmberError as error:
            # Deliver kernel-detected errors into the user generator so
            # programs can catch them.
            thread.send_exc = error
            self.sim.call_now(lambda: self._advance(thread))

    # --- Compute / Charge / Yield --------------------------------------

    def _handle_compute(self, thread: SimThread, request: sc.Compute) -> None:
        if request.us < 0:
            raise InvocationError(f"negative compute time: {request.us}")
        thread.pending_compute_us += float(request.us)
        self._run_pending_compute(thread)

    def _handle_charge(self, thread: SimThread, request: sc.Charge) -> None:
        if request.us < 0:
            raise InvocationError(f"negative charge: {request.us}")
        self._charge(thread, float(request.us),
                     lambda: self._advance(thread))

    def _handle_sleep(self, thread: SimThread, request: sc.Sleep) -> None:
        if request.us < 0:
            raise InvocationError(f"negative sleep time: {request.us}")
        node = self.cluster.nodes[thread.location]

        def block() -> None:
            thread.block_reason = "sleep"
            self._trace("block", node.id, thread.name, detail="sleep")
            thread.state = ThreadState.BLOCKED
            thread.run_token += 1
            token = thread.run_token
            self._release_cpu(thread)
            self.sim.schedule_us(request.us, lambda: wake(token))

        def wake(token: int) -> None:
            if thread.run_token != token:
                return  # resurrected or failed while asleep
            if thread.state is ThreadState.BLOCKED:
                self._ready(thread, thread.location,
                            self.costs.dispatch_us)

        self._charge(thread, self.costs.block_us, block)

    def _handle_yield(self, thread: SimThread, request: sc.Yield) -> None:
        node = self.cluster.nodes[thread.location]

        def then() -> None:
            if len(node.scheduler) == 0:
                thread.slice_left_us = self.costs.timeslice_us
                self._advance(thread)
            else:
                thread.run_token += 1
                node.stats.context_switches += 1
                self._release_cpu(thread)
                self._ready(thread, node.id, 0.0)

        self._charge(thread, self.costs.context_switch_us, then)

    # --- Invocation ------------------------------------------------------

    def _handle_invoke(self, thread: SimThread, request: sc.Invoke) -> None:
        self._validate_target(request.target)
        thread.invocations += 1
        thread.invoke_t0 = self.sim.now_us
        thread.invoke_remote = False
        self._charge(thread, self.costs.local_invoke_us,
                     lambda: self._invoke_entry(thread, request))

    def _invoke_entry(self, thread: SimThread, request: sc.Invoke) -> None:
        node = self.cluster.nodes[thread.location]
        vaddr = request.target.vaddr
        # AmberElide: proven-confined/immutable targets skip the
        # access-log update — its only consumers (affinity rebalancing,
        # flow evidence) never see elided runs, and a confined object's
        # log would be a single-node row anyway.
        skip = _ert.SKIP
        if not skip or type(request.target).__name__ not in skip:
            log = self.cluster.access_log.setdefault(vaddr, {})
            log[node.id] = log.get(node.id, 0) + 1
        if node.descriptors.is_resident(vaddr):
            node.stats.local_invocations += 1
            if not request.target.immutable and self._recovering() \
                    and self._deliver_logged_local(thread, request):
                return
            self._trace("invoke-local", node.id, thread.name, vaddr,
                        request.method)
            self._push_and_run(thread, request, is_root=False)
        elif request.target.immutable:
            self._fetch_replica(
                thread, request.target,
                lambda: self._push_and_run(thread, request, is_root=False))
        else:
            thread.remote_invocations += 1
            node.stats.remote_invocations += 1
            thread.invoke_remote = True
            self._trace("invoke-remote", node.id, thread.name, vaddr,
                        request.method)
            self._trap_and_migrate(thread, vaddr, payload=request.arg_bytes,
                                   on_arrival=("invoke", request, False))

    def _handle_fast_invoke(self, thread: SimThread,
                            request: sc.FastInvoke) -> None:
        """Section 3.6: a call that assumes co-residency.  The kernel
        charges only the inline-call cost, but verifies the assumption:
        the target must be in the invoking object's attachment group (or
        be the object itself)."""
        self._validate_target(request.target)
        if not thread.stack:
            raise InvocationError(
                "FastInvoke requires an enclosing operation")
        current = thread.stack[-1].obj
        target = request.target
        attachments = self.cluster.attachments
        if target.vaddr != current.vaddr \
                and not attachments.directly_attached(current.vaddr,
                                                      target.vaddr) \
                and target.vaddr not in attachments.group(current.vaddr):
            raise InvocationError(
                f"FastInvoke on {target!r}: co-residency with "
                f"{current!r} is not guaranteed (attach them first)")
        thread.invocations += 1
        thread.invoke_t0 = self.sim.now_us
        thread.invoke_remote = False

        def then() -> None:
            node = self.cluster.nodes[thread.location]
            node.stats.local_invocations += 1
            self._push_and_run(
                thread,
                sc.Invoke(target, request.method, *request.args,
                          **request.kwargs),
                is_root=False)

        self._charge(thread, self.costs.inline_call_us, then)

    def _push_and_run(self, thread: SimThread, request: sc.Invoke,
                      is_root: bool) -> None:
        target = request.target
        context = InvocationContext(self, thread)
        san = _analysis.ACTIVE
        try:
            fn = operation_of(target, request.method)
            if san is not None:
                # Atomic bodies (and generator construction) run as one
                # sanitizer step on the target object.
                san.step_begin(thread, target, request.method)
                try:
                    result = fn(context, *request.args,
                                **getattr(request, "kwargs", {}))
                finally:
                    san.step_end(thread, target)
            else:
                result = fn(context, *request.args,
                            **getattr(request, "kwargs", {}))
        except Exception as error:
            self._handle_return(thread, None, error, pop=False)
            return
        if hasattr(result, "send") and hasattr(result, "throw"):
            activation = Activation(target, request.method, result)
            activation.result_bytes = request.result_bytes
            activation.start_us = thread.invoke_t0
            activation.remote = thread.invoke_remote
            activation.root = is_root
            thread.stack.append(activation)
            thread.send_value = None
            self._advance(thread)
        else:
            # Atomic operation: completed instantly.
            if self._recovering() and thread.resurrect_stack:
                entry = thread.resurrect_stack[-1]
                if not entry.completed and entry.request is request:
                    self._record_completion(thread, entry, result, None)
            if is_root:
                # A thread body (Fork/Start of an atomic operation):
                # there is no caller frame to return into.
                self._thread_exit(thread, result, None)
                return
            # The return still pops the (implicit) frame and pays the
            # return-check cost.  An elided sync op deposits its nominal
            # SYNC_OP_US in the thread's surcharge; folding it into this
            # charge keeps simulated elapsed identical to the slow path
            # while saving the separate Charge event.  (A RUNNING
            # thread's surcharge is otherwise always zero — it is
            # consumed at switch-in.)
            surcharge = thread.surcharge_us
            if surcharge:
                thread.surcharge_us = 0.0
            thread.pending_invoke_metric = (
                "invoke_remote_us" if thread.invoke_remote
                else "invoke_local_us", thread.invoke_t0)
            self._charge(thread, self.costs.local_return_us + surcharge,
                         lambda: self._complete_return(
                             thread, result, None,
                             result_bytes=request.result_bytes))

    def _handle_return(self, thread: SimThread, value: Any,
                       exc: Optional[BaseException],
                       pop: bool = True) -> None:
        """The top operation finished (normally or exceptionally)."""
        result_bytes = 0
        if pop and thread.stack:
            frame = thread.stack[-1]
            result_bytes = getattr(frame, "result_bytes", 0)
            if not frame.root:
                # Observed once the value is delivered to the caller, so
                # remote latencies include the migration back.
                thread.pending_invoke_metric = (
                    "invoke_remote_us" if frame.remote
                    else "invoke_local_us", frame.start_us)
            thread.stack.pop()
            if self._recovering() and thread.resurrect_stack:
                entry = thread.resurrect_stack[-1]
                if not entry.completed and \
                        len(thread.stack) <= entry.depth:
                    self._record_completion(thread, entry, value, exc)
        if not thread.stack:
            self._thread_exit(thread, value, exc)
            return
        self._charge(thread, self.costs.local_return_us,
                     lambda: self._complete_return(thread, value, exc,
                                                   result_bytes))

    def _complete_return(self, thread: SimThread, value: Any,
                         exc: Optional[BaseException],
                         result_bytes: int = 0) -> None:
        """Return-time residency check: the frame has been popped; make
        sure we are where the caller's object lives before continuing."""
        node = self.cluster.nodes[thread.location]
        top = thread.stack[-1]
        if node.descriptors.is_resident(top.obj.vaddr):
            self._observe_invoke_latency(thread)
            self._settle_replay_entries(thread)
            thread.send_value = value
            thread.send_exc = exc
            self._advance(thread)
        else:
            self._trap_and_migrate(thread, top.obj.vaddr,
                                   payload=result_bytes,
                                   on_arrival=("deliver", value, exc))

    def _observe_invoke_latency(self, thread: SimThread) -> None:
        """Record a completed invocation's end-to-end latency once its
        value reaches the caller (after any return-time migration)."""
        pending = thread.pending_invoke_metric
        if pending is not None:
            thread.pending_invoke_metric = None
            name, start_us = pending
            self._hists[name].observe(self.sim.now_us - start_us)

    def _validate_target(self, target: Any) -> None:
        if not isinstance(target, SimObject):
            raise InvocationError(
                f"invocation target {target!r} is not an Amber object")
        if getattr(target, "_location", None) is None and \
                target.vaddr not in self.cluster.objects:
            raise ObjectNotFoundError(f"{target!r} has been deleted")

    # --- Thread requests --------------------------------------------------

    def _handle_new(self, thread: SimThread, request: sc.New) -> None:
        node_id = (thread.location if request.on_node is None
                   else request.on_node)

        def then() -> None:
            try:
                obj = self.create_object(request.cls, request.args,
                                         request.kwargs, node_id,
                                         request.size_bytes)
            except AmberError as error:
                thread.send_exc = error
            else:
                # AmberElide: mark a lock whose (creator, class) pair
                # the active artifact proves single-thread-reachable.
                owners = _ert.LOCK_OWNERS
                if owners and thread.stack:
                    creator = _ert.lock_owner_name(
                        type(thread.stack[-1].obj).__name__)
                    if (creator, request.cls.__name__) in owners:
                        obj._elide_ok = True
                thread.send_value = obj
            self._advance(thread)

        self._charge(thread, self.costs.object_create_us(), then)

    def _handle_delete(self, thread: SimThread, request: sc.Delete) -> None:
        self._validate_target(request.target)

        def then() -> None:
            try:
                self.delete_object(request.target, thread.location)
            except AmberError as error:
                thread.send_exc = error
            self._advance(thread)

        self._charge(thread, self.costs.descriptor_init_us, then)

    def _handle_new_thread(self, thread: SimThread,
                           request: sc.NewThread) -> None:
        self._validate_target(request.target)

        def then() -> None:
            child = self.new_thread(thread.location, request.name,
                                    request.priority)
            child.on_arrival = (
                "invoke",
                sc.Invoke(request.target, request.method, *request.args),
                True)
            thread.send_value = child
            self._advance(thread)

        self._charge(thread, self.costs.object_create_us(), then)

    def _handle_start(self, thread: SimThread, request: sc.Start) -> None:
        child = request.thread
        if not isinstance(child, SimThread) or \
                child.state is not ThreadState.NEW:
            raise InvocationError(
                f"Start requires an unstarted thread, got {child!r}")

        def then() -> None:
            san = _analysis.ACTIVE
            if san is not None:
                san.on_start(thread, child)
            self._ready(child, child.location, self.costs.dispatch_us)
            thread.send_value = child
            self._advance(thread)

        self._charge(thread, self.costs.thread_start_us, then)

    def _handle_fork(self, thread: SimThread, request: sc.Fork) -> None:
        self._validate_target(request.target)

        def started() -> None:
            child = self.new_thread(thread.location, request.name,
                                    request.priority)
            child.on_arrival = (
                "invoke",
                sc.Invoke(request.target, request.method, *request.args,
                          arg_bytes=request.arg_bytes),
                True)
            san = _analysis.ACTIVE
            if san is not None:
                san.on_start(thread, child)
            self._ready(child, child.location, self.costs.dispatch_us)
            thread.send_value = child
            self._advance(thread)

        self._charge(thread,
                     self.costs.object_create_us()
                     + self.costs.thread_start_us,
                     started)

    def _handle_join(self, thread: SimThread, request: sc.Join) -> None:
        target = request.thread
        if not isinstance(target, SimThread):
            raise InvocationError(f"Join target {target!r} is not a thread")
        if target is thread:
            raise InvocationError("a thread cannot join itself")
        if target.done:
            def then() -> None:
                san = _analysis.ACTIVE
                if san is not None:
                    san.on_join(thread, target)
                thread.send_value = target.result
                thread.send_exc = target.exception
                self._advance(thread)

            self._charge(thread, self.costs.join_us, then)
            return

        def block() -> None:
            if target.done:
                # The target exited while we were entering the wait.
                san = _analysis.ACTIVE
                if san is not None:
                    san.on_join(thread, target)
                thread.send_value = target.result
                thread.send_exc = target.exception
                self._advance(thread)
                return
            target.joiners.append(thread)
            thread.block_reason = "join"
            self._trace("block", thread.location, thread.name,
                        detail="join")
            thread.state = ThreadState.BLOCKED
            thread.run_token += 1
            self._release_cpu(thread)

        self._charge(thread, self.costs.block_us, block)

    def _handle_suspend(self, thread: SimThread,
                        request: sc.Suspend) -> None:
        def then() -> None:
            if thread.wakeup_pending:
                thread.wakeup_pending = False
                self._advance(thread)
                return
            thread.block_reason = request.reason
            self._trace("block", thread.location, thread.name,
                        detail=request.reason)
            thread.state = ThreadState.BLOCKED
            thread.run_token += 1
            self._release_cpu(thread)

        self._charge(thread, self.costs.block_us, then)

    def _handle_wakeup(self, thread: SimThread, request: sc.Wakeup) -> None:
        target = request.thread
        if not isinstance(target, SimThread):
            raise InvocationError(f"Wakeup target {target!r} is not a thread")

        def then() -> None:
            san = _analysis.ACTIVE
            if san is not None and not target.done:
                san.on_wakeup(thread, target)
            if target.state is ThreadState.BLOCKED:
                self._ready(target, target.location, self.costs.dispatch_us)
            elif not target.done:
                target.wakeup_pending = True
            self._advance(thread)

        self._charge(thread, self.costs.wakeup_us, then)

    # --- Mobility ----------------------------------------------------------

    def _handle_moveto(self, thread: SimThread, request: sc.MoveTo) -> None:
        self._validate_target(request.target)
        dest = request.node
        self.cluster.node(dest)  # validates the node id
        target = request.target
        t0 = self.sim.now_us
        if isinstance(target, SimThread):
            self._move_thread_object(thread, target, dest)
            return
        if target.immutable:
            self._replicate(
                thread, target, dest,
                lambda: self._finish_move(thread, "replicate_us", t0))
            return
        node = self.cluster.nodes[thread.location]
        if node.descriptors.is_resident(target.vaddr):
            self._move_group_local(
                thread, node, target.vaddr, dest,
                lambda: self._finish_move(thread, "move_us", t0))
        else:
            self._move_remote(thread, target.vaddr, dest, t0)

    def _finish_move(self, thread: SimThread, metric: str,
                     t0: float) -> None:
        self.metrics.observe(metric, self.sim.now_us - t0)
        self._resume_after_move(thread)

    def _resume_after_move(self, thread: SimThread) -> None:
        """After a move completes, the mover itself may now be standing on
        the wrong node (it was bound to the moved group)."""
        node = self.cluster.nodes[thread.location]
        if thread.stack and not node.descriptors.is_resident(
                thread.stack[-1].obj.vaddr):
            self._trap_and_migrate(thread, thread.stack[-1].obj.vaddr,
                                   on_arrival=("deliver", None, None))
        else:
            thread.send_value = None
            self._advance(thread)

    def _move_group_local(self, mover: Optional[SimThread], node: SimNode,
                          vaddr: int, dest: int, on_done) -> None:
        """Execute the move protocol with the object resident on ``node``.

        ``mover`` holds a CPU on ``node`` for the CPU-bound phases; a
        ``None`` mover (move request arriving from another node) charges
        the same costs as pure delays.
        """
        costs = self.costs
        cluster = self.cluster
        group: List[SimObject] = []
        if dest == node.id:
            self._after(mover, node, costs.move_setup_us, on_done)
            return

        def setup_done() -> None:
            nonlocal group
            if not node.descriptors.is_resident(vaddr):
                # Lost a race with a concurrent move: the object left
                # while we were setting up.  Chase it and run the
                # protocol where it actually lives.
                self._route_control(
                    node, vaddr,
                    lambda holder: self._move_group_local(
                        None, holder, vaddr, dest, on_done))
                return
            # 1. Mark every member non-resident, leaving forwarding
            #    addresses (before the copy, per section 3.5).  The
            #    group is read now, under the same event as the marking.
            group = [cluster.objects[member]
                     for member in cluster.attachments.group(vaddr)]
            for member in group:
                node.descriptors.set_forwarding(member.vaddr, dest)
                member._location = None
            # 2. Briefly interrupt every other processor so running
            #    threads make residency checks when rescheduled.
            for cpu in node.cpus:
                if mover is not None and cpu.index == mover.cpu:
                    continue
                self._preempt_cpu(node, cpu)
            preempt_cost = costs.preempt_us * max(0, node.ncpus - 1)
            marshal_cost = costs.object_marshal_us * len(group)
            self._after(mover, node, preempt_cost + marshal_cost, transmit)

        def transmit() -> None:
            total_bytes = sum(member.size_bytes for member in group)
            self.net.send_reliable(node.id, dest, total_bytes, arrived)

        def arrived() -> None:
            self.sim.schedule_us(costs.object_install_us * len(group),
                                 install)

        def install() -> None:
            dest_node = cluster.node(dest)
            for member in group:
                dest_node.descriptors.set_resident(member.vaddr)
                member._location = dest
            dest_node.stats.objects_in += len(group)
            node.stats.objects_out += len(group)
            cluster.stats.object_moves += 1
            self._trace("move", dest, "", vaddr,
                        f"group of {len(group)} from node {node.id}")
            self.net.send_reliable(dest, node.id, costs.control_bytes,
                                   acked)

        def acked() -> None:
            self._after(mover, node, costs.move_complete_us, on_done)

        self._after(mover, node, costs.move_setup_us, setup_done)

    def _after(self, mover: Optional[SimThread], node: SimNode,
               us: float, then) -> None:
        """Charge ``us`` to the mover's CPU if there is a local mover,
        otherwise let it elapse as kernel time at ``node``."""
        if mover is not None and mover.location == node.id and \
                mover.cpu is not None:
            self._charge(mover, us, then)
        else:
            node.stats.cpu_busy_us += us
            self.sim.schedule_us(us, then)

    def _move_remote(self, thread: SimThread, vaddr: int, dest: int,
                     t0: Optional[float] = None) -> None:
        """MoveTo on a non-resident object: route the request to wherever
        the object lives and run the protocol there."""
        origin = self.cluster.nodes[thread.location]
        if t0 is None:
            t0 = self.sim.now_us

        def found(holder: SimNode) -> None:
            self._move_group_local(
                None, holder, vaddr, dest,
                lambda: self.net.send_reliable(holder.id, origin.id,
                                               self.costs.control_bytes,
                                               resume))

        def resume() -> None:
            self._charge(thread, self.costs.move_complete_us,
                         lambda: self._finish_move(thread, "move_us", t0))

        self._charge(thread, self.costs.remote_trap_us,
                     lambda: self._route_control(origin, vaddr, found))

    def _move_thread_object(self, mover: SimThread, target: SimThread,
                            dest: int) -> None:
        """Moving a thread object relocates the thread itself.  Only
        unstarted, queued, or blocked threads may be moved explicitly;
        running threads move via the invocation mechanism."""
        if target is mover or target.state in (ThreadState.RUNNING,
                                               ThreadState.TRANSIT):
            raise MobilityError(
                f"cannot explicitly move {target!r} while it is "
                f"{target.state.value}; threads migrate via invocation")
        if target.done:
            raise MobilityError(f"cannot move finished thread {target!r}")
        costs = self.costs
        source = self.cluster.node(target.location)

        def depart() -> None:
            was_ready = target.state is ThreadState.READY
            if was_ready:
                source.scheduler.remove(target)
                target.state = ThreadState.TRANSIT
            source.descriptors.set_forwarding(target.vaddr, dest)
            source.stats.threads_out += 1
            self.cluster.stats.thread_migrations += 1
            target.migrations += 1

            def arrive() -> None:
                dest_node = self.cluster.node(dest)
                dest_node.descriptors.set_resident(target.vaddr)
                dest_node.stats.threads_in += 1
                target.location = dest
                target._location = dest
                if was_ready:
                    target.state = ThreadState.BLOCKED  # re-readied below
                    self._ready(target, dest, costs.thread_recv_cpu_us())
                # NEW threads stay NEW (Start will queue them here);
                # BLOCKED threads stay blocked and resume here when woken.
            self.net.send_reliable(source.id, dest,
                                   costs.thread_packet_bytes, arrive)
            mover.send_value = None
            self._advance(mover)

        self._charge(mover, costs.thread_marshal_us, depart)

    def _handle_locate(self, thread: SimThread, request: sc.Locate) -> None:
        self._validate_target(request.target)
        vaddr = request.target.vaddr
        node = self.cluster.nodes[thread.location]
        self.cluster.stats.locates += 1
        t0 = self.sim.now_us

        def local_check() -> None:
            if node.descriptors.is_resident(vaddr):
                self.metrics.observe("locate_us", self.sim.now_us - t0)
                thread.send_value = node.id
                self._advance(thread)
                return
            self._route_control(node, vaddr, found)

        def found(holder: SimNode) -> None:
            self.net.send_reliable(holder.id, node.id,
                                   self.costs.control_bytes,
                                   lambda: deliver(holder.id))

        def deliver(where: int) -> None:
            self.metrics.observe("locate_us", self.sim.now_us - t0)
            thread.send_value = where
            self._advance(thread)

        self._charge(thread, self.costs.local_invoke_us, local_check)

    def _handle_attach(self, thread: SimThread, request: sc.Attach) -> None:
        self._validate_target(request.target)
        self._validate_target(request.to)
        node = self.cluster.nodes[thread.location]
        a, b = request.target, request.to
        if a.immutable or b.immutable:
            raise AttachmentError(
                "immutable (replicated) objects cannot be attached")
        if not (node.descriptors.is_resident(a.vaddr)
                and node.descriptors.is_resident(b.vaddr)):
            raise AttachmentError(
                "Attach requires both objects resident on the current node "
                f"(node {node.id}): {a!r}, {b!r}")

        def then() -> None:
            try:
                self.cluster.attachments.attach(a.vaddr, b.vaddr)
            except AmberError as error:
                thread.send_exc = error
            self._advance(thread)

        self._charge(thread, self.costs.descriptor_init_us, then)

    def _handle_unattach(self, thread: SimThread,
                         request: sc.Unattach) -> None:
        self._validate_target(request.target)

        def then() -> None:
            try:
                self.cluster.attachments.unattach(request.target.vaddr)
            except AmberError as error:
                thread.send_exc = error
            self._advance(thread)

        self._charge(thread, self.costs.descriptor_init_us, then)

    def _handle_set_immutable(self, thread: SimThread,
                              request: sc.SetImmutable) -> None:
        self._validate_target(request.target)
        target = request.target

        def then() -> None:
            if isinstance(target, SimThread):
                thread.send_exc = MobilityError(
                    "threads cannot be marked immutable")
            elif self.cluster.attachments.is_attached(target.vaddr) or \
                    target.vaddr in self.cluster.attachments.members():
                thread.send_exc = MobilityError(
                    "detach objects before marking them immutable")
            else:
                target._immutable = True
                target._replica_nodes = {target._location}
            self._advance(thread)

        self._charge(thread, self.costs.descriptor_init_us, then)

    def _handle_refresh(self, thread: SimThread, request: sc.Refresh) -> None:
        self._validate_target(request.target)
        target = request.target
        node = self.cluster.nodes[thread.location]
        if not target.immutable:
            raise MobilityError(f"Refresh requires an immutable object, "
                                f"got {target!r}")
        if node.descriptors.is_resident(target.vaddr):
            self._charge(thread, self.costs.residency_check_us,
                         lambda: self._resume_none(thread))
            return
        self._fetch_replica(thread, target,
                            lambda: self._resume_none(thread))

    def _resume_none(self, thread: SimThread) -> None:
        thread.send_value = None
        self._advance(thread)

    def _replicate(self, thread: SimThread, target: SimObject, dest: int,
                   on_done) -> None:
        """Copy an immutable object to ``dest`` (MoveTo-on-immutable)."""
        costs = self.costs
        cluster = self.cluster
        dest_node = cluster.node(dest)
        if dest_node.descriptors.is_resident(target.vaddr):
            self._charge(thread, costs.residency_check_us, on_done)
            return
        source = min(target._replica_nodes)

        def request_sent() -> None:
            self.net.send_reliable(thread.location, source,
                                   costs.control_bytes, marshal)

        def marshal() -> None:
            self.sim.schedule_us(costs.object_marshal_us, transfer)

        def transfer() -> None:
            self.net.send_reliable(source, dest, target.size_bytes, install)

        def install() -> None:
            self.sim.schedule_us(costs.object_install_us, installed)

        def installed() -> None:
            dest_node.descriptors.set_resident(target.vaddr)
            target._replica_nodes.add(dest)
            dest_node.stats.replicas_installed += 1
            cluster.stats.replications += 1
            self._trace("replicate", dest, "", target.vaddr,
                        f"from node {source}")
            if dest == thread.location:
                # The replica landed right here: no acknowledgement needed.
                self._charge(thread, 0.0, on_done)
            else:
                self.net.send_reliable(dest, thread.location,
                                       costs.control_bytes,
                                       lambda: self._charge(thread, 0.0,
                                                            on_done))

        if source == thread.location:
            # We hold a replica: marshal here and ship it.
            self._charge(thread, costs.object_marshal_us, transfer)
        else:
            self._charge(thread, costs.remote_trap_us, request_sent)

    def _fetch_replica(self, thread: SimThread, target: SimObject,
                       on_done) -> None:
        """Install a local replica of an immutable object, then continue."""
        t0 = self.sim.now_us

        def done() -> None:
            self.metrics.observe("replicate_us", self.sim.now_us - t0)
            on_done()

        self._replicate(thread, target, thread.location, done)

    # --- Scheduling control -------------------------------------------------

    def _handle_set_scheduler(self, thread: SimThread,
                              request: sc.SetScheduler) -> None:
        node = self.cluster.node(request.node)

        def then() -> None:
            node.set_scheduler(request.scheduler)
            thread.send_value = None
            self._advance(thread)
            self._try_dispatch(node)

        self._charge(thread, self.costs.descriptor_init_us, then)

    def _handle_get_stats(self, thread: SimThread,
                          request: sc.GetStats) -> None:
        thread.send_value = self.cluster.stats
        self.sim.call_now(lambda: self._advance(thread))

    # ------------------------------------------------------------------
    # Thread migration (function shipping)
    # ------------------------------------------------------------------

    def _trap_and_migrate(self, thread: SimThread, target_vaddr: int,
                          payload: int = 0, on_arrival=None) -> None:
        """The residency check failed: trap to the kernel and move the
        thread toward the target object."""
        if on_arrival is not None:
            thread.on_arrival = on_arrival
        costs = self.costs
        node = self.cluster.nodes[thread.location]

        def depart() -> None:
            node.stats.threads_out += 1
            self.cluster.stats.thread_migrations += 1
            thread.migrations += 1
            thread.transit_start_us = self.sim.now_us
            self._trace("migrate-out", node.id, thread.name, target_vaddr)
            thread.state = ThreadState.TRANSIT
            thread.run_token += 1
            thread.transit_target = target_vaddr
            thread.transit_path = [node.id]
            if self._recovering():
                self._log_departure(thread, node.id)
            believed = self.believed_location(node, target_vaddr)
            self._release_cpu(thread)
            thread.location = None
            self._send_thread(thread, node.id, believed, payload)

        self._charge(thread, costs.thread_send_cpu_us(), depart)

    def _send_thread(self, thread: SimThread, src: int, dst: int,
                     payload: int) -> None:
        nbytes = self.costs.thread_packet_bytes + payload
        thread.transit_hop = dst
        token = thread.run_token

        def deliver() -> None:
            if thread.run_token != token or thread.done:
                return  # resurrected or failed while in flight
            self._thread_arrival(thread, dst, payload)

        def give_up() -> None:
            if thread.run_token != token or thread.done:
                return
            self._thread_send_failed(thread, src, dst, payload)

        self.net.send_reliable(src, dst, nbytes, deliver,
                               on_give_up=give_up, kind="thread")

    def _thread_send_failed(self, thread: SimThread, src: int, dst: int,
                            payload: int) -> None:
        """The reliable layer exhausted its retries migrating ``thread``
        to ``dst``: that hop is dead.  Shed the stale hint that led
        there and reroute via the object's home node — unless the dead
        node is where the home itself points (or *is* the home), in
        which case the object is behind the crash and all we can do is
        probe on a slow timer until it restarts or the budget runs out."""
        vaddr = thread.transit_target
        if self._recovering():
            if vaddr in self._lost_objects:
                self._fail_thread(thread, dst)
                return
            obj = self.cluster.objects.get(vaddr)
            where = getattr(obj, "_location", None)
            if (where is not None and where != dst
                    and not self.cluster.node(where).down
                    and self.cluster.node(where).descriptors
                        .is_resident(vaddr)):
                # The object escaped the crash (a promoted backup, or a
                # live holder): go straight there, not via a corpse.
                self.metrics.inc("home_fallbacks")
                self._trace("home-fallback", src, thread.name, vaddr,
                            f"node {dst} unreachable; live copy at "
                            f"node {where}")
                self._send_thread(thread, src, where, payload)
                return
        home = self.cluster.home_node(vaddr)
        source = self.cluster.node(src)
        if dst != home and src != home:
            descriptor = source.descriptors.lookup(vaddr)
            if (descriptor is not None and not descriptor.resident
                    and descriptor.forward_to == dst):
                source.descriptors.clear(vaddr)
                self.metrics.inc("hints_repaired")
            self.metrics.inc("home_fallbacks")
            self._trace("home-fallback", src, thread.name, vaddr,
                        f"node {dst} unreachable; rerouting via home {home}")
            self._send_thread(thread, src, home, payload)
            return
        thread.home_probes += 1
        self.metrics.inc("home_probes")
        if thread.home_probes > MAX_HOME_PROBES:
            if self._recovering():
                # Typed failure instead of an exception out of the event
                # loop: the object is behind a crash with no recoverable
                # copy, so the thread terminates and its joiners learn.
                self._fail_thread(thread, dst)
                return
            raise ObjectNotFoundError(
                f"thread {thread.name} cannot reach object {vaddr:#x}: "
                f"node {dst} stayed unreachable through "
                f"{MAX_HOME_PROBES} probes")
        self._trace("home-probe", src, thread.name, vaddr,
                    f"probe {thread.home_probes} of node {dst}")
        token = thread.run_token
        self.sim.schedule_us(
            self._probe_interval_us(),
            lambda: None if thread.run_token != token or thread.done
            else self._send_thread(thread, src, dst, payload))

    def _probe_interval_us(self) -> float:
        """Spacing between probes of an unreachable node: the retry
        layer's backoff cap, so probes are strictly slower than the
        in-protocol retransmissions that already failed."""
        plan = self.cluster.faults
        return plan.rto_cap_us if plan is not None else 1_000.0

    def _chain_repair_locate(self, origin_id: int, vaddr: int,
                             on_found, probes: int = 0) -> None:
        """Broadcast locate of last resort (the Emerald lineage's
        unreachable-object search).  A restart can shed a forwarding
        link whose upstream hints still point into the broken chain,
        leaving a cycle no amount of chasing escapes — e.g. the home's
        stale hint aims at the restarted node, which knows nothing and
        bounces requests back to the home.  When a chase detects such a
        cycle, ask every node directly whether the object is resident
        there and repair the chain from the answer.

        If no node holds the object (it may be in transit, or behind a
        crashed node that dropped the query), the broadcast is retried
        on the probe timer up to :data:`MAX_HOME_PROBES` times before
        the object is declared lost.  Queries go out in node-id order
        and replies are collected by counting, so the broadcast is
        deterministic."""
        if self.cluster.node(origin_id).descriptors.is_resident(vaddr):
            on_found(origin_id)  # arrived here while we were looping
            return
        self.metrics.inc("location_broadcasts")
        self._trace("locate-broadcast", origin_id, "", vaddr,
                    f"round {probes + 1}")
        peers = [node for node in self.cluster.nodes
                 if node.id != origin_id]
        outstanding = [len(peers)]
        found: List[int] = []

        def finish() -> None:
            if found:
                on_found(min(found))
                return
            if probes >= MAX_HOME_PROBES:
                raise ObjectNotFoundError(
                    f"object {vaddr:#x} not resident on any node after "
                    f"{MAX_HOME_PROBES} broadcast rounds: lost")
            self.metrics.inc("home_probes")
            self.sim.schedule_us(
                self._probe_interval_us(),
                lambda: self._chain_repair_locate(origin_id, vaddr,
                                                  on_found, probes + 1))

        def account() -> None:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                finish()

        for peer in peers:
            def query(peer=peer) -> None:
                def check() -> None:
                    if peer.descriptors.is_resident(vaddr):
                        found.append(peer.id)
                    self.net.send_reliable(peer.id, origin_id,
                                           self.costs.control_bytes,
                                           account, on_give_up=account)

                self.net.send_reliable(origin_id, peer.id,
                                       self.costs.control_bytes, check,
                                       on_give_up=account)

            query()

    def _repair_hints(self, origin_id: int, vaddr: int,
                      where: int) -> None:
        """Point the origin's and the home's hints at the located
        holder so the repaired chain is immediately usable."""
        self.cluster.node(origin_id).descriptors.update_hint(vaddr, where)
        home = self.cluster.home_node(vaddr)
        self.cluster.node(home).descriptors.update_hint(vaddr, where)
        self.metrics.inc("hints_repaired")

    def _thread_arrival(self, thread: SimThread, node_id: int,
                        payload: int) -> None:
        nodes = self.cluster.nodes
        node = nodes[node_id]
        if node.down and self._recovering():
            # Delivery raced the crash: landed on a corpse.  Bounce from
            # the last live hop as if the send had given up.
            src = thread.transit_path[-1] if thread.transit_path \
                else node_id
            self._thread_send_failed(thread, src, node_id, payload)
            return
        thread.home_probes = 0
        thread.transit_path.append(node_id)
        if thread.carried_checkpoints:
            self._flush_carried(thread, node_id)
        vaddr = thread.transit_target
        if len(thread.transit_path) > MAX_CHASE_HOPS:
            raise ObjectNotFoundError(
                f"thread {thread.name} chased object {vaddr:#x} for more "
                f"than {MAX_CHASE_HOPS} hops")
        if node.descriptors.is_resident(vaddr):
            # Found it: cache the location along the path we took.
            for visited in thread.transit_path[:-1]:
                nodes[visited].descriptors.update_hint(vaddr, node_id)
            # The thread object itself now resides here.
            self._relocate_thread_object(thread, node_id)
            node.stats.threads_in += 1
            self._trace("migrate-in", node_id, thread.name, vaddr)
            san = _analysis.ACTIVE
            if san is not None:
                san.on_migrate(thread, node_id, self.sim.now_us)
            hists = self._hists
            hists["migration_us"].observe(
                self.sim.now_us - thread.transit_start_us)
            hops = len(thread.transit_path) - 2
            hists["forward_chain_hops"].observe(hops if hops > 0 else 0)
            thread.transit_target = None
            thread.transit_path = []
            self._ready(thread, node_id, self.costs.thread_recv_cpu_us())
            return
        # Not here: follow the chain one more hop.
        node.stats.forward_hops += 1
        self.cluster.stats.forwarding_hops_followed += 1
        next_node = self.believed_location(node, vaddr)
        if thread.transit_path.count(next_node) >= 2:
            # We have been to next_node before and come back: the chain
            # is cyclic (a restart shed a link the remaining hints still
            # route through).  Chasing cannot terminate; locate the
            # object by broadcast and repair the chain.
            def repaired(where: int) -> None:
                self._repair_hints(node_id, vaddr, where)
                thread.transit_path = [node_id]
                self._send_thread(thread, node_id, where, payload)

            self.sim.schedule_us(
                self.costs.forward_hop_us,
                lambda: self._chain_repair_locate(node_id, vaddr, repaired))
            return
        self.sim.schedule_us(
            self.costs.forward_hop_us,
            lambda: self._send_thread(thread, node_id, next_node, payload))

    def _relocate_thread_object(self, thread: SimThread,
                                node_id: int) -> None:
        """Keep the thread object's descriptors consistent as it moves."""
        nodes = self.cluster.nodes
        previous = thread._location
        if previous is not None and previous != node_id:
            nodes[previous].descriptors.set_forwarding(thread.vaddr,
                                                       node_id)
        nodes[node_id].descriptors.set_resident(thread.vaddr)
        thread._location = node_id

    # ------------------------------------------------------------------
    # Control-message routing (locate / remote move requests)
    # ------------------------------------------------------------------

    def _route_control(self, origin, vaddr: int, on_found,
                       _path: Optional[List[int]] = None) -> None:
        """Send a control message chasing ``vaddr``; call ``on_found`` with
        the holder node.  Charges wire time per hop plus forwarding cost at
        intermediate nodes, and compresses the path when found."""
        path = _path if _path is not None else [origin.id]
        if len(path) > MAX_CHASE_HOPS:
            raise ObjectNotFoundError(
                f"control message chased {vaddr:#x} beyond hop limit")
        next_node = self.believed_location(origin, vaddr)
        if path.count(next_node) >= 2:
            # Cyclic chain (see _thread_arrival): broadcast-locate and
            # restart the chase at the repaired location.
            def repaired(where: int) -> None:
                self._repair_hints(origin.id, vaddr, where)
                self._route_control_hop(origin, vaddr, where, on_found,
                                        [origin.id], 0)

            self._chain_repair_locate(origin.id, vaddr, repaired)
            return
        self._route_control_hop(origin, vaddr, next_node, on_found, path, 0)

    def _route_control_hop(self, origin, vaddr: int, next_node: int,
                           on_found, path: List[int], probes: int) -> None:
        def delivered() -> None:
            nodes = self.cluster.nodes
            node = nodes[next_node]
            path.append(next_node)
            if node.descriptors.is_resident(vaddr):
                for visited in path[:-1]:
                    nodes[visited].descriptors.update_hint(vaddr,
                                                           next_node)
                hops = len(path) - 2
                self._hists["forward_chain_hops"].observe(
                    hops if hops > 0 else 0)
                on_found(node)
                return
            node.stats.forward_hops += 1
            self.cluster.stats.forwarding_hops_followed += 1
            self.sim.schedule_us(
                self.costs.forward_hop_us,
                lambda: self._route_control(node, vaddr, on_found, path))

        def give_up() -> None:
            self._control_hop_failed(origin, vaddr, next_node, on_found,
                                     path, probes)

        self.net.send_reliable(origin.id, next_node,
                               self.costs.control_bytes, delivered,
                               on_give_up=give_up)

    def _control_hop_failed(self, origin, vaddr: int, dead: int,
                            on_found, path: List[int],
                            probes: int) -> None:
        """A control hop's destination is unreachable.  Mirror image of
        :meth:`_thread_send_failed`: shed the stale hint and reroute via
        the home node, or — when the object is behind the crash — probe
        the dead node on a slow timer until it restarts or the probe
        budget runs out."""
        home = self.cluster.home_node(vaddr)
        if dead != home and origin.id != home:
            descriptor = origin.descriptors.lookup(vaddr)
            if (descriptor is not None and not descriptor.resident
                    and descriptor.forward_to == dead):
                origin.descriptors.clear(vaddr)
                self.metrics.inc("hints_repaired")
            self.metrics.inc("home_fallbacks")
            self._trace("home-fallback", origin.id, "", vaddr,
                        f"node {dead} unreachable; rerouting via "
                        f"home {home}")
            self._route_control_hop(origin, vaddr, home, on_found, path, 0)
            return
        if probes >= MAX_HOME_PROBES:
            raise ObjectNotFoundError(
                f"control message cannot reach object {vaddr:#x}: node "
                f"{dead} stayed unreachable through "
                f"{MAX_HOME_PROBES} probes")
        self.metrics.inc("home_probes")
        self._trace("home-probe", origin.id, "", vaddr,
                    f"probe {probes + 1} of node {dead}")
        self.sim.schedule_us(
            self._probe_interval_us(),
            lambda: self._route_control_hop(origin, vaddr, dead, on_found,
                                            path, probes + 1))

    # ------------------------------------------------------------------

    _HANDLERS = {
        sc.Compute: _handle_compute,
        sc.Charge: _handle_charge,
        sc.Yield: _handle_yield,
        sc.Sleep: _handle_sleep,
        sc.Invoke: _handle_invoke,
        sc.FastInvoke: _handle_fast_invoke,
        sc.New: _handle_new,
        sc.Delete: _handle_delete,
        sc.NewThread: _handle_new_thread,
        sc.Start: _handle_start,
        sc.Fork: _handle_fork,
        sc.Join: _handle_join,
        sc.Suspend: _handle_suspend,
        sc.Wakeup: _handle_wakeup,
        sc.MoveTo: _handle_moveto,
        sc.Locate: _handle_locate,
        sc.Attach: _handle_attach,
        sc.Unattach: _handle_unattach,
        sc.SetImmutable: _handle_set_immutable,
        sc.Refresh: _handle_refresh,
        sc.SetScheduler: _handle_set_scheduler,
        sc.GetStats: _handle_get_stats,
    }
