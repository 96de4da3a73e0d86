"""The simulator's crash-recovery subsystem: checkpoints, promotion,
resurrection.

:class:`~repro.sim.kernel.AmberKernel` constructs one
:class:`RecoveryManager` — and imports this module — only when the cluster
carries a :class:`~repro.recovery.config.RecoveryConfig`; a recovery-free
run has ``kernel.recovery is None`` and never asks.  The kernel core and
:mod:`repro.sim.mobility` call the manager's public methods at their seam
events, and it drives the kernel back only through the core's public
interface and ``mobility.send_thread`` (DESIGN.md, "Simulator kernel
structure").
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import NodeFailure, ObjectNotFoundError
from repro.recovery.checkpoint import (
    CheckpointManager,
    restore_state,
    snapshot_state,
)
from repro.recovery.detector import HeartbeatDetector
from repro.recovery.replay import ReplayEntry
from repro.sim.node import SimNode
from repro.sim.objects import SimObject
from repro.sim.thread import SimThread, ThreadState

#: At-most-once dedup: completed-invocation outcomes remembered per
#: object.  Bounds memory on long runs; an id evicted here could in
#: principle be replayed, but a replay only happens within one
#: crash-detection window of the completion — hundreds of entries deep
#: is far beyond any plausible in-flight set.
COMPLETION_LOG_LIMIT = 512


class RecoveryManager:
    """Crash recovery for one simulated run (see the module docstring)."""

    def __init__(self, kernel, config):
        self.kernel = kernel
        self.config = config
        self.cluster = kernel.cluster
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.net = kernel.net
        self.metrics = kernel.metrics
        #: node id -> simulated crash instant (detection latency basis).
        self.crash_times: Dict[int, float] = {}
        #: Nodes already confirmed dead and swept (idempotence guard).
        self._confirmed_dead: Set[int] = set()
        #: Objects confirmed unrecoverable (primary and backup both
        #: dead at confirmation time): requests fail fast.
        self._lost_objects: Set[int] = set()
        self.checkpoints = CheckpointManager(self.cluster)
        self.detector = HeartbeatDetector(self)
        self.detector.start()

    # ------------------------------------------------------------------
    # Seam: objects and nodes
    # ------------------------------------------------------------------

    def object_created(self, obj: SimObject, node_id: int) -> None:
        if self.config.checkpointing and self.checkpoints.eligible(obj):
            # Baseline epoch at birth: even an object that is never
            # quiescent again (a barrier with perpetual waiters) has a
            # construction-time state to promote.
            self._ship_checkpoint(obj, node_id)

    def node_crashed(self, node_id: int) -> None:
        self.crash_times[node_id] = self.sim.now_us

    def node_restarted(self, node_id: int) -> None:
        self._confirmed_dead.discard(node_id)

    def program_over(self) -> bool:
        """The main thread is done, or the run can no longer progress:
        the heartbeat timer stops rescheduling so the event queue drains
        — a stalled run then ends in ``AmberProgram.run``'s
        DeadlockError instead of ticking forever."""
        threads = self.kernel.threads
        return bool(threads) and (threads[0].done or self._stalled())

    def _stalled(self) -> bool:
        """Only this manager's own traffic is left: every down node has
        been swept, no crash or restart is still to come, and every
        unfinished thread waits for another thread to act (a Suspend or
        a Join, not a Sleep's timer).  A victim awaiting its relaunch is
        in transit, so it counts as progress."""
        if any(node.down and node.id not in self._confirmed_dead
               for node in self.cluster.nodes):
            return False
        plan = self.cluster.faults
        now = self.sim.now_us
        if plan is not None and any(
                crash.at_us >= now
                or (crash.restart_us is not None and crash.restart_us >= now)
                for crash in plan.crashes):
            return False
        return all(thread.done or thread.state is ThreadState.NEW
                   or (thread.state is ThreadState.BLOCKED
                       and (thread.suspended
                            or thread.block_reason != "sleep"))
                   for thread in self.kernel.threads)

    def is_lost(self, vaddr: int) -> bool:
        return vaddr in self._lost_objects

    def live_copy(self, vaddr: int, dead: int) -> Optional[int]:
        """Node holding ``vaddr`` now, if it escaped the crash of
        ``dead`` (a promoted backup, or a live holder) — else ``None``."""
        obj = self.cluster.objects.get(vaddr)
        where = getattr(obj, "_location", None)
        if where is not None and where != dead:
            node = self.cluster.node(where)
            if not node.down and node.descriptors.is_resident(vaddr):
                return where
        return None

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _bound_by_live_thread(self, vaddr: int,
                              exclude: Optional[SimThread] = None) -> bool:
        """True if a live thread's activation stack includes ``vaddr`` —
        its state may be mid-operation (torn), so never snapshot it."""
        return any(thread.is_bound_to({vaddr})
                   for thread in self.kernel.threads
                   if thread is not exclude and not thread.done)

    def _checkpointable(self, node: SimNode):
        """``(vaddr, object)`` of every object resident on ``node`` that
        checkpoints, in address order."""
        for vaddr, where in sorted(node.descriptors.where.items()):
            if where == node.id:
                obj = self.cluster.objects.get(vaddr)
                if obj is not None and self.checkpoints.eligible(obj):
                    yield vaddr, obj

    def _ship_checkpoint(self, obj: SimObject, primary: int,
                         carrier: Optional[SimThread] = None) -> None:
        """Snapshot ``obj`` and start a new epoch toward its backup.

        Without a ``carrier`` (the birth epoch) the epoch ships directly
        over the faulty reliable layer.  With one (write-through at
        invocation return) the epoch rides in the completing thread's
        luggage and is flushed from wherever the thread next lands — the
        checkpoint escapes the node if and only if the thread does, which
        is what makes rollback and replay agree (see
        repro.recovery.replay).
        """
        vaddr = obj.vaddr
        if vaddr in self._lost_objects:
            return
        if self._bound_by_live_thread(vaddr, exclude=carrier):
            return  # mid-operation state: no epoch this time
        backup = self.checkpoints.backup_node(vaddr, primary)
        if backup == primary:
            return  # single-node cluster: nowhere safer to keep it
        epoch = self.checkpoints.next_epoch(vaddr)
        state = snapshot_state(obj)
        nbytes = self.costs.control_bytes + obj.size_bytes
        self.metrics.inc("checkpoints_shipped")
        if carrier is not None:
            carrier.carried_checkpoints.append(
                (vaddr, epoch, state, backup, nbytes))
        else:
            self._send_epoch(primary, backup, vaddr, epoch, state, nbytes)

    def _send_epoch(self, src: int, backup: int, vaddr: int, epoch: int,
                    state: dict, nbytes: int) -> None:
        if self.cluster.node(backup).down:
            self.metrics.inc("checkpoints_lost")
            return
        self.net.send_reliable(
            src, backup, nbytes,
            lambda: self.checkpoints.store(backup, vaddr, epoch, state),
            on_give_up=lambda: self.metrics.inc("checkpoints_lost"),
            kind="checkpoint")

    def flush_carried(self, thread: SimThread, node_id: int) -> None:
        """The thread landed on a live node: flush the checkpoint epochs
        it carried away from their primaries."""
        carried, thread.carried_checkpoints = \
            thread.carried_checkpoints, []
        for vaddr, epoch, state, backup, nbytes in carried:
            if node_id == backup:
                self.checkpoints.store(backup, vaddr, epoch, state)
            else:
                self._send_epoch(node_id, backup, vaddr, epoch, state,
                                 nbytes)

    # ------------------------------------------------------------------
    # Replay log and at-most-once dedup
    # ------------------------------------------------------------------

    @staticmethod
    def _anchor(thread: SimThread, node_id: int) -> int:
        # The id's caller-node component anchors to the *outermost* live
        # entry's origin, not the physical departure node: a nested
        # invocation re-issued during replay departs from the promoted
        # object's new node, and the dedup key must still match the
        # completion logged under the original id.
        return (thread.resurrect_stack[0].origin
                if thread.resurrect_stack else node_id)

    def log_departure(self, thread: SimThread, node_id: int) -> None:
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
        thread.resurrect_stack.append(ReplayEntry(
            id=(self._anchor(thread, node_id), thread.tid,
                thread.invoke_seq),
            origin=node_id,
            target=request.target.vaddr,
            request=request,
            payload=request.arg_bytes,
            depth=len(thread.stack),
            is_root=is_root,
            seq=thread.invoke_seq,
        ))

    def invocation_returned(self, thread: SimThread, value: Any,
                            exc: Optional[BaseException]) -> None:
        """An operation just finished (its frame, if it had one, is
        popped).  If that leaves the thread back at the caller frames of
        its innermost unanswered replay entry, the migrated invocation
        behind the entry is what returned: log its outcome on the target
        (at-most-once dedup — the log rides inside the object's
        snapshots) and put the write-through epoch in the thread's
        luggage."""
        if not thread.resurrect_stack:
            return
        entry = thread.resurrect_stack[-1]
        if entry.completed or len(thread.stack) > entry.depth:
            return
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
        if self.config.checkpointing \
                and self.checkpoints.eligible(obj) \
                and thread.location is not None:
            self._ship_checkpoint(obj, thread.location, carrier=thread)

    def replay_arrived(self, thread: SimThread, request) -> bool:
        """Receive-side at-most-once dedup: if this arrival's invocation
        already completed before the caller learned of it (the thread
        was resurrected mid-return), deliver the logged outcome instead
        of re-executing the side effects."""
        if not thread.resurrect_stack:
            return False
        entry = thread.resurrect_stack[-1]
        if entry.request is not request or not self._deliver_logged(
                thread, entry.target, entry.id, entry.is_root):
            return False
        entry.completed = True
        return True

    def replay_local(self, thread: SimThread, request) -> bool:
        """Local leg of at-most-once dedup.  A replayed invocation whose
        target was promoted onto the caller's own node never migrates,
        so :meth:`replay_arrived` cannot intercept it at arrival.
        Every *mutable resident* invocation therefore advances the
        sequence counter here (keeping a replay's sequence stream
        aligned with the original no matter where promotion moved the
        targets — immutable targets never advance it on either path),
        and a completion already logged under the regenerated id is
        delivered instead of re-executing the side effects."""
        thread.invoke_seq += 1
        entry_id = (self._anchor(thread, thread.location), thread.tid,
                    thread.invoke_seq)
        return self._deliver_logged(thread, request.target.vaddr,
                                    entry_id, False, " (local)")

    def _deliver_logged(self, thread: SimThread, vaddr: int,
                        entry_id: Tuple[int, int, int], is_root: bool,
                        where: str = "") -> bool:
        """If ``vaddr``'s completion log holds ``entry_id``, hand the
        thread that outcome as the invocation's return."""
        obj = self.cluster.objects.get(vaddr)
        log = getattr(obj, "_amber_completed", None)
        if not log or entry_id not in log:
            return False
        value, exc = log[entry_id]
        kernel = self.kernel
        self.metrics.inc("invocations_suppressed")
        kernel.trace("invoke-suppressed", thread.location, thread.name,
                     vaddr, f"replay of {entry_id} already applied{where}")
        if is_root:
            kernel.thread_manager.thread_exit(thread, value, exc)
        else:
            kernel.charge(
                thread, self.costs.local_return_us,
                lambda: kernel.complete_return(thread, value, exc))
        return True

    def settle(self, thread: SimThread) -> None:
        """The thread is back with its caller and the results are
        delivered: retire every answered replay entry and flush any
        checkpoint epochs still in the luggage."""
        while thread.resurrect_stack and \
                thread.resurrect_stack[-1].completed:
            thread.resurrect_stack.pop()
        if thread.carried_checkpoints and thread.location is not None:
            self.flush_carried(thread, thread.location)

    # ------------------------------------------------------------------
    # Confirmed death: promotion and resurrection
    # ------------------------------------------------------------------

    def node_confirmed_dead(self, node_id: int) -> None:
        """The detector confirmed ``node_id`` dead: promote backups of
        its resident mutable objects, then resurrect (or fail) every
        thread that was on it or stuck migrating from it."""
        kernel = self.kernel
        node = self.cluster.node(node_id)
        if not node.down or node_id in self._confirmed_dead:
            return  # restarted inside the window, or already swept
        self._confirmed_dead.add(node_id)
        promoted = 0
        for vaddr, obj in self._checkpointable(node):
            if self.config.checkpointing and \
                    self._promote_object(node, vaddr, obj):
                promoted += 1
            else:
                self._lost_objects.add(vaddr)
                self.metrics.inc("objects_lost")
                kernel.trace("object-lost", node_id, "", vaddr,
                             "no live checkpoint to promote")
        # Shed dead replica sources so immutable fetches never pick a
        # corpse (keep the last copy even if it is behind the crash).
        for obj in self.cluster.objects.values():
            replicas = getattr(obj, "_replica_nodes", None)
            if replicas and node_id in replicas and len(replicas) > 1:
                replicas.discard(node_id)
        victims = sorted(
            (thread for thread in kernel.threads if not thread.done and (
                thread.location == node_id
                or (thread.state is ThreadState.TRANSIT
                    and thread.chase is not None
                    and (thread.chase.hop == node_id
                         or thread.chase.path[-1] == node_id)))),
            key=lambda thread: thread.tid)
        for victim in victims:
            self._detach_victim(victim)
        plans = [(victim, self._usable_entry(victim))
                 for victim in victims]
        for victim, entry in plans:
            if entry is None:
                self.fail_thread(victim, node_id)
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
        dead_node.descriptors.set_forwarding(vaddr, backup_id)
        home = self.cluster.home_node(vaddr)
        if home != backup_id:
            self.cluster.node(home).descriptors.update_hint(vaddr,
                                                            backup_id)
        obj._location = backup_id
        backup.stats.objects_in += 1
        self.metrics.inc("objects_recovered")
        self.kernel.trace("promote", backup_id, "", vaddr,
                          f"epoch {epoch} promoted after node "
                          f"{dead_node.id} died")
        return True

    def _detach_victim(self, thread: SimThread) -> None:
        """Pull a victim out of every kernel structure that still
        references it, invalidating in-flight callbacks (charges, wire
        messages and timers all compare ``run_token``)."""
        if thread.location is not None:
            node = self.cluster.nodes[thread.location]
            if thread.state is ThreadState.READY:
                node.scheduler.remove(thread)
            if thread.cpu is not None:
                cpu = node.cpus[thread.cpu]
                if cpu.thread is thread:
                    if cpu.run_event is not None:
                        self.sim.cancel(cpu.run_event)
                    cpu.thread = None
                    cpu.run_event = None
                thread.cpu = None
        thread.run_token += 1
        thread.state = ThreadState.TRANSIT
        for other in self.kernel.threads:
            if thread in other.joiners:
                other.joiners.remove(thread)
        thread.send_value = None
        thread.send_exc = None
        thread.surcharge_us = 0.0
        thread.pending_compute_us = 0.0
        thread.slice_left_us = 0.0
        thread.wakeup_pending = False
        thread.pending_invoke_metric = None
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
        thread.transit_start_us = self.sim.now_us
        thread.location = None
        self.metrics.inc("invocations_replayed")
        self.kernel.trace("invocation-replay", entry.origin, thread.name,
                          entry.target,
                          f"replaying {entry.id} after node {dead_id} died")
        origin = self.cluster.node(entry.origin)
        try:
            next_node = origin.descriptors.next_hop(entry.target,
                                                    self.cluster.home_node)
        except ObjectNotFoundError:
            self.fail_thread(thread, dead_id)
            return
        self.kernel.mobility.send_thread(thread, entry.origin, next_node,
                                         entry.target, entry.payload)

    def fail_thread(self, thread: SimThread, dead_id: int) -> None:
        """No recoverable invocation: terminate the thread with a typed
        NodeFailure instead of letting it hang, delivering the failure
        to every joiner."""
        failure = NodeFailure(
            f"thread {thread.name} lost with node {dead_id}: no "
            f"checkpointed state to replay its work against")
        self._detach_victim(thread)
        thread.state = ThreadState.DONE
        thread.result = None
        thread.exception = failure
        thread.location = dead_id
        thread.stack = []
        thread.resurrect_stack = []
        thread.chase = None
        thread.on_arrival = None
        self.metrics.inc("threads_lost")
        self.kernel.trace(
            "thread-failed", dead_id, thread.name,
            detail="unrecoverable: NodeFailure raised to joiners")
        self.kernel.thread_manager.release_joiners(thread)
