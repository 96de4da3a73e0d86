"""The simulated Amber kernel core: CPUs, the trampoline, invocation.

This module implements the paper's runtime semantics on the discrete-event
substrate.  Each other mechanism has an owner whose request rows sit in the
kernel's one handler table: threads in :mod:`repro.sim.thread`, objects in
:mod:`repro.sim.objects`, location and mobility in :mod:`repro.sim.mobility`;
crash recovery lives in :mod:`repro.recovery.manager` (attached only when
configured).

* **Invocation path** (sections 3.2, 3.4): every invocation charges the
  entry cost (frame push + residency check).  A resident target runs
  locally; a non-resident one traps, and the *thread migrates* to the
  object — marshal on the source CPU, wire time on the shared Ethernet,
  unmarshal + dispatch on the destination CPU.  Returns mirror this with a
  return-time check against the caller's object.
* **CPUs**: dispatch, timeslicing, the preemption the move protocol and
  node crashes rely on, and the context-switch-time residency check of
  section 3.5.

Timing discipline: a request's simulated cost elapses *before* its state
effects, so cross-CPU interleavings (e.g. two threads racing on a lock) are
resolved in simulated-time order deterministically.  Every step is charged
in one place, :meth:`AmberKernel.charge`; the public methods are the whole
interface the other modules use (DESIGN.md, "Simulator kernel
structure").
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, List, Optional

from repro.analyze import runtime as _analysis
from repro.core.invocation import operation_of
from repro.errors import AmberError, InvocationError, ObjectNotFoundError
from repro.obs.metrics import Held
from repro.sim import syscalls as sc
from repro.sim import engine as _engine
from repro.sim.cluster import SimCluster
from repro.sim.engine import NS_PER_US
from repro.sim.mobility import Mobility
from repro.sim.node import Cpu, SimNode
from repro.sim.objects import ObjectManager, SimObject
from repro.sim.thread import (
    READY, RUNNING, Activation, SimThread, ThreadManager)


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
        return self._kernel.sim.now_ns / NS_PER_US

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
        #: Histograms fed once per invocation are held (bound on first
        #: use); rarer emitters go through the registry.
        self._hists = Held(cluster.metrics.histogram)
        #: Every thread ever created, in creation (tid) order.
        self.threads: List[SimThread] = []
        cluster.kernel = self
        #: Thread creation to exit: NewThread, Start, Fork, Join, ...
        self.thread_manager = ThreadManager(self)
        #: New, Delete, Attach, Unattach, SetImmutable.
        self.object_manager = ObjectManager(self)
        #: Locating, thread migration and the move protocol.
        self.mobility = Mobility(self)
        #: Request type -> bound handler, from each owner's rows.
        self._handlers = {
            kind: handler.__get__(owner)
            for owner in (self, self.thread_manager, self.object_manager,
                          self.mobility)
            for kind, handler in owner.HANDLERS.items()}
        #: Crash recovery (repro.recovery.manager), constructed — and
        #: imported — only when the cluster carries a RecoveryConfig;
        #: ``None`` otherwise, which every seam tests inline.
        self.recovery = None
        if cluster.recovery is not None and len(cluster.nodes) > 1:
            from repro.recovery.manager import RecoveryManager
            self.recovery = RecoveryManager(self, cluster.recovery)
        if cluster.faults is not None:
            self._schedule_fault_events(cluster.faults)

    def trace(self, kind: str, node: int, thread: str = "",
              vaddr=None, detail: str = "",
              dur_us: float = 0.0) -> None:
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.emit(self.sim.now_us, kind, node, thread, vaddr, detail,
                        dur_us)

    # ------------------------------------------------------------------
    # Fault injection: node crash and restart
    # ------------------------------------------------------------------

    def _schedule_fault_events(self, plan) -> None:
        for crash in plan.crashes:
            self.cluster.node(crash.node)  # validates the node id
            self.sim.schedule_us(crash.at_us,
                                 partial(self._crash_node, crash.node))
            if crash.restart_us is not None:
                self.sim.schedule_us(crash.restart_us,
                                     partial(self._restart_node, crash.node))

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
        rec = self.recovery
        if rec is not None:
            rec.node_crashed(node_id)
        self.metrics.inc("crashes")
        self.trace("crash", node_id)
        for cpu in node.cpus:
            self.preempt_cpu(node, cpu)

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
        rec = self.recovery
        if rec is not None:
            rec.node_restarted(node_id)
        stale = [vaddr for vaddr, where in node.descriptors.where.items()
                 if where != node_id
                 and self.cluster.home_node(vaddr) != node_id]
        for vaddr in stale:
            node.descriptors.clear(vaddr)
        self.metrics.inc("recoveries")
        if stale:
            self.metrics.inc("hints_repaired", len(stale))
        self.trace("restart", node_id, detail=f"{len(stale)} hints shed")
        self.try_dispatch(node)

    # ------------------------------------------------------------------
    # CPUs: ready queues, dispatch, switch-in
    # ------------------------------------------------------------------

    def ready(self, thread: SimThread, node_id: int,
              surcharge_us: float) -> None:
        """Queue ``thread`` as runnable on ``node_id``."""
        thread.state = READY
        thread.location = node_id
        thread.cpu = None
        thread.surcharge_us += surcharge_us
        node = self.cluster.nodes[node_id]
        tracer = self.cluster.tracer
        if tracer is not None:
            self.trace("ready", node_id, thread.name)
        node.scheduler.enqueue(thread)
        self.try_dispatch(node)

    def try_dispatch(self, node: SimNode) -> None:
        """Give each idle CPU of ``node`` the next ready thread, in one
        pass over the CPUs (installing a thread never frees a CPU)."""
        if node.down:
            return
        scheduler = node.scheduler
        for cpu in node.cpus:
            if cpu.thread is None:
                thread = scheduler.dequeue()
                if thread is None:
                    return
                self._install_on_cpu(node, cpu, thread)

    def _install_on_cpu(self, node: SimNode, cpu: Cpu,
                        thread: SimThread) -> None:
        if self.cluster.tracer is not None:
            self.trace("run", node.id, thread.name)
        thread.state = RUNNING
        thread.cpu = cpu.index
        thread.location = node.id
        thread.slice_left_us = self.costs.timeslice_us
        cpu.thread = thread
        surcharge = thread.surcharge_us
        thread.surcharge_us = 0.0
        self.charge(thread, surcharge, partial(self._after_switch_in, thread))

    def release_cpu(self, thread: SimThread) -> None:
        """Take ``thread`` off its CPU and hand the CPU to the scheduler."""
        node = self.cluster.nodes[thread.location]
        cpu = node.cpus[thread.cpu]
        cpu.thread = None
        cpu.run_event = None
        thread.cpu = None
        self.try_dispatch(node)

    def _after_switch_in(self, thread: SimThread) -> None:
        """Runs whenever a thread (re)gains a CPU: consume any arrival
        action, then make the context-switch-time residency check of
        section 3.5 before letting user code continue."""
        node = self.cluster.nodes[thread.location]
        action = thread.on_arrival
        if action is not None and action[0] == "invoke":
            _, request, is_root = action
            vaddr = request.target._vaddr
            if node.descriptors.where.get(vaddr) == node.id:
                thread.on_arrival = None
                rec = self.recovery
                if rec is not None and \
                        rec.replay_arrived(thread, request):
                    return
                self._push_and_run(thread, request, is_root)
            else:
                self.mobility.migrate(thread, vaddr,
                                      payload=request.arg_bytes)
            return
        # A result to deliver, or a plain resume: residency check against
        # the current frame's object first.
        if thread.stack:
            vaddr = thread.stack[-1].obj._vaddr
            if node.descriptors.where.get(vaddr) != node.id:
                self.mobility.migrate(thread, vaddr)
                return
        if action is not None:
            _, value, exc = action
            thread.on_arrival = None
            self._resume_caller(thread, value, exc)
        elif thread.pending_compute_us > 0:
            self._run_pending_compute(thread)
        else:
            self.advance(thread)

    # ------------------------------------------------------------------
    # CPU charging
    # ------------------------------------------------------------------

    def charge(self, thread: SimThread, us: float, then,
               preemptible: bool = False) -> None:
        """Consume ``us`` of CPU on the thread's current CPU, then continue
        with ``then``.  The thread must be RUNNING, and its CPU must have
        no charge in flight.

        The hottest scheduling site of a run pushes its own engine entry,
        as ``Simulator.schedule_at_ns`` would less the past-time check (a
        charge never lies in the past), through the engine module's
        ``heappush``: the self-profiler swaps that name to time every
        push."""
        # Direct indexing, not cluster.node(): thread.location is
        # kernel-maintained (only ever a validated node id), and this
        # runs once per charge — the single hottest lookup in a run.
        sim = self.sim
        cpu = self.cluster.nodes[thread.location].cpus[thread.cpu]
        if cpu.run_event is not None:
            # A kernel bug, not a program error: never an AmberError,
            # so _handle_request cannot deliver it into the program.
            raise RuntimeError(
                f"charge on node {thread.location} cpu {cpu.index} for "
                f"{thread.name} while a charge is still in flight there")
        now_ns = sim.now_ns
        cpu.charge_started_ns = now_ns
        cpu.charge_us = us
        cpu.charge_preemptible = preemptible
        cpu.then = then
        seq = sim.seq
        sim.seq = seq + 1
        entry = cpu.run_event = [now_ns + round(us * NS_PER_US), seq,
                                 partial(cpu.fire, thread, thread.run_token)]
        _engine.heappush(sim.queue, entry)

    def _run_pending_compute(self, thread: SimThread) -> None:
        """Run (part of) an outstanding Compute, honoring the timeslice."""
        run = min(thread.pending_compute_us, thread.slice_left_us)
        self.charge(thread, run, partial(self._compute_done, thread, run),
                    preemptible=True)

    def _compute_done(self, thread: SimThread, run: float) -> None:
        """A slice of ``run`` us of a Compute has elapsed."""
        if self.cluster.tracer is not None:
            # Duration event: timestamped at completion; the exporter
            # backdates the slice start by ``dur_us``.
            self.trace("compute", thread.location, thread.name, dur_us=run)
        thread.pending_compute_us -= run
        thread.slice_left_us -= run
        if thread.pending_compute_us <= 1e-12:
            thread.pending_compute_us = 0.0
            if self._controller_preempts(thread):
                return
            self.advance(thread)
            return
        node = self.cluster.nodes[thread.location]
        if len(node.scheduler) == 0:
            # Nobody waiting: take a fresh quantum and keep going.
            thread.slice_left_us = self.costs.timeslice_us
            self._run_pending_compute(thread)
        else:
            self._preempt_for_quantum(thread, self.costs.context_switch_us)

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
        self._preempt_for_quantum(thread, self.costs.context_switch_us)
        return True

    def _preempt_for_quantum(self, thread: SimThread,
                             switch_us: float) -> None:
        """Requeue ``thread`` behind the node's waiting threads; the
        switch cost is paid when it next runs (a Yield already paid)."""
        node = self.cluster.nodes[thread.location]
        node.stats.context_switches += 1
        thread.run_token += 1
        self.release_cpu(thread)
        self.ready(thread, node.id, switch_us)

    def preempt_cpu(self, node: SimNode, cpu: Cpu) -> None:
        """Move-protocol preemption of one running CPU (section 3.5): only
        a preemptible (user-compute) charge is actually interrupted; kernel
        protocol steps run to completion."""
        thread = cpu.thread
        if thread is None or not cpu.charge_preemptible:
            return
        if cpu.run_event is not None:
            self.sim.cancel(cpu.run_event)
        elapsed_us = (self.sim.now_ns - cpu.charge_started_ns) / 1000
        node.stats.cpu_busy_us += elapsed_us
        thread.pending_compute_us = max(
            0.0, thread.pending_compute_us - elapsed_us)
        thread.run_token += 1
        node.stats.context_switches += 1
        if elapsed_us > 0:
            self.trace("compute", node.id, thread.name,
                       dur_us=elapsed_us)
        self.trace("preempt", node.id, thread.name)
        cpu.thread = None
        cpu.run_event = cpu.then = None
        thread.cpu = None
        self.ready(thread, node.id,
                   self.costs.context_switch_us
                   + self.costs.residency_check_us)

    # ------------------------------------------------------------------
    # Generator advancement and request dispatch
    # ------------------------------------------------------------------

    def advance(self, thread: SimThread) -> None:
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
            value, exc = stop.value, None
        except Exception as error:  # user code bug: propagate to caller
            value, exc = None, error
        else:
            self._handle_request(thread, request)
            return
        frame = thread.stack.pop()
        self._handle_return(thread, value, exc, frame.start_us,
                            frame.remote, frame.root, frame.result_bytes)

    def _handle_request(self, thread: SimThread, request: Any) -> None:
        try:
            handler = self._handlers.get(type(request))
            if handler is None:
                raise InvocationError(
                    f"operation yielded a non-request value: {request!r}")
            handler(thread, request)
        except AmberError as error:
            # Deliver kernel-detected errors into the user generator so
            # programs can catch them.
            thread.send_exc = error
            self.sim.call_now(partial(self.advance, thread))

    # --- Compute / Charge / Yield / GetStats ------------------------------

    def _handle_compute(self, thread: SimThread, request: sc.Compute) -> None:
        if not 0 <= request.us < math.inf:
            raise InvocationError(
                f"compute time must be finite and non-negative: "
                f"{request.us}")
        thread.pending_compute_us += float(request.us)
        self._run_pending_compute(thread)

    def _handle_charge(self, thread: SimThread, request: sc.Charge) -> None:
        if not 0 <= request.us < math.inf:
            raise InvocationError(
                f"charge must be finite and non-negative: {request.us}")
        self.charge(thread, float(request.us), partial(self.advance, thread))

    def _handle_yield(self, thread: SimThread, request: sc.Yield) -> None:
        self.charge(thread, self.costs.context_switch_us,
                    partial(self._yielded, thread))

    def _yielded(self, thread: SimThread) -> None:
        if len(self.cluster.nodes[thread.location].scheduler) == 0:
            thread.slice_left_us = self.costs.timeslice_us
            self.advance(thread)
        else:
            self._preempt_for_quantum(thread, 0.0)

    def _handle_get_stats(self, thread: SimThread,
                          request: sc.GetStats) -> None:
        thread.send_value = self.cluster.stats
        self.sim.call_now(partial(self.advance, thread))

    # --- Invocation ------------------------------------------------------

    def _handle_invoke(self, thread: SimThread, request: sc.Invoke) -> None:
        self.validate_target(request.target)
        thread.invoke_t0 = self.sim.now_ns / NS_PER_US
        thread.invoke_remote = False
        self.charge(thread, self.costs.local_invoke_us,
                    partial(self._invoke_entry, thread, request))

    def _invoke_entry(self, thread: SimThread, request: sc.Invoke) -> None:
        node = self.cluster.nodes[thread.location]
        vaddr = request.target._vaddr
        log = self.cluster.access_log.setdefault(vaddr, {})
        log[node.id] = log.get(node.id, 0) + 1
        if node.descriptors.where.get(vaddr) == node.id:
            node.stats.local_invocations += 1
            rec = self.recovery
            if rec is not None and not request.target.immutable \
                    and rec.replay_local(thread, request):
                return
            if self.cluster.tracer is not None:
                self.trace("invoke-local", node.id, thread.name, vaddr,
                           request.method)
            self._push_and_run(thread, request, False)
        elif request.target.immutable:
            self.mobility.fetch_replica(
                thread, request.target,
                partial(self._push_and_run, thread, request, False))
        else:
            node.stats.remote_invocations += 1
            thread.invoke_remote = True
            if self.cluster.tracer is not None:
                self.trace("invoke-remote", node.id, thread.name, vaddr,
                           request.method)
            self.mobility.migrate(thread, vaddr, payload=request.arg_bytes,
                                  on_arrival=("invoke", request, False))

    def _handle_fast_invoke(self, thread: SimThread,
                            request: sc.FastInvoke) -> None:
        """Section 3.6: a call that assumes co-residency.  The kernel
        charges only the inline-call cost, but verifies the assumption:
        the target must be in the invoking object's attachment group (or
        be the object itself)."""
        self.validate_target(request.target)
        if not thread.stack:
            raise InvocationError(
                "FastInvoke requires an enclosing operation")
        current = thread.stack[-1].obj
        target = request.target
        attachments = self.cluster.attachments
        if target._vaddr != current._vaddr \
                and not attachments.directly_attached(current._vaddr,
                                                      target._vaddr) \
                and target._vaddr not in attachments.group(current._vaddr):
            raise InvocationError(
                f"FastInvoke on {target!r}: co-residency with "
                f"{current!r} is not guaranteed (attach them first)")
        thread.invoke_t0 = self.sim.now_ns / NS_PER_US
        thread.invoke_remote = False
        self.charge(thread, self.costs.inline_call_us,
                    partial(self._fast_invoke_entry, thread, request))

    def _fast_invoke_entry(self, thread: SimThread,
                           request: sc.FastInvoke) -> None:
        self.cluster.nodes[thread.location].stats.local_invocations += 1
        self._push_and_run(thread, request, False)

    def _push_and_run(self, thread: SimThread, request,
                      is_root: bool) -> None:
        """Call ``request.method`` on ``request.target`` with the
        request's own ``args`` / ``kwargs`` (an :class:`~sc.Invoke` or a
        :class:`~sc.FastInvoke`: every keyword reaches the operation)."""
        target = request.target
        context = InvocationContext(self, thread)
        san = _analysis.ACTIVE
        try:
            fn = operation_of(target, request.method)
            # Atomic bodies (and generator construction) run as one
            # sanitizer step on the target object.
            if san is not None:
                san.step_begin(thread, target, request.method)
            try:
                result = fn(context, *request.args, **request.kwargs)
            finally:
                if san is not None:
                    san.step_end(thread, target)
        except Exception as error:
            result, exc = None, error
        else:
            if hasattr(result, "send") and hasattr(result, "throw"):
                activation = Activation(target, request.method, result)
                activation.result_bytes = request.result_bytes
                activation.start_us = thread.invoke_t0
                activation.remote = thread.invoke_remote
                activation.root = is_root
                thread.stack.append(activation)
                thread.send_value = None
                self.advance(thread)
                return
            exc = None      # an atomic operation: completed instantly
        self._handle_return(thread, result, exc, thread.invoke_t0,
                            thread.invoke_remote, is_root,
                            request.result_bytes)

    def _handle_return(self, thread: SimThread, value: Any,
                       exc: Optional[BaseException], start_us: float,
                       remote: bool, root: bool, result_bytes: int) -> None:
        """An operation finished, normally or exceptionally, and its
        frame (if it had one) is off the stack: the one way back to the
        caller, for generator and atomic operations alike."""
        if not root:
            # Observed once the value is delivered to the caller, so
            # remote latencies include the migration back.
            thread.pending_invoke_metric = (
                "invoke_remote_us" if remote else "invoke_local_us",
                start_us)
        rec = self.recovery
        if rec is not None:
            rec.invocation_returned(thread, value, exc)
        if root:
            # A thread body: there is no caller frame to return into.
            self.thread_manager.thread_exit(thread, value, exc)
            return
        # The return pays the return-check cost.
        self.charge(thread, self.costs.local_return_us,
                    partial(self.complete_return, thread, value, exc,
                            result_bytes))

    def complete_return(self, thread: SimThread, value: Any,
                        exc: Optional[BaseException],
                        result_bytes: int = 0) -> None:
        """Return-time residency check: the frame has been popped; make
        sure we are where the caller's object lives before continuing."""
        node = self.cluster.nodes[thread.location]
        vaddr = thread.stack[-1].obj._vaddr
        if node.descriptors.where.get(vaddr) == node.id:
            self._resume_caller(thread, value, exc)
        else:
            self.mobility.migrate(thread, vaddr,
                                  payload=result_bytes,
                                  on_arrival=("deliver", value, exc))

    def _resume_caller(self, thread: SimThread, value: Any,
                       exc: Optional[BaseException]) -> None:
        """The thread is back where its caller's object lives: record the
        invocation's end-to-end latency (after any return-time
        migration) and deliver the outcome."""
        pending = thread.pending_invoke_metric
        if pending is not None:
            thread.pending_invoke_metric = None
            name, start_us = pending
            self._hists[name].observe(self.sim.now_ns / NS_PER_US
                                      - start_us)
        rec = self.recovery
        if rec is not None:
            rec.settle(thread)
        thread.send_value = value
        thread.send_exc = exc
        self.advance(thread)

    def validate_target(self, target: Any) -> None:
        if not isinstance(target, SimObject):
            raise InvocationError(
                f"invocation target {target!r} is not an Amber object")
        if getattr(target, "_location", None) is None and \
                target._vaddr not in self.cluster.objects:
            raise ObjectNotFoundError(f"{target!r} has been deleted")

    #: The core's request rows.
    HANDLERS = {
        sc.Compute: _handle_compute,
        sc.Charge: _handle_charge,
        sc.Yield: _handle_yield,
        sc.GetStats: _handle_get_stats,
        sc.Invoke: _handle_invoke,
        sc.FastInvoke: _handle_fast_invoke,
    }
