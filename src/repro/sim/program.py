"""Program harness: run a main operation on a simulated cluster.

Usage::

    from repro.sim import AmberProgram, ClusterConfig, New, Invoke, MoveTo

    def main(ctx):
        counter = yield New(Counter)
        yield MoveTo(counter, 1)
        total = yield Invoke(counter, "add", 5)
        return total

    result = AmberProgram(ClusterConfig(nodes=2, cpus_per_node=4)).run(main)
    print(result.value, result.elapsed_us, result.stats.as_dict())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.analyze import runtime as _analysis
from repro.core.costs import CostModel
from repro.perf import hotprof as _hotprof
from repro.errors import DeadlockError
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.kernel import AmberKernel
from repro.sim.objects import SimObject
from repro.sim.stats import ClusterStats
from repro.sim.thread import SimThread, ThreadState


class _MainObject(SimObject):
    """The object the program's main thread is bound to.  It anchors the
    main thread to its starting node exactly as a real Amber main object
    would: remote invocations return the thread here."""

    SIZE_BYTES = 256

    def __init__(self, fn, args):
        self._fn = fn
        self._args = args

    def run(self, ctx):
        result = self._fn(ctx, *self._args)
        if hasattr(result, "send") and hasattr(result, "throw"):
            result = yield from result
        return result


@dataclass
class ProgramResult:
    """Outcome of a simulated run."""

    value: Any
    #: Simulated time at which the final event completed, microseconds.
    elapsed_us: float
    stats: ClusterStats
    cluster: SimCluster
    #: Threads that never terminated (blocked forever after main exited).
    stranded: List[SimThread]

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6

    @property
    def metrics(self):
        """The run's :class:`repro.obs.metrics.MetricsRegistry`
        (latency histograms, lock wait/hold, network queueing)."""
        return self.cluster.metrics


class AmberProgram:
    """Builds a cluster and runs one program on it to completion."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 costs: Optional[CostModel] = None,
                 faults=None, recovery=None):
        self.config = config or ClusterConfig()
        self.costs = costs
        #: Optional repro.faults.plan.FaultPlan applied to the run.
        self.faults = faults
        #: Optional repro.recovery.config.RecoveryConfig enabling crash
        #: detection, checkpoint/promotion, and thread resurrection.
        self.recovery = recovery

    def run(self, main_fn, *args, main_node: int = 0,
            until_us: Optional[float] = None,
            tracer=None) -> ProgramResult:
        """Run ``main_fn(ctx, *args)`` as the main thread on ``main_node``.

        ``tracer`` (a :class:`repro.sim.trace.Tracer`) receives kernel
        events.  Inside a :func:`repro.analyze.runtime.sanitize_runs`
        block AmberSan observes the run, purely passively; its findings
        are ``result.cluster.sanitizer.report()``.  Raises the main
        thread's exception if it failed, and :class:`DeadlockError` if
        the simulation ran out of events with the main thread still
        alive.
        """
        cluster = SimCluster(self.config, self.costs, self.faults,
                             recovery=self.recovery)
        cluster.tracer = tracer
        cluster.network.tracer = tracer
        controller = _analysis.CONTROLLER
        if controller is not None:
            # AmberCheck drives this run: every node's ready queue
            # becomes a ControlledScheduler so dispatch picks are
            # recorded (and forceable) choice points.
            from repro.sim.scheduler import ControlledScheduler
            for node in cluster.nodes:
                node.set_scheduler(ControlledScheduler(controller,
                                                       node.id))
        kernel = AmberKernel(cluster)
        main_obj = kernel.object_manager.create_object(
            _MainObject, (main_fn, args), {}, main_node, None)
        main_thread = kernel.thread_manager.start_main(
            main_obj, "run", (), main_node)
        sanitizer = _analysis.sanitizer_for_run()
        if sanitizer is not None:
            sanitizer.bind(cluster)
            _analysis.ACTIVE = sanitizer
        # Hot-loop self-profiler (repro run --hotloop): attached after
        # the sanitizer so its hook proxy wraps the active sanitizer,
        # detached before deactivation so the original is restored.
        profiler = _hotprof.current()
        if profiler is not None:
            profiler.attach(cluster)
        try:
            cluster.sim.run(until_us)
        finally:
            if profiler is not None:
                profiler.detach()
            if sanitizer is not None:
                _analysis.ACTIVE = None
                sanitizer.unbind()
        if main_thread.state is not ThreadState.DONE:
            raise DeadlockError(_describe_stall(kernel, main_thread))
        if main_thread.exception is not None:
            raise main_thread.exception
        stranded = [thread for thread in kernel.threads
                    if thread.state is not ThreadState.DONE]
        return ProgramResult(main_thread.result, cluster.sim.now_us,
                             cluster.stats, cluster, stranded)


def run_program(main_fn, *args, nodes: int = 1, cpus_per_node: int = 4,
                costs: Optional[CostModel] = None,
                faults=None, recovery=None) -> ProgramResult:
    """One-call convenience wrapper around :class:`AmberProgram`."""
    config = ClusterConfig(nodes=nodes, cpus_per_node=cpus_per_node)
    return AmberProgram(config, costs, faults,
                        recovery=recovery).run(main_fn, *args)


def _describe_stall(kernel: AmberKernel, main_thread: SimThread) -> str:
    from repro.analyze.lockorder import describe_wait_cycles

    lines = ["simulation stalled before the main thread finished:"]
    for thread in kernel.threads:
        if thread.state is ThreadState.DONE:
            continue
        frame = (f"{type(thread.stack[-1].obj).__name__}."
                 f"{thread.stack[-1].method}" if thread.stack else "-")
        lines.append(f"  {thread.name}: {thread.state.value} "
                     f"@node {thread.location}, in {frame}")
    cycle = describe_wait_cycles(kernel)
    if cycle:
        lines.extend(f"  {line}" for line in cycle)
    elif main_thread.state is ThreadState.BLOCKED:
        lines.append("  (likely deadlock: every runnable thread is "
                     "waiting, but no lock/join wait-for cycle was "
                     "found — suspect a lost wakeup)")
    return "\n".join(lines)
