"""Hot-loop self-profiler: where does a simulated run's *host* time go?

The simulator's wall-clock cost is now the binding constraint on
AmberCheck exploration and the fault matrices, and five PRs of machinery
(tracer, sanitizer, fault injector, schedule controller) all hang hooks
on the kernel's dispatch path.  This module answers, with cheap
``perf_counter`` sampling around the *existing* hook points, the
question the simulated-time profiler (:mod:`repro.obs.profile`) cannot:
how much real time the event heap, the generator-trampoline dispatch,
and each attached subsystem's hooks cost.

Design constraints:

* **Zero cost when detached.**  The engine's fast loop
  (:meth:`repro.sim.engine.Simulator.run`) and its event push carry no
  timing code; only an attached profiler switches the loop to the
  instrumented one, swaps a timed ``heappush`` into
  :mod:`repro.sim.engine`, and wraps the subsystem hooks.
* **No per-subsystem instrumentation code.**  Attached subsystems are
  wrapped in a :class:`_TimedProxy` that times every method call, so the
  tracer/sanitizer/injector/controller themselves stay byte-identical —
  the same objects the production run uses are what get measured.
* **Import-light.**  :mod:`repro.sim.program` imports this module on its
  hot path, so it must import nothing outside the standard library.

Phases reported (seconds of host time):

``heap-pop`` / ``heap-push``
    Event-queue maintenance in the engine loop (including skipping
    cancelled events) and event insertion from anywhere.
``dispatch``
    Running event callbacks — kernel protocol steps plus user operation
    code — *exclusive* of the nested heap pushes and hook calls below.
``hook:tracer`` / ``hook:sanitizer`` / ``hook:injector`` /
``hook:controller``
    Time inside the attached subsystem's methods, per subsystem.
``loop``
    Loop-control residual (everything the named phases did not cover).

Inside ``dispatch`` each event's time is also booked under the step it
ran (:meth:`HotLoopProfiler.step_name`: ``AmberKernel._after_switch_in``,
``Mobility._arrived``, ...; a charge under the continuation its
``Cpu.fire`` runs, a network delivery under what it delivers),
inclusive of what that step nests.  Naming the step is timed with it,
so ``dispatch`` includes that lookup, a few hundred nanoseconds an
event.

Use :func:`profile_runs` around any code that runs simulated programs::

    with profile_runs() as profiler:
        run_amber_sor(problem, nodes=2, cpus_per_node=2)
    print(render_hotloop(profiler))
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Hook phases, in reporting order.
HOOK_NAMES = ("tracer", "sanitizer", "injector", "controller")

#: Profiler handed to every AmberProgram run started while a
#: :func:`profile_runs` block is open (mirrors the sanitizer's
#: auto-activation in repro.analyze.runtime).
_CURRENT: Optional["HotLoopProfiler"] = None


def current() -> Optional["HotLoopProfiler"]:
    """The profiler to attach to the next simulated run, if any."""
    return _CURRENT


class _TimedProxy:
    """Wraps an attached subsystem; every method call is timed into one
    accumulator.  Non-callable attributes pass straight through, so the
    wrapped object is a drop-in stand-in at its hook site."""

    def __init__(self, target: Any, acc: List[float]):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_acc", acc)
        object.__setattr__(self, "_cache", {})

    def __getattr__(self, name: str) -> Any:
        cache = object.__getattribute__(self, "_cache")
        wrapper = cache.get(name)
        if wrapper is not None:
            return wrapper
        attr = getattr(object.__getattribute__(self, "_target"), name)
        if not callable(attr):
            return attr
        acc = object.__getattribute__(self, "_acc")

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                acc[0] += perf_counter() - t0

        cache[name] = timed
        return timed


class HotLoopProfiler:
    """Accumulates host-time phase attribution across one or more
    simulated runs (attach/detach once per run; totals accumulate)."""

    def __init__(self, sample_every: int = 4096):
        #: Engine-loop phases (written directly by the profiled loop).
        self.heap_pop_s = 0.0
        self.heap_push_s = 0.0
        self.dispatch_s = 0.0
        #: Dispatch seconds by step name; sums to ``dispatch_s``.
        self.dispatch_steps: Dict[str, float] = {}
        self.heap_pushes = 0
        self.events = 0
        #: Wall time between attach and detach, summed over runs.
        self.total_s = 0.0
        self.runs = 0
        #: Subsystems seen attached on at least one run.
        self.attached: List[str] = []
        #: Snapshot period for the Perfetto track, in events.
        self.sample_every = max(1, sample_every)
        #: Cumulative snapshots: (host_us_since_attach, events, phases).
        self.samples: List[Tuple[float, int, Dict[str, float]]] = []
        self._hook_acc: Dict[str, List[float]] = {
            name: [0.0] for name in HOOK_NAMES}
        self._attach_state: Optional[dict] = None
        self._t0 = 0.0
        self._sample_base_us = 0.0

    # -- phase views ----------------------------------------------------

    @property
    def hook_s(self) -> Dict[str, float]:
        return {name: acc[0] for name, acc in self._hook_acc.items()}

    def phases(self) -> Dict[str, float]:
        """Named-phase seconds.  ``dispatch`` is exclusive: nested heap
        pushes and hook calls are subtracted (clamped at zero — a hook
        that itself schedules events double-books a few nanoseconds)."""
        hooks = self.hook_s
        nested = self.heap_push_s + sum(hooks.values())
        out = {
            "heap-pop": self.heap_pop_s,
            "heap-push": self.heap_push_s,
            "dispatch": max(0.0, self.dispatch_s - nested),
        }
        for name in HOOK_NAMES:
            out[f"hook:{name}"] = hooks[name]
        out["loop"] = max(
            0.0, self.total_s - self.heap_pop_s - self.dispatch_s)
        return out

    @staticmethod
    def step_name(fn: Callable[[], None]) -> str:
        """The step an event runs: the qualified name of its callable (a
        ``functools.partial``'s ``func``).  The two steps that only pass
        control on are looked through: a charge (``Cpu.fire``) is named
        by the continuation it fires, a counted network delivery
        (``Ethernet._landed``) by the delivery it wraps."""
        func = getattr(fn, "func", fn)
        name = getattr(func, "__qualname__", None) \
            or type(func).__qualname__
        if name == "Cpu.fire":
            then = func.__self__.then
            if then is not None:
                return HotLoopProfiler.step_name(then)
        elif name == "Ethernet._landed":
            return HotLoopProfiler.step_name(fn.args[0])
        return name

    def top_steps(self, count: Optional[int] = 10
                  ) -> List[Tuple[str, float]]:
        """The ``count`` dispatch steps that took the most seconds (all
        of them for ``None``), most first."""
        return sorted(self.dispatch_steps.items(),
                      key=lambda item: (-item[1], item[0]))[:count]

    @property
    def attributed_fraction(self) -> float:
        """Fraction of the run's wall time landing in a *named* phase
        (everything except the ``loop`` residual)."""
        if self.total_s <= 0:
            return 0.0
        return min(1.0, (self.heap_pop_s + self.dispatch_s)
                   / self.total_s)

    # -- attach / detach ------------------------------------------------

    def attach(self, cluster: Any) -> None:
        """Instrument ``cluster`` for one run: switch its engine to the
        profiled loop, time its heap pushes, and wrap whatever
        subsystems are attached."""
        if self._attach_state is not None:
            raise RuntimeError("profiler is already attached")
        from repro.analyze import runtime as _analysis
        from repro.sim import engine as _engine

        state: dict = {"cluster": cluster}
        sim = cluster.sim
        state["sim"] = sim
        sim.profiler = self

        tracer = getattr(cluster, "tracer", None)
        if tracer is not None:
            proxy = _TimedProxy(tracer, self._hook_acc["tracer"])
            state["tracer"] = tracer
            cluster.tracer = proxy
            if getattr(cluster.network, "tracer", None) is tracer:
                cluster.network.tracer = proxy
                state["net_tracer"] = True
            self._note("tracer")

        sanitizer = _analysis.ACTIVE
        if sanitizer is not None:
            state["sanitizer"] = sanitizer
            _analysis.ACTIVE = _TimedProxy(
                sanitizer, self._hook_acc["sanitizer"])
            self._note("sanitizer")

        injector = getattr(cluster.network, "faults", None)
        if injector is not None:
            state["injector"] = injector
            cluster.network.faults = _TimedProxy(
                injector, self._hook_acc["injector"])
            self._note("injector")

        controller = _analysis.CONTROLLER
        if controller is not None:
            state["controller"] = controller
            _analysis.CONTROLLER = _TimedProxy(
                controller, self._hook_acc["controller"])
            self._note("controller")

        # Heap pushes happen inside dispatch, from anywhere in the
        # kernel; they are timed by swapping the engine's heappush, so
        # the push path of an unprofiled run names no profiler.
        push = state["heappush"] = _engine.heappush

        def timed_push(heap: list, item: Any) -> None:
            t0 = perf_counter()
            push(heap, item)
            self.heap_push_s += perf_counter() - t0
            self.heap_pushes += 1

        _engine.heappush = timed_push
        self._attach_state = state
        self._sample_base_us = self.total_s * 1e6
        self._t0 = perf_counter()

    def detach(self) -> None:
        """Undo :meth:`attach` and fold the run's wall time into the
        totals."""
        state = self._attach_state
        if state is None:
            return
        self.total_s += perf_counter() - self._t0
        self.runs += 1
        self._attach_state = None
        from repro.analyze import runtime as _analysis
        from repro.sim import engine as _engine

        _engine.heappush = state["heappush"]
        cluster = state["cluster"]
        state["sim"].profiler = None
        if "tracer" in state:
            cluster.tracer = state["tracer"]
            if state.get("net_tracer"):
                cluster.network.tracer = state["tracer"]
        if "sanitizer" in state:
            _analysis.ACTIVE = state["sanitizer"]
        if "injector" in state:
            cluster.network.faults = state["injector"]
        if "controller" in state:
            _analysis.CONTROLLER = state["controller"]
        self.take_sample()

    def _note(self, subsystem: str) -> None:
        if subsystem not in self.attached:
            self.attached.append(subsystem)

    # -- sampling (Perfetto track) --------------------------------------

    def take_sample(self) -> None:
        """Record a cumulative snapshot; consecutive snapshots become
        the per-window slices of the Perfetto self-profiler track."""
        if self._attach_state is not None:
            rel_us = (self._sample_base_us
                      + (perf_counter() - self._t0) * 1e6)
        else:
            rel_us = self.total_s * 1e6
        self.samples.append((rel_us, self.events, self.phases()))

    # -- export ----------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "heap_pushes": self.heap_pushes,
            "runs": self.runs,
            "total_s": self.total_s,
            "attached": list(self.attached),
            "attributed_fraction": round(self.attributed_fraction, 4),
            "phases_s": {name: round(seconds, 6)
                         for name, seconds in self.phases().items()},
            "dispatch_steps_s": {name: round(seconds, 6)
                                 for name, seconds in self.top_steps(None)},
        }


@contextmanager
def profile_runs(sample_every: int = 4096
                 ) -> Iterator[HotLoopProfiler]:
    """Profile every simulated program run started inside the block.

    The mechanism behind ``repro run --hotloop``: workload entry points
    build their own clusters internally, so the profiler is handed to
    :class:`repro.sim.program.AmberProgram` through this process-global,
    the same way :func:`~repro.analyze.runtime.sanitize_runs` hands it
    each run's sanitizer.
    """
    global _CURRENT
    if _CURRENT is not None:
        raise RuntimeError("a hot-loop profiler is already active")
    profiler = HotLoopProfiler(sample_every=sample_every)
    _CURRENT = profiler
    try:
        yield profiler
    finally:
        _CURRENT = None


def render_hotloop(profiler: HotLoopProfiler,
                   title: Optional[str] = None) -> str:
    """Human-readable phase attribution report."""
    lines: List[str] = []
    lines.append(title or "Hot-loop self-profile (host time)")
    total = profiler.total_s
    events = max(1, profiler.events)
    header = (f"{'phase':<18} {'seconds':>10} {'% run':>7} "
              f"{'ns/event':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for phase, seconds in profiler.phases().items():
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"{phase:<18} {seconds:>10.4f} {share:>6.1f}% "
                     f"{1e9 * seconds / events:>10.0f}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<18} {total:>10.4f} {100.0:>6.1f}% "
                 f"{1e9 * total / events:>10.0f}")
    rate = events / total if total > 0 else 0.0
    lines.append(
        f"{profiler.events} events in {total:.4f}s host time "
        f"({rate:,.0f} events/sec, {profiler.runs} run(s))")
    lines.append(
        f"attribution: {100 * profiler.attributed_fraction:.1f}% of "
        f"wall time in named phases; hooks attached: "
        f"{', '.join(profiler.attached) or 'none'}")
    top = profiler.top_steps()
    if top:
        lines.append("")
        header = f"{'dispatch step (inclusive)':<46} {'seconds':>10} " \
                 f"{'% disp':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        dispatch = profiler.dispatch_s
        for name, seconds in top:
            share = 100.0 * seconds / dispatch if dispatch > 0 else 0.0
            lines.append(f"{name:<46} {seconds:>10.4f} {share:>6.1f}%")
    return "\n".join(lines)
