"""The discrete-event engine: an integer-nanosecond clock and event queue.

Every cause of simulated delay — CPU charges, wire time, protocol waits —
becomes an event.  Events at equal timestamps fire in scheduling order
(a monotonic sequence number breaks ties), so runs are exactly reproducible.

An event is its heap entry, the list ``[time_ns, seq, fn]``; there is no
event object.  ``seq`` is unique, so every ordering decision resolves on
the two integers at C speed and ``fn`` is never compared.  Cancelling an
entry sets its ``fn`` to ``None`` (lazy deletion: the entry stays in the
heap and is skipped, uncounted, when it reaches the top).
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import SimulationError, finite

NS_PER_US = 1000


#: A heap entry: ``[time_ns, seq, fn]``, ``fn`` ``None`` once cancelled.
Entry = List


class _Handle(list):
    """The entry :meth:`Simulator.schedule_us` returns: a plain entry
    that also answers ``cancel()``, for callers outside the simulator
    that hold the handle but not the simulator."""

    __slots__ = ()

    def cancel(self) -> None:
        self[2] = None


class Simulator:
    """Event loop with a nanosecond clock.

    ``max_events`` bounds total event count as a runaway-program backstop
    (a simulation hitting it raises :class:`SimulationError` rather than
    spinning forever).

    ``queue`` and ``seq`` are public because the kernel's
    :meth:`~repro.sim.kernel.AmberKernel.charge`, one push per charge,
    builds and pushes its own entry exactly as :meth:`schedule_at_ns`
    would, through this module's ``heappush`` (which the self-profiler
    swaps to time every push).
    """

    def __init__(self, max_events: int = 500_000_000):
        self.now_ns: int = 0
        #: The event heap of ``[time_ns, seq, fn]`` entries.
        self.queue: List[Entry] = []
        #: The sequence number the next entry gets.
        self.seq = 0
        self._events_run = 0
        self.max_events = finite("max_events", max_events, SimulationError,
                                 1, integral=True)
        #: Optional hot-loop self-profiler (see
        #: :mod:`repro.perf.hotprof`).  When attached, :meth:`run` takes
        #: the instrumented loop that attributes host time to heap-op /
        #: dispatch / hook phases, and the profiler times pushes by
        #: swapping this module's ``heappush``; when ``None`` (the
        #: default) no timing instrumentation runs at all.
        self.profiler = None

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self.now_ns / NS_PER_US

    @property
    def events_run(self) -> int:
        """Events executed so far — the denominator of events/sec."""
        return self._events_run

    def schedule_us(self, delay_us: float,
                    fn: Callable[[], None]) -> Entry:
        """Schedule ``fn`` to run ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise SimulationError(f"negative delay: {delay_us}")
        seq = self.seq
        self.seq = seq + 1
        entry = _Handle((self.now_ns + round(delay_us * NS_PER_US), seq, fn))
        heappush(self.queue, entry)
        return entry

    def schedule_at_ns(self, time_ns: int, fn: Callable[[], None]) -> Entry:
        if time_ns < self.now_ns:
            raise SimulationError(
                f"event scheduled in the past: {time_ns} < {self.now_ns}")
        seq = self.seq
        self.seq = seq + 1
        entry = [time_ns, seq, fn]
        heappush(self.queue, entry)
        return entry

    def call_now(self, fn: Callable[[], None]) -> Entry:
        """Schedule ``fn`` at the current time (after already-queued events
        at this timestamp)."""
        return self.schedule_at_ns(self.now_ns, fn)

    @staticmethod
    def cancel(entry: Entry) -> None:
        """Make a scheduled entry a no-op: it is skipped, and not counted
        in :attr:`events_run`, when it reaches the top of the heap."""
        entry[2] = None

    def run(self, until_us: Optional[float] = None) -> None:
        """Drain the event queue, optionally stopping once the clock would
        pass ``until_us``.

        This is the hot loop of everything built on the simulator: the
        queue, ``heappop`` and the event counter are held in locals for
        its duration.
        """
        if self.profiler is not None:
            self._run_profiled(until_us)
            return
        queue = self.queue
        pop = heappop
        max_events = self.max_events
        events_run = self._events_run
        limit_ns = (None if until_us is None
                    else round(until_us * NS_PER_US))
        try:
            while queue:
                head = queue[0]
                fn = head[2]
                if fn is None:
                    pop(queue)
                    continue
                time_ns = head[0]
                if limit_ns is not None and time_ns > limit_ns:
                    break
                pop(queue)
                self.now_ns = time_ns
                events_run += 1
                if events_run > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelocked simulation")
                fn()
        finally:
            # The counter lives in a local while the loop runs; publish
            # it on every exit, including an event that raised.
            self._events_run = events_run

    def _run_profiled(self, until_us: Optional[float] = None) -> None:
        """The :meth:`run` loop with host-time phase attribution: heap
        maintenance (pop + cancelled-event skipping) and event dispatch
        are timed separately; heap pushes and subsystem hooks nested
        inside a dispatch are timed by the profiler's swapped-in
        ``heappush`` and hook proxies, and subtracted by its report.
        Each dispatch is also booked under the step it ran (the
        profiler's ``step_name``, timed with it)."""
        profiler = self.profiler
        steps = profiler.dispatch_steps
        step_name = profiler.step_name
        queue = self.queue
        pop = heappop
        max_events = self.max_events
        events_run = self._events_run
        limit_ns = (None if until_us is None
                    else round(until_us * NS_PER_US))
        try:
            while queue:
                t0 = perf_counter()
                head = queue[0]
                while head[2] is None:
                    pop(queue)
                    if not queue:
                        profiler.heap_pop_s += perf_counter() - t0
                        return
                    head = queue[0]
                if limit_ns is not None and head[0] > limit_ns:
                    profiler.heap_pop_s += perf_counter() - t0
                    break
                pop(queue)
                t1 = perf_counter()
                profiler.heap_pop_s += t1 - t0
                fn = head[2]
                step = step_name(fn)
                self.now_ns = head[0]
                events_run += 1
                if events_run > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelocked simulation")
                fn()
                spent = perf_counter() - t1
                profiler.dispatch_s += spent
                steps[step] = steps.get(step, 0.0) + spent
                profiler.events += 1
                if profiler.events % profiler.sample_every == 0:
                    profiler.take_sample()
        finally:
            self._events_run = events_run

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for entry in self.queue if entry[2] is not None)
