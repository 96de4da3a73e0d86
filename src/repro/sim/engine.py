"""The discrete-event engine: an integer-nanosecond clock and event queue.

Every cause of simulated delay — CPU charges, wire time, protocol waits —
becomes an event.  Events at equal timestamps fire in scheduling order
(a monotonic sequence number breaks ties), so runs are exactly reproducible.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

NS_PER_US = 1000


class Event:
    """A scheduled callback.  ``cancel()`` makes it a no-op (lazy deletion:
    the heap entry stays but is skipped when popped).

    Events never compare with each other: the heap holds
    ``(time_ns, seq, event)`` triples, and ``seq`` is unique, so every
    ordering decision resolves on the integers at C speed — a Python
    ``__lt__`` here would put an interpreter frame inside every sift of
    every heap operation of the hot loop.
    """

    __slots__ = ("time_ns", "seq", "fn", "cancelled")

    def __init__(self, time_ns: int, seq: int, fn: Callable[[], None]):
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Event loop with a nanosecond clock.

    ``max_events`` bounds total event count as a runaway-program backstop
    (a simulation hitting it raises :class:`SimulationError` rather than
    spinning forever).
    """

    def __init__(self, max_events: int = 500_000_000):
        self.now_ns: int = 0
        self._queue: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._events_run = 0
        self.max_events = max_events
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

    def schedule_us(self, delay_us: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise SimulationError(f"negative delay: {delay_us}")
        return self.schedule_at_ns(self.now_ns + round(delay_us * NS_PER_US),
                                   fn)

    def schedule_at_ns(self, time_ns: int, fn: Callable[[], None]) -> Event:
        if time_ns < self.now_ns:
            raise SimulationError(
                f"event scheduled in the past: {time_ns} < {self.now_ns}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ns, seq, fn)
        heappush(self._queue, (time_ns, seq, event))
        return event

    def call_now(self, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at the current time (after already-queued events
        at this timestamp)."""
        return self.schedule_at_ns(self.now_ns, fn)

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
        queue = self._queue
        pop = heappop
        max_events = self.max_events
        events_run = self._events_run
        limit_ns = (None if until_us is None
                    else round(until_us * NS_PER_US))
        try:
            while queue:
                head = queue[0]
                event = head[2]
                if event.cancelled:
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
                event.fn()
        finally:
            # The counter lives in a local while the loop runs; publish
            # it on every exit, including an event that raised.
            self._events_run = events_run

    def _run_profiled(self, until_us: Optional[float] = None) -> None:
        """The :meth:`run` loop with host-time phase attribution: heap
        maintenance (pop + cancelled-event skipping) and event dispatch
        are timed separately; heap pushes and subsystem hooks nested
        inside a dispatch are timed by the profiler's swapped-in
        ``heappush`` and hook proxies, and subtracted by its report."""
        profiler = self.profiler
        queue = self._queue
        pop = heappop
        max_events = self.max_events
        events_run = self._events_run
        limit_ns = (None if until_us is None
                    else round(until_us * NS_PER_US))
        try:
            while queue:
                t0 = perf_counter()
                head = queue[0]
                while head[2].cancelled:
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
                self.now_ns = head[0]
                events_run += 1
                if events_run > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelocked simulation")
                head[2].fn()
                profiler.dispatch_s += perf_counter() - t1
                profiler.events += 1
                if profiler.events % profiler.sample_every == 0:
                    profiler.take_sample()
        finally:
            self._events_run = events_run

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)
