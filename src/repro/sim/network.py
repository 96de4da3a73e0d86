"""A shared-medium Ethernet model (10 Mbit/s by default, via the cost model).

The paper's eight Fireflies share one 10 Mbit/s Ethernet, so transmission
time — ``bytes * per_byte_us`` — serializes across the whole cluster, while
the fixed per-message latency (controller + protocol software at both ends)
overlaps freely.  That contention matters: the SOR edge-exchange and barrier
storms compete for the wire exactly as they did on the real segment.

With a :class:`~repro.faults.inject.FaultInjector` attached, the
reliable layer (:meth:`Ethernet.send_reliable`) consults it once per
transmission attempt: dropped messages still occupy the wire but never
arrive, duplicates arrive twice (and are suppressed by the delivery
guard), delays postpone arrival.  Lost attempts are retransmitted on an
exponential-backoff timer; a sender that exhausts every attempt calls
its ``on_give_up`` hook — the kernel's cue for dead-node recovery.  The
injector counts each outcome (``faults_dropped``, ``retries``, ...) in
the run's metrics registry; :class:`NetworkStats` counts only the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.analyze import runtime as _analysis
from repro.core.costs import CostModel
from repro.errors import SimulationError
from repro.obs.metrics import Held, MetricsRegistry
from repro.sim import engine as _engine
from repro.sim.engine import Simulator


@dataclass
class NetworkStats:
    messages: int = 0
    bytes: int = 0
    #: Total wire occupancy (transmission time), microseconds.
    busy_us: float = 0.0
    #: Total time messages spent queued behind other transmissions.
    queueing_us: float = 0.0

    def utilization(self, elapsed_us: float) -> float:
        return self.busy_us / elapsed_us if elapsed_us > 0 else 0.0


class Ethernet:
    """Delivers messages after queueing + transmission + fixed latency."""

    def __init__(self, sim: Simulator, costs: CostModel,
                 metrics: Optional[MetricsRegistry] = None,
                 faults=None):
        self._sim = sim
        self._costs = costs
        self._busy_until_ns = 0
        self.stats = NetworkStats()
        #: Per-message instruments, held (see repro.obs.metrics.Held);
        #: ``None`` without a registry.
        self._hists = None if metrics is None else Held(metrics.histogram)
        self._gauges = None if metrics is None else Held(metrics.gauge)
        #: Optional repro.faults.inject.FaultInjector consulted by the
        #: reliable layer, once per transmission attempt.
        self.faults = faults
        #: Messages currently queued or on the wire (event-granularity
        #: occupancy; sampled into the ``net_inflight`` gauge per send).
        self._inflight = 0
        self._latency_ns = round(costs.net_latency_us * 1000)
        #: Optional repro.sim.trace.Tracer: the reliable layer emits a
        #: structured ``send_give_up`` event (sender, dest, message kind)
        #: whenever a sender exhausts its retries, so crash triage is
        #: not left guessing from the bare ``send_give_ups`` counter.
        self.tracer = None

    def send(self, src: int, dst: int, nbytes: int,
             deliver: Callable[[], None]) -> None:
        """Transmit ``nbytes`` from ``src`` to ``dst``; call ``deliver`` at
        the delivery time.  ``src``/``dst`` are node ids (kept for stats and
        future topology models; the shared medium ignores them)."""
        self._transmit(src, dst, nbytes, deliver, 0.0)

    def send_reliable(self, src: int, dst: int, nbytes: int,
                      deliver: Callable[[], None],
                      on_give_up: Optional[Callable[[], None]] = None,
                      kind: str = "message") -> None:
        """Deliver exactly once despite injected faults.

        Without an injector this is exactly :meth:`send` (no extra
        events, no behavioral change).  With one, each attempt may be
        dropped, duplicated, or delayed; undelivered attempts are
        retransmitted after an exponentially backed-off timeout.  After
        the plan's ``max_attempts`` transmissions the sender gives up: it
        calls ``on_give_up`` (the kernel's dead-node recovery hook) or,
        with none installed, raises :class:`SimulationError` out of the
        simulation — an unreachable destination with no recovery path is
        a scenario bug, not a hang.
        """
        faults = self.faults
        if faults is None:
            self._transmit(src, dst, nbytes, deliver, 0.0)
            return
        attempts = faults.max_attempts
        done = [False]

        def delivered() -> None:
            if done[0]:
                return  # duplicate or late retransmission: suppressed
            done[0] = True
            deliver()

        def attempt(k: int) -> None:
            decision = faults.decide(src, dst, self._sim.now_us)
            if decision.drop:
                self._transmit(src, dst, nbytes, None, 0.0)
            else:
                self._transmit(src, dst, nbytes, delivered,
                               decision.extra_delay_us)
                if decision.duplicate:
                    self._transmit(src, dst, nbytes, delivered,
                                   decision.extra_delay_us
                                   + self._costs.net_latency_us)

            def check() -> None:
                if done[0]:
                    return
                if k >= attempts:
                    faults.count_give_up()
                    if self.tracer is not None:
                        self.tracer.emit(
                            self._sim.now_us, "send_give_up", src,
                            detail=f"{kind} to node {dst} undeliverable "
                                   f"after {k} attempts ({nbytes} B)")
                    if on_give_up is not None:
                        on_give_up()
                        return
                    raise SimulationError(
                        f"message {src} -> {dst} undeliverable after "
                        f"{k} attempts and no recovery handler")
                faults.count_retry()
                attempt(k + 1)

            self._sim.schedule_us(faults.rto_us(k), check)

        attempt(1)

    def _landed(self, deliver: Callable[[], None]) -> None:
        """A counted message arrives: it is no longer in flight."""
        self._inflight -= 1
        deliver()

    def _transmit(self, src: int, dst: int, nbytes: int,
                  deliver: Optional[Callable[[], None]],
                  extra_delay_us: float) -> None:
        """One wire transmission.  ``deliver=None`` models a message lost
        in flight: it occupies the medium but nothing arrives."""
        sim = self._sim
        stats = self.stats
        now_ns = sim.now_ns
        occupancy_us = nbytes * self._costs.per_byte_us
        queued_us = 0.0
        start_ns = self._busy_until_ns
        if start_ns > now_ns:
            queued_us = (start_ns - now_ns) / 1000
            stats.queueing_us += queued_us
        else:
            start_ns = now_ns
        end_ns = self._busy_until_ns = start_ns + round(occupancy_us * 1000)
        stats.messages += 1
        stats.bytes += nbytes
        stats.busy_us += occupancy_us
        hists = self._hists
        if hists is not None:
            hists["net_queue_us"].observe(queued_us)
            hists["net_msg_bytes"].observe(nbytes)
            if deliver is not None:
                self._inflight += 1
                self._gauges["net_inflight"].set(self._inflight)
                deliver = partial(self._landed, deliver)

        if deliver is None:
            return
        delivery_ns = end_ns + self._latency_ns
        if extra_delay_us:
            delivery_ns += round(extra_delay_us * 1000)
        # With an AmberCheck controller installed, its delivery-order
        # override turns the arrival order of same-time messages into a
        # recorded, replayable choice point.  Without one the entry is
        # pushed here, as ``charge`` pushes its own (never in the past),
        # through the engine module's swappable ``heappush``.
        controller = _analysis.CONTROLLER
        if controller is None:
            seq = sim.seq
            sim.seq = seq + 1
            _engine.heappush(sim.queue, [delivery_ns, seq, deliver])
        else:
            controller.schedule_delivery(sim, delivery_ns, src, dst,
                                         deliver)
