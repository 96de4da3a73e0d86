"""Heartbeat failure detection for the simulated cluster.

Every ``HEARTBEAT_INTERVAL_US`` each live node multicasts a small
heartbeat to every reachable peer.  The detector aggregates receptions:
a node unheard-from for ``GRACE_US`` is *suspected*; one silent for
``CONFIRM_US`` is *confirmed dead*, which hands control to the
promotion/resurrection machinery of its
:class:`~repro.recovery.manager.RecoveryManager`.  A heartbeat from a
suspected or confirmed node (it restarted) rescinds the verdict as a
*rejoin*.

Determinism: heartbeats ride the shared wire through plain
:meth:`~repro.sim.network.Ethernet.send` — they occupy the medium like
any message but never consult the seeded fault injector, so attaching a
detector does not perturb the fault stream of the rest of the run.
Crash and partition silence is applied explicitly (and
randomness-free): a down node sends nothing, a severed pair exchanges
nothing.

The heartbeat timer terminates with the program (once the main thread
is done, or the run can no longer progress, it stops rescheduling), so
the event queue still drains.

Events emitted into the obs layer: ``node_suspected``,
``node_confirmed_dead`` (with the ``detection_latency_us`` histogram —
confirmation time minus the actual crash instant) and
``node_rejoined``; counters of the same names aggregate per run.
"""

from __future__ import annotations

from typing import Dict, Set

#: Nominal wire size of one heartbeat, bytes.
HEARTBEAT_BYTES = 32

#: Every up node multicasts a heartbeat this often, us.
HEARTBEAT_INTERVAL_US = 2_000.0

#: Silence after which a node is *suspected*, us.
GRACE_US = 8_000.0

#: Silence after which a node is *confirmed dead*, us: promotion and
#: resurrection start here.
CONFIRM_US = 2.0 * GRACE_US


class HeartbeatDetector:
    """Heartbeat/suspicion service (one per recovering simulation)."""

    def __init__(self, manager):
        self.manager = manager
        self.kernel = manager.kernel
        self.last_heard: Dict[int, float] = {
            node.id: 0.0 for node in self.kernel.cluster.nodes}
        self.suspected: Set[int] = set()
        self.confirmed: Set[int] = set()

    def start(self) -> None:
        self.kernel.sim.schedule_us(HEARTBEAT_INTERVAL_US,
                                    self._tick)

    # -- internals -----------------------------------------------------

    def _tick(self) -> None:
        if self.manager.program_over():
            return
        kernel = self.kernel
        cluster = kernel.cluster
        now = kernel.sim.now_us
        plan = cluster.faults
        for src in cluster.nodes:
            if src.down:
                continue
            kernel.metrics.inc("heartbeats_sent")
            for dst in cluster.nodes:
                if dst.id == src.id or dst.down:
                    continue
                if plan is not None and plan.partitioned(src.id, dst.id,
                                                         now):
                    continue
                kernel.net.send(src.id, dst.id, HEARTBEAT_BYTES,
                                lambda s=src.id: self._heard(s))
        self._check(now)
        kernel.sim.schedule_us(HEARTBEAT_INTERVAL_US,
                               self._tick)

    def _heard(self, node_id: int) -> None:
        self.last_heard[node_id] = self.kernel.sim.now_us
        if node_id in self.suspected or node_id in self.confirmed:
            self.suspected.discard(node_id)
            self.confirmed.discard(node_id)
            self.kernel.metrics.inc("node_rejoined")
            self.kernel.trace("node_rejoined", node_id,
                              detail="heartbeat resumed")

    def _check(self, now: float) -> None:
        kernel = self.kernel
        for node in kernel.cluster.nodes:
            node_id = node.id
            if node_id in self.confirmed:
                continue
            silence = now - self.last_heard[node_id]
            if silence >= CONFIRM_US:
                self.suspected.discard(node_id)
                self.confirmed.add(node_id)
                crashed_at = self.manager.crash_times.get(
                    node_id, self.last_heard[node_id])
                latency = now - crashed_at
                kernel.metrics.inc("node_confirmed_dead")
                kernel.metrics.observe("detection_latency_us", latency)
                kernel.trace(
                    "node_confirmed_dead", node_id,
                    detail=f"silent {silence:.0f} us; "
                           f"detection latency {latency:.0f} us")
                self.manager.node_confirmed_dead(node_id)
            elif silence >= GRACE_US and \
                    node_id not in self.suspected:
                self.suspected.add(node_id)
                kernel.metrics.inc("node_suspected")
                kernel.trace("node_suspected", node_id,
                             detail=f"silent {silence:.0f} us")
