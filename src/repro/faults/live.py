"""Seeded chaos for the *live* runtime: per-frame fault decisions over
real sockets, plus a controller that kills and restarts node processes.

The simulator's :class:`~repro.faults.plan.FaultPlan` is reused verbatim
— same rates, same crash/partition schedule — but the live semantics
differ where TCP makes them differ:

* **drop** — the frame is consumed by the chaos layer and never reaches
  the wire (the sender believes it was sent; the hardened request layer
  recovers by re-sending, see ``docs/CHAOS.md``).
* **duplicate** — the frame is written twice; the receiving kernel's
  at-most-once dedup suppresses the second execution.
* **delay** — the frame is queued with ``[delay_min_us, delay_max_us]``
  owed by its peer's outbox; the thread that next writes that outbox
  sleeps it out before the write (never a mesh reader, which leaves an
  outbox with anything owed to a pool worker).
* **reorder → reset** — TCP cannot reorder within a connection, so the
  reorder budget is spent on the live network's own failure mode: the
  current connection is poisoned with a *truncated frame* and torn down,
  forcing the receiver through its broken-frame path and the sender
  through redial/backoff.
* **partition** — frames crossing the window's boundary are dropped for
  its duration (wall-clock, measured from the injector's start).
* **crash** — :class:`ChaosController` SIGKILLs the node's OS process at
  ``at_us`` (wall-clock from :meth:`ChaosController.start`) and forks a
  replacement at ``restart_us``; the replacement re-registers with the
  coordinator, which rebroadcasts the directory to the survivors.

Determinism: a decision is a *pure function* of ``(seed, src, dst,
seq)`` where ``seq`` is the per-link frame ordinal — no shared PRNG
stream, so thread interleavings across links cannot perturb each
other's fates.  :func:`schedule_fingerprint` digests the decision table
itself, which is what ``repro chaos`` asserts is stable per seed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from random import Random
from typing import Dict, Optional

from repro.faults.plan import FaultPlan

#: Mixing constants for the per-decision PRNG seed (primes, so distinct
#: (src, dst, seq) triples land on distinct streams).
_MIX_A = 1_000_003
_MIX_B = 8_191


@dataclass(frozen=True)
class LiveDecision:
    """Fate of one outbound frame."""

    drop: bool = False
    duplicate: bool = False
    reset: bool = False
    delay_s: float = 0.0
    partition: bool = False


_CLEAN = LiveDecision()


def decide_frame(plan: FaultPlan, src: int, dst: int, seq: int,
                 now_us: float = 0.0) -> LiveDecision:
    """Pure per-frame decision: same ``(plan.seed, src, dst, seq)`` →
    same fate, regardless of thread timing.  ``now_us`` only matters for
    partition windows."""
    if plan.partitioned(src, dst, now_us):
        return LiveDecision(drop=True, partition=True)
    rng = Random((plan.seed * _MIX_A + src) * _MIX_A
                 + dst * _MIX_B + seq)
    draw = rng.random()
    edge = plan.drop_rate
    if draw < edge:
        return LiveDecision(drop=True)
    edge += plan.dup_rate
    if draw < edge:
        return LiveDecision(duplicate=True)
    edge += plan.delay_rate
    if draw < edge:
        return LiveDecision(delay_s=rng.uniform(
            plan.delay_min_us, plan.delay_max_us) / 1e6)
    edge += plan.reorder_rate
    if draw < edge:
        return LiveDecision(reset=True)
    return _CLEAN


#: Per-link decisions a schedule fingerprint digests.
FINGERPRINT_FRAMES = 256


def schedule_fingerprint(plan: FaultPlan, nodes: int) -> str:
    """Digest of the first :data:`FINGERPRINT_FRAMES` per-link decisions
    for every directed link of an ``nodes``-node cluster.  Pure function
    of the plan — two runs with the same seed share it by construction."""
    digest = sha256()
    digest.update(plan.describe().encode())
    for src in range(nodes):
        for dst in range(nodes):
            if src == dst:
                continue
            for seq in range(FINGERPRINT_FRAMES):
                decision = decide_frame(plan, src, dst, seq)
                digest.update(bytes((
                    decision.drop, decision.duplicate, decision.reset)))
                digest.update(f"{decision.delay_s:.9f}".encode())
    return digest.hexdigest()[:16]


class LiveFaultInjector:
    """Per-node chaos state: per-link frame counters + wall clock.

    One injector is attached to one :class:`~repro.runtime.transport.Mesh`
    (``Mesh(..., chaos=injector)``) and consulted once per outbound
    frame.  All mutability is the per-link ordinal and the counters;
    fates themselves come from :func:`decide_frame`.
    """

    def __init__(self, plan: FaultPlan, node: int):
        self.plan = plan
        self.node = node
        self._lock = threading.Lock()
        self._seq: Dict[int, int] = {}
        self._start = time.monotonic()
        self.stats: Dict[str, int] = {
            "chaos_frames": 0,
            "chaos_dropped": 0,
            "chaos_duplicated": 0,
            "chaos_delayed": 0,
            "chaos_resets": 0,
            "chaos_partition_drops": 0,
        }

    def now_us(self) -> float:
        return (time.monotonic() - self._start) * 1e6

    def on_send(self, dst: int, message: object) -> LiveDecision:
        """Decide the fate of one frame from this node to ``dst``."""
        with self._lock:
            seq = self._seq.get(dst, 0)
            self._seq[dst] = seq + 1
            self.stats["chaos_frames"] += 1
        decision = decide_frame(self.plan, self.node, dst, seq,
                                self.now_us())
        with self._lock:
            if decision.partition:
                self.stats["chaos_partition_drops"] += 1
            elif decision.drop:
                self.stats["chaos_dropped"] += 1
            if decision.duplicate:
                self.stats["chaos_duplicated"] += 1
            if decision.delay_s:
                self.stats["chaos_delayed"] += 1
            if decision.reset:
                self.stats["chaos_resets"] += 1
        return decision


class ChaosController:
    """Executes a plan's :class:`~repro.faults.plan.NodeCrash` entries
    against a live :class:`~repro.runtime.cluster.Cluster`.

    ``at_us``/``restart_us`` are interpreted as wall-clock microseconds
    after :meth:`start`.  Only non-driver nodes (id >= 1) can be killed;
    the driver hosts the coordinator.  Kills are SIGKILL — no goodbye
    frames, exactly the fail-stop model of the simulator.
    """

    def __init__(self, cluster, plan: FaultPlan):
        self._cluster = cluster
        self._plan = plan
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.kills = 0
        self.restarts = 0

    def start(self) -> "ChaosController":
        events = []
        for crash in self._plan.crashes:
            if crash.node < 1:
                raise ValueError(
                    f"cannot kill the driver node: {crash}")
            events.append((crash.at_us, "kill", crash.node))
            if crash.restart_us is not None:
                events.append((crash.restart_us, "restart", crash.node))
        events.sort()
        self._thread = threading.Thread(
            target=self._run, args=(events,), daemon=True,
            name="chaos-controller")
        self._thread.start()
        return self

    def _run(self, events) -> None:
        t0 = time.monotonic()
        for at_us, action, node in events:
            delay = at_us / 1e6 - (time.monotonic() - t0)
            if delay > 0 and self._stop.wait(delay):
                return
            if self._stop.is_set():
                return
            if action == "kill":
                self._cluster.kill_node(node)
                self.kills += 1
            else:
                self._cluster.restart_node(node)
                self.restarts += 1

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for every scheduled kill/restart to have fired."""
        if self._thread is not None:
            self._thread.join(timeout)
