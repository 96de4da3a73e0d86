"""Seeded, deterministic fault plans for simulated runs.

A :class:`FaultPlan` is pure configuration: message-level fault rates
(drop / duplicate / delay / reorder), node crash-and-restart events, and
network partition windows.  It contains no mutable state, so the same
plan object can parameterize any number of runs; all randomness lives in
the :class:`~repro.faults.inject.FaultInjector`, which draws from a
``random.Random(seed)`` in simulation-event order.  Because the
discrete-event engine is itself deterministic (equal timestamps resolve
by scheduling order), two runs of the same program under the same plan
are bit-identical — same results, same final simulated clock, same
metric counters.

Fault semantics (see ``docs/FAULTS.md`` for the full model):

* **drop** — the message occupies the wire but never arrives.
* **duplicate** — the message arrives twice; the reliable-delivery layer
  (:meth:`repro.sim.network.Ethernet.send_reliable`) suppresses the copy.
* **delay** — delivery is postponed by a uniform draw from
  ``[delay_min_us, delay_max_us]``.
* **reorder** — sugar for a short delay (up to half an RTO) that lets
  later messages overtake this one.
* **crash** — the node's network interface goes silent and its CPUs stop
  dispatching at ``at_us``; at ``restart_us`` (if any) the node rejoins,
  having lost its volatile location hints (chain repair).
* **partition** — messages crossing the partition boundary are dropped
  for the window's duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.costs import MAX_DURATION_US
from repro.errors import SimulationError, finite


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop ``node`` at ``at_us``; bring it back at ``restart_us``
    (``None`` = the node never returns)."""

    node: int
    at_us: float
    restart_us: Optional[float] = None

    def __post_init__(self) -> None:
        finite("node", self.node, SimulationError, integral=True)
        finite("at_us", self.at_us, SimulationError, 0, MAX_DURATION_US)
        if self.restart_us is not None:
            finite("restart_us", self.restart_us, SimulationError,
                   self.at_us, MAX_DURATION_US, open_low=True)

    def down_at(self, now_us: float) -> bool:
        if now_us < self.at_us:
            return False
        return self.restart_us is None or now_us < self.restart_us


@dataclass(frozen=True)
class Partition:
    """Split ``nodes`` from the rest of the cluster during
    ``[start_us, end_us)``.  Traffic within either side still flows."""

    nodes: Tuple[int, ...]
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise SimulationError("a partition needs at least one node")
        for node in self.nodes:
            finite("nodes", node, SimulationError, integral=True)
        finite("start_us", self.start_us, SimulationError, 0,
               MAX_DURATION_US)
        finite("end_us", self.end_us, SimulationError, self.start_us,
               MAX_DURATION_US, open_low=True)

    def severs(self, src: int, dst: int, now_us: float) -> bool:
        if not self.start_us <= now_us < self.end_us:
            return False
        return (src in self.nodes) != (dst in self.nodes)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that can go wrong in one run, decided by ``seed``."""

    seed: int = 0
    #: Per-message probabilities; their sum must stay <= 1.
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    reorder_rate: float = 0.0
    #: Uniform extra-delay bounds for delayed messages, microseconds.
    delay_min_us: float = 0.0
    delay_max_us: float = 0.0
    crashes: Tuple[NodeCrash, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    #: Base retransmission timeout of the reliable layer; doubles per
    #: attempt up to ``rto_cap_us``.
    rto_us: float = 1_000.0
    rto_cap_us: float = 64_000.0
    #: Retransmissions before the sender declares the destination dead.
    max_attempts: int = 16

    def __post_init__(self) -> None:
        def check(name, *bounds, **kind):
            finite(name, getattr(self, name), SimulationError, *bounds,
                   **kind)

        check("seed", -math.inf, integral=True)
        for name in ("drop_rate", "dup_rate", "delay_rate",
                     "reorder_rate"):
            check(name, 0, 1)
        total = (self.drop_rate + self.dup_rate + self.delay_rate
                 + self.reorder_rate)
        if total > 1.0 + 1e-12:
            raise SimulationError(
                f"fault rates sum to {total}, which exceeds 1")
        check("delay_min_us", 0, MAX_DURATION_US)
        check("delay_max_us", self.delay_min_us, MAX_DURATION_US)
        check("rto_us", 0, MAX_DURATION_US, open_low=True)
        check("rto_cap_us", self.rto_us, MAX_DURATION_US)
        # The injector's backoff is rto_us * 2 ** (attempt - 1), and
        # 2 ** 1024 does not fit a float.
        check("max_attempts", 1, 1024, integral=True)
        # The plan is hashable config; normalize accidental lists.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))

    # -- queries ----------------------------------------------------------

    def is_down(self, node: int, now_us: float) -> bool:
        return any(crash.node == node and crash.down_at(now_us)
                   for crash in self.crashes)

    def partitioned(self, src: int, dst: int, now_us: float) -> bool:
        return any(window.severs(src, dst, now_us)
                   for window in self.partitions)

    def give_up_budget_us(self) -> float:
        """Simulated time the reliable layer spends before declaring a
        destination dead (the sum of all backoff steps)."""
        return sum(min(self.rto_us * 2 ** k, self.rto_cap_us)
                   for k in range(self.max_attempts))

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name in ("drop_rate", "dup_rate", "delay_rate", "reorder_rate"):
            rate = getattr(self, name)
            if rate:
                parts.append(f"{name.replace('_rate', '')}={rate:.1%}")
        for crash in self.crashes:
            back = ("never" if crash.restart_us is None
                    else f"{crash.restart_us / 1000:.0f}ms")
            parts.append(f"crash(node {crash.node} @ "
                         f"{crash.at_us / 1000:.0f}ms, back {back})")
        for window in self.partitions:
            parts.append(f"partition({list(window.nodes)} @ "
                         f"{window.start_us / 1000:.0f}-"
                         f"{window.end_us / 1000:.0f}ms)")
        return ", ".join(parts)
