"""Per-thread time attribution and critical-path profiling.

The paper explains performance by decomposing where threads spend their
time — computing, migrating between nodes, queued behind busy CPUs, or
waiting on locks.  This module produces that decomposition for any
simulated run from one source, :func:`profile_result`: exact accounting
from the kernel's per-thread state clocks (every
:class:`~repro.sim.thread.SimThread` accumulates time per scheduling
state as it transitions); no tracer needed.

Buckets:

``compute``
    On a CPU: user compute plus kernel work charged to the thread.
``migration``
    In transit between nodes (marshal/wire/forwarding hops).
``queue``
    Runnable but waiting for a CPU.
``lock-wait``
    Blocked on a synchronization object (lock, monitor, condvar,
    barrier, reader/writer lock).
``blocked``
    Blocked for any other reason (join, sleep, application waits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

BUCKETS = ("compute", "migration", "queue", "lock-wait", "blocked")

#: Suspend reasons classified as lock waiting.
LOCK_WAIT_REASONS = frozenset({
    "lock", "spinlock", "monitor", "condvar", "barrier",
    "rwlock-read", "rwlock-write",
})

#: Thread scheduling-state value -> attribution bucket.
_STATE_BUCKETS = {
    "running": "compute",
    "ready": "queue",
    "transit": "migration",
    "new": "new",
    "done": "done",
}


def bucket_for_state(state_value: str, block_reason: str = "") -> str:
    """Map a :class:`~repro.sim.thread.ThreadState` value (e.g.
    ``"running"``) and the current block reason to a profile bucket."""
    if state_value == "blocked":
        return ("lock-wait" if block_reason in LOCK_WAIT_REASONS
                else "blocked")
    return _STATE_BUCKETS.get(state_value, "blocked")


@dataclass
class ThreadProfile:
    """Wall-time attribution for one thread."""

    name: str
    buckets: Dict[str, float] = field(default_factory=dict)
    migrations: int = 0

    @property
    def total_us(self) -> float:
        return sum(self.buckets.get(bucket, 0.0) for bucket in BUCKETS)

    def fraction(self, bucket: str) -> float:
        total = self.total_us
        return self.buckets.get(bucket, 0.0) / total if total else 0.0


def profile_result(result) -> List[ThreadProfile]:
    """Exact per-thread profiles from a finished
    :class:`~repro.sim.program.ProgramResult`."""
    kernel = result.cluster.kernel
    now_us = result.elapsed_us
    profiles = []
    for thread in kernel.threads:
        buckets = dict(thread.state_time_us)
        # Account the open interval of still-live threads.
        if thread.state.value not in ("done",) and \
                getattr(thread, "_state_since_us", None) is not None:
            bucket = bucket_for_state(thread.state.value,
                                      thread.block_reason)
            buckets[bucket] = buckets.get(bucket, 0.0) + max(
                0.0, now_us - thread._state_since_us)
        buckets.pop("new", None)
        buckets.pop("done", None)
        profiles.append(ThreadProfile(thread.name, buckets,
                                      thread.migrations))
    return profiles


def critical_path(profiles: Iterable[ThreadProfile]
                  ) -> Optional[ThreadProfile]:
    """The thread whose accounted wall time is largest: the run cannot be
    shorter than this thread's timeline, so its bucket mix says what to
    optimize first."""
    profiles = list(profiles)
    if not profiles:
        return None
    return max(profiles, key=lambda p: p.total_us)


def render_profile(profiles: List[ThreadProfile],
                   elapsed_us: Optional[float] = None,
                   limit: int = 24,
                   title: Optional[str] = None) -> str:
    """A per-thread time-attribution report, busiest threads first."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = (f"{'thread':<14} {'total us':>12} "
              + " ".join(f"{bucket:>12}" for bucket in BUCKETS)
              + f" {'migr':>5}")
    lines.append(header)
    lines.append("-" * len(header))
    ordered = sorted(profiles, key=lambda p: -p.total_us)
    totals = {bucket: 0.0 for bucket in BUCKETS}
    for profile in ordered:
        for bucket in BUCKETS:
            totals[bucket] += profile.buckets.get(bucket, 0.0)
    for profile in ordered[:limit]:
        lines.append(
            f"{profile.name:<14} {profile.total_us:>12.1f} "
            + " ".join(f"{profile.buckets.get(bucket, 0.0):>12.1f}"
                       for bucket in BUCKETS)
            + f" {profile.migrations:>5}")
    if len(ordered) > limit:
        lines.append(f"... {len(ordered) - limit} more threads")
    lines.append(
        f"{'TOTAL':<14} {sum(totals.values()):>12.1f} "
        + " ".join(f"{totals[bucket]:>12.1f}" for bucket in BUCKETS)
        + f" {sum(p.migrations for p in ordered):>5}")
    critical = critical_path(ordered)
    if critical is not None and critical.total_us > 0:
        mix = ", ".join(
            f"{bucket} {100 * critical.fraction(bucket):.0f}%"
            for bucket in BUCKETS if critical.buckets.get(bucket, 0.0) > 0)
        lines.append(f"critical path: {critical.name} "
                     f"({critical.total_us:.1f} us: {mix})")
    if elapsed_us:
        lines.append(f"elapsed: {elapsed_us:.1f} us simulated")
    return "\n".join(lines)
