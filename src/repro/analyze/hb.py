"""Vector clocks for happens-before tracking.

The sanitizer keeps one :class:`VectorClock` per simulated thread and one
per synchronization source (lock, monitor, barrier, per-object operation
step).  An access is recorded as an :class:`Epoch` — the accessing
thread's id and its own clock component at the time — and a later access
races with it iff the later thread's clock does not *cover* the epoch.

This is the FastTrack representation (Flanagan & Freund, PLDI 2009):
full clocks per thread, lightweight epochs per shadow cell.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple


class Epoch(NamedTuple):
    """``clock``-th event of thread ``tid`` (its own component)."""

    tid: int
    clock: int

    def __str__(self) -> str:
        return f"{self.clock}@t{self.tid}"


class VectorClock:
    """A mapping from thread id to logical clock component.

    Components absent from the mapping are zero.  All operations are by
    construction free of floating point and PRNG use.
    """

    __slots__ = ("_clock",)

    def __init__(self,
                 clock: Optional[Dict[int, int]] = None) -> None:
        self._clock: Dict[int, int] = dict(clock) if clock else {}

    def get(self, tid: int) -> int:
        return self._clock.get(tid, 0)

    def tick(self, tid: int) -> None:
        self._clock[tid] = self._clock.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """In-place component-wise maximum."""
        mine = self._clock
        for tid, clock in other._clock.items():
            if clock > mine.get(tid, 0):
                mine[tid] = clock

    def copy(self) -> "VectorClock":
        return VectorClock(self._clock)

    def epoch(self, tid: int) -> Epoch:
        """The caller's current epoch (own component)."""
        return Epoch(tid, self._clock.get(tid, 0))

    def covers(self, epoch: Epoch) -> bool:
        """True iff ``epoch`` happens-before (or equals) this clock."""
        return epoch.clock <= self._clock.get(epoch.tid, 0)

    def items(self) -> Iterable[Tuple[int, int]]:
        return self._clock.items()

    def __len__(self) -> int:
        return len(self._clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"t{tid}:{clock}" for tid, clock
                          in sorted(self._clock.items()))
        return f"<VC {inner}>"
