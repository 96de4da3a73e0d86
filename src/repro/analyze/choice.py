"""AmberCheck's recorder of scheduling choices: the paper's
user-replaceable scheduler (§2.1) made into one that records every
decision of a run and forces a prefix of them.  The simulator's hooks
consult it (:mod:`repro.analyze.runtime`); :mod:`repro.analyze.check`
explores the schedules it records."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple


@dataclass(frozen=True)
class ChoicePoint:
    """One recorded scheduling decision.

    ``kind`` is ``pick`` (ready-queue dispatch), ``preempt`` (end of a
    compute segment with other threads runnable), ``handoff`` (which
    waiter a released lock/monitor or signalled condvar wakes), or
    ``deliver`` (order of simultaneously-arriving network messages).
    ``options`` are stable human-readable labels (thread names, message
    tags); ``chosen`` indexes into them.  ``queued`` is extra context
    for ``preempt`` points: the ready queue at the moment of the
    decision, which the DPOR analysis uses to compute backtracking
    prefixes."""

    kind: str
    where: str
    options: Tuple[str, ...]
    chosen: int
    queued: Tuple[str, ...] = ()


class ChoiceController:
    """Records every scheduling decision of one run, forcing a prefix.

    Positions beyond the forced prefix take the default (index 0),
    which reproduces the stock FIFO schedule — so an empty prefix is
    exactly the unchecked run.  A forced index that no longer fits the
    options at its position (possible only if the program itself is
    nondeterministic) marks the run ``diverged``.
    """

    def __init__(self, forced: Sequence[int] = ()) -> None:
        self.forced = list(forced)
        self.points: List[ChoicePoint] = []
        self.diverged = False
        #: Delivery-order override state (see ``schedule_delivery``).
        self._pending: List[Tuple[str, Callable[[], None]]] = []
        self._drain_scheduled = False
        self._delivery_seq = 0

    def choose(self, kind: str, where: str, options: Sequence[str],
               queued: Sequence[str] = ()) -> int:
        position = len(self.points)
        if position < len(self.forced):
            chosen = self.forced[position]
            if not 0 <= chosen < len(options):
                self.diverged = True
                chosen = 0
        else:
            chosen = self._default(kind, where, options)
        self.points.append(ChoicePoint(kind, where, tuple(options),
                                       chosen, tuple(queued)))
        return chosen

    def _default(self, kind: str, where: str,
                 options: Sequence[str]) -> int:
        return 0

    def choices(self) -> List[int]:
        return [point.chosen for point in self.points]

    # -- network delivery-order override --------------------------------

    def schedule_delivery(self, sim: Any, delivery_ns: int, src: int,
                          dst: int,
                          deliver: Callable[[], None]) -> None:
        """Route one message delivery through the controller.

        Arrivals are collected per engine timestamp; when more than one
        message matures at the same instant, their delivery order
        becomes a ``deliver`` choice point instead of engine schedule
        order."""
        self._delivery_seq += 1
        label = f"msg{self._delivery_seq}:{src}->{dst}"

        def drain() -> None:
            self._drain_scheduled = False
            while self._pending:
                labels = tuple(tag for tag, _ in self._pending)
                index = self.choose("deliver", "net", labels)
                _, fn = self._pending.pop(index)
                fn()

        def mature() -> None:
            self._pending.append((label, deliver))
            if not self._drain_scheduled:
                # Scheduled *now*, at the shared timestamp: the engine
                # runs it after every same-time arrival already queued,
                # so the drain sees them all at once.
                self._drain_scheduled = True
                sim.schedule_at_ns(sim.now_ns, drain)

        sim.schedule_at_ns(delivery_ns, mature)


class RandomController(ChoiceController):
    """Uniform random scheduling — used to measure how rarely a bug
    manifests without systematic exploration."""

    def __init__(self, rng: random.Random) -> None:
        super().__init__()
        self._rng = rng

    def _default(self, kind: str, where: str,
                 options: Sequence[str]) -> int:
        if len(options) <= 1:
            return 0
        return self._rng.randrange(len(options))
