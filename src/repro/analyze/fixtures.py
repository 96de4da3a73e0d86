"""Purpose-built workloads for exercising AmberSan.

Each fixture is a small simulated Amber program with a *known* verdict:
the racy counter and the immutable write must be flagged, their
synchronized twins must come back clean, the two-lock inversion must
produce a lock-order cycle without deadlocking, and the true deadlock
must stall with a wait-for cycle report.

``seed`` varies per-thread compute jitter (via a locally seeded
``random.Random`` — the simulator itself stays PRNG-free), shifting the
interleaving while leaving the defect and its source sites fixed: the
determinism scenarios assert that finding *signatures* are identical
across seeds.

A runner never sanitizes on its own: run it inside
:func:`repro.analyze.runtime.sanitize_runs` to get
``result.cluster.sanitizer``.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional

from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram, ProgramResult
from repro.sim.sync import (
    Barrier,
    CondVar,
    Lock,
    Monitor,
    ReaderWriterLock,
)
from repro.sim.syscalls import (
    Compute,
    Fork,
    Invoke,
    Join,
    MoveTo,
    New,
    SetImmutable,
)

DEFAULT_ROUNDS = 6


class Tally(SimObject):
    """A shared mutable counter, touched directly by racing threads."""

    def __init__(self) -> None:
        self.count = 0


class BumpAnchor(SimObject):
    """Per-thread anchor whose operation pokes a *different* object's
    state — the access pattern the Amber model says needs a lock."""

    def bump(self, ctx: Any, shared: Tally, jitter_us: List[float],
             lock: Optional[Lock]) -> Any:
        for pause in jitter_us:
            yield Compute(pause)
            if lock is not None:
                yield Invoke(lock, "acquire")
            count = shared.count
            yield Compute(1.0)
            shared.count = count + 1
            if lock is not None:
                yield Invoke(lock, "release")


def run_racy_counter(seed: int = 0, locked: bool = False,
                     rounds: int = DEFAULT_ROUNDS) -> ProgramResult:
    """Two threads increment an unlocked shared counter (race), or the
    same program with a lock (clean) when ``locked``."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        shared = yield New(Tally)
        lock = (yield New(Lock)) if locked else None
        jitters = [[round(rng.uniform(0.5, 4.0), 3)
                    for _ in range(rounds)] for _ in range(2)]
        threads = []
        for i in range(2):
            anchor = yield New(BumpAnchor)
            threads.append((yield Fork(anchor, "bump", shared,
                                       jitters[i], lock,
                                       name=f"bump-{i}")))
        for thread in threads:
            yield Join(thread)
        return shared.count

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=2))
    return program.run(main, seed)


# ---------------------------------------------------------------------------
# Immutable write after replication
# ---------------------------------------------------------------------------


class Config(SimObject):
    """Marked immutable and replicated; writing it afterwards silently
    diverges the replicas — the paper's section 2.3 hazard."""

    def __init__(self) -> None:
        self.value = 1

    def get(self, ctx: Any) -> int:
        return self.value


class Clobberer(SimObject):
    def clobber(self, ctx: Any, cfg: Config) -> Any:
        yield Compute(1.0)
        cfg.value = 99


def run_immutable_write(seed: int = 0) -> ProgramResult:
    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        cfg = yield New(Config)
        yield SetImmutable(cfg)
        yield MoveTo(cfg, 1)        # replicate onto node 1
        writer = yield New(Clobberer)
        yield Compute(round(rng.uniform(0.5, 3.0), 3))
        thread = yield Fork(writer, "clobber", cfg, name="clobberer")
        yield Join(thread)
        return (yield Invoke(cfg, "get"))

    program = AmberProgram(ClusterConfig(nodes=2, cpus_per_node=2))
    return program.run(main, seed)


# ---------------------------------------------------------------------------
# Direct touch of non-resident state
# ---------------------------------------------------------------------------


class Far(SimObject):
    def __init__(self) -> None:
        self.value = 7

    def ping(self, ctx: Any) -> Any:
        yield Compute(1.0)
        return self.value


class Toucher(SimObject):
    def touch(self, ctx: Any, far: Far) -> Any:
        got = yield Invoke(far, "ping")   # migrates there and back
        direct = far.value                # WRONG: state lives remotely
        yield Compute(1.0)
        return got + direct


def run_nonresident_touch(seed: int = 0) -> ProgramResult:
    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        far = yield New(Far)
        yield MoveTo(far, 1)
        toucher = yield New(Toucher)
        yield Compute(round(rng.uniform(0.5, 3.0), 3))
        thread = yield Fork(toucher, "touch", far, name="toucher")
        return (yield Join(thread))

    program = AmberProgram(ClusterConfig(nodes=2, cpus_per_node=2))
    return program.run(main, seed)


# ---------------------------------------------------------------------------
# Lock-order inversion (no deadlock observed) and a true deadlock
# ---------------------------------------------------------------------------


class LockUser(SimObject):
    def pair(self, ctx: Any, first: Lock, second: Lock,
             hold_us: float) -> Any:
        yield Invoke(first, "acquire")
        yield Compute(hold_us)
        yield Invoke(second, "acquire")
        yield Compute(hold_us)
        yield Invoke(second, "release")
        yield Invoke(first, "release")


def run_lock_inversion(seed: int = 0) -> ProgramResult:
    """Thread order-ab takes A then B; thread order-ba takes B then A —
    run *sequentially* so the run cannot deadlock, yet the lock-order
    graph must still report the cycle."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        lock_a = yield New(Lock)
        lock_b = yield New(Lock)
        hold = round(rng.uniform(1.0, 5.0), 3)
        for name, first, second in (("order-ab", lock_a, lock_b),
                                    ("order-ba", lock_b, lock_a)):
            user = yield New(LockUser)
            thread = yield Fork(user, "pair", first, second, hold,
                                name=name)
            yield Join(thread)
        return True

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=2))
    return program.run(main, seed)


class RwUser(SimObject):
    def pair(self, ctx: Any, first: Any, second: Any, mode: str,
             hold_us: float) -> Any:
        acquire, release = f"acquire_{mode}", f"release_{mode}"
        yield Invoke(first, acquire)
        yield Compute(hold_us)
        yield Invoke(second, acquire)
        yield Compute(hold_us)
        yield Invoke(second, release)
        yield Invoke(first, release)


def run_rw_inversion(seed: int = 0, mode: str = "read") -> ProgramResult:
    """Two threads take a pair of reader-writer locks in opposite
    orders, *sequentially* (no deadlock possible).  In ``write`` mode
    this is the classic inversion and must produce a lock-order cycle;
    in ``read`` mode the acquisitions don't exclude each other, so no
    AMBSAN-ORDER edge may be recorded at all."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        rw_a = yield New(ReaderWriterLock)
        rw_b = yield New(ReaderWriterLock)
        hold = round(rng.uniform(1.0, 5.0), 3)
        for name, first, second in (("rw-ab", rw_a, rw_b),
                                    ("rw-ba", rw_b, rw_a)):
            user = yield New(RwUser)
            thread = yield Fork(user, "pair", first, second, mode,
                                hold, name=name)
            yield Join(thread)
        return True

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=2))
    return program.run(main, seed)


def run_lock_deadlock(seed: int = 0) -> ProgramResult:
    """The same inversion run *concurrently* with holds long enough to
    interleave fatally: stalls, raising DeadlockError with the wait-for
    cycle report."""

    def main(ctx: Any, seed: int) -> Any:
        lock_a = yield New(Lock)
        lock_b = yield New(Lock)
        user_ab = yield New(LockUser)
        user_ba = yield New(LockUser)
        t1 = yield Fork(user_ab, "pair", lock_a, lock_b, 50_000.0,
                        name="order-ab")
        t2 = yield Fork(user_ba, "pair", lock_b, lock_a, 50_000.0,
                        name="order-ba")
        yield Join(t1)
        yield Join(t2)
        return True

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=2))
    return program.run(main, seed)


# ---------------------------------------------------------------------------
# Opaque state: __slots__/property members the interposition cannot see
# ---------------------------------------------------------------------------


class SlottedTally(SimObject):
    """Counter stored in a slot: reads bypass the ``__dict__``-based
    field hook, so races on it would be silently missed — the sanitizer
    must flag the class as AMBSAN-OPAQUE instead."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        super().__init__()
        self.count = 0


class DerivedTally(SimObject):
    """Counter exposed through a property: values are computed on
    access and stored nowhere the hooks can observe."""

    def __init__(self) -> None:
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def bump(self) -> None:
        self._count += 1


class SlotBumper(SimObject):
    def bump(self, ctx: Any, shared: SlottedTally,
             jitter_us: List[float]) -> Any:
        for pause in jitter_us:
            yield Compute(pause)
            count = shared.count
            yield Compute(1.0)
            shared.count = count + 1


def run_opaque_state(seed: int = 0,
                     rounds: int = DEFAULT_ROUNDS) -> ProgramResult:
    """Two threads race on a slotted counter (a race the field hooks
    cannot fully observe) while a property-bearing object sits nearby:
    both classes must be reported as AMBSAN-OPAQUE."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        shared = yield New(SlottedTally)
        derived = yield New(DerivedTally)
        jitters = [[round(rng.uniform(0.5, 4.0), 3)
                    for _ in range(rounds)] for _ in range(2)]
        threads = []
        for i in range(2):
            anchor = yield New(SlotBumper)
            threads.append((yield Fork(anchor, "bump", shared,
                                       jitters[i], name=f"slot-{i}")))
        for thread in threads:
            yield Join(thread)
        return (shared.count, derived.count)

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=2))
    return program.run(main, seed)


# ---------------------------------------------------------------------------
# Synchronization zoo: every primitive used correctly => must be clean
# ---------------------------------------------------------------------------


class Slot(SimObject):
    def __init__(self) -> None:
        self.value = 0
        self.total = 0



class Phaser(SimObject):
    """Barrier-ordered single-writer/many-readers of ``slot.value``."""

    def run(self, ctx: Any, slot: Slot, barrier: Barrier, rounds: int,
            me: int) -> Any:
        seen = 0
        for rnd in range(rounds):
            if me == 0:
                slot.value = rnd + 1
            yield Invoke(barrier, "wait")
            seen += slot.value
            yield Invoke(barrier, "wait")
        return seen


class MonUser(SimObject):
    """Monitor-protected increments of ``slot.total``."""

    def add(self, ctx: Any, slot: Slot, monitor: Monitor,
            rounds: int) -> Any:
        for _ in range(rounds):
            yield Invoke(monitor, "enter")
            total = slot.total
            yield Compute(1.0)
            slot.total = total + 1
            yield Invoke(monitor, "exit")


class Waiter(SimObject):
    def wait_ready(self, ctx: Any, slot: Slot, monitor: Monitor,
                   cond: CondVar) -> Any:
        yield Invoke(monitor, "enter")
        while slot.value == 0:
            yield Invoke(cond, "wait")
        got = slot.value
        yield Invoke(monitor, "exit")
        return got


class Setter(SimObject):
    def set_ready(self, ctx: Any, slot: Slot, monitor: Monitor,
                  cond: CondVar, value: int) -> Any:
        yield Compute(25.0)
        yield Invoke(monitor, "enter")
        slot.value = value
        yield Invoke(cond, "signal")
        yield Invoke(monitor, "exit")


def run_sync_zoo(seed: int = 0, rounds: int = 3,
                 cpus_per_node: int = 4) -> ProgramResult:
    """Barrier epochs, monitor mutual exclusion, and a condvar handoff,
    all used correctly: the sanitizer must stay silent.
    ``cpus_per_node=1`` serializes the threads so every interleaving is
    a scheduling choice — the AmberCheck scenario explores that variant
    to exhaustion."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        parties = 3
        slot = yield New(Slot)
        barrier = yield New(Barrier, parties)
        monitor = yield New(Monitor)

        phasers = []
        for i in range(parties):
            anchor = yield New(Phaser)
            phasers.append((yield Fork(anchor, "run", slot, barrier,
                                       rounds, i, name=f"phase-{i}")))
        seen = 0
        for thread in phasers:
            seen += yield Join(thread)

        adders = []
        for i in range(2):
            anchor = yield New(MonUser)
            yield Compute(round(rng.uniform(0.5, 2.0), 3))
            adders.append((yield Fork(anchor, "add", slot, monitor,
                                      rounds, name=f"mon-{i}")))
        for thread in adders:
            yield Join(thread)

        hand_mon = yield New(Monitor)
        hand_slot = yield New(Slot)
        cond = yield New(CondVar, hand_mon)
        waiter = yield New(Waiter)
        setter = yield New(Setter)
        tw = yield Fork(waiter, "wait_ready", hand_slot, hand_mon,
                        cond, name="cv-waiter")
        ts = yield Fork(setter, "set_ready", hand_slot, hand_mon,
                        cond, 41, name="cv-setter")
        got = yield Join(tw)
        yield Join(ts)
        return {"phase_seen": seen, "total": slot.total,
                "handoff": got}

    program = AmberProgram(
        ClusterConfig(nodes=1, cpus_per_node=cpus_per_node))
    return program.run(main, seed)


# ---------------------------------------------------------------------------
# AmberCheck fixtures: bugs that hide from single-run analysis
#
# Both run on a uniprocessor node so the interleaving is fully
# determined by scheduling choices (dispatch picks and end-of-segment
# preemptions) — exactly the space repro.analyze.check explores.  On
# the default FIFO schedule each program is clean; the defect manifests
# only when the victim thread is preempted inside a brief window.
# ---------------------------------------------------------------------------


class GateBoard(SimObject):
    """Lock-protected flag plus an unsynchronized payload field."""

    def __init__(self) -> None:
        self.open = 0
        self.data = 0


class WindowWriter(SimObject):
    """Opens the gate for one compute segment, writes the payload
    unsynchronized, then closes the gate.  The window sits at the very
    *start* of the thread while the chaser observes at the *end* of
    its decoy work: a random scheduler keeps both threads at similar
    progress, so catching the window open needs a tail event — the
    chaser winning nearly every timeslice coin-flip in a row."""

    def run(self, ctx: Any, board: GateBoard, guard: Lock,
            jitter_us: List[float], window_us: float) -> Any:
        yield Compute(jitter_us[0])
        yield Invoke(guard, "acquire")
        board.open = 1
        yield Invoke(guard, "release")
        yield Compute(window_us)
        board.data = board.data + 1       # unsynchronized on purpose
        yield Invoke(guard, "acquire")
        board.open = 0
        yield Invoke(guard, "release")
        for pause in jitter_us[1:]:
            yield Compute(pause)


class GateChaser(SimObject):
    """Observes the gate under the lock; writes the payload (also
    unsynchronized) only if it caught the gate open."""

    def run(self, ctx: Any, board: GateBoard, guard: Lock,
            jitter_us: List[float]) -> Any:
        for pause in jitter_us:
            yield Compute(pause)
        yield Invoke(guard, "acquire")
        seen = board.open
        yield Invoke(guard, "release")
        if seen:
            yield Compute(1.0)
            board.data = board.data + 10
        return seen


def run_hidden_race(seed: int = 0, decoys: int = 10) -> ProgramResult:
    """A data race on ``board.data`` that manifests only if the chaser's
    gate observation lands inside the writer's one-segment window —
    rare under random scheduling, clean on the default schedule, found
    deterministically by AmberCheck."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        board = yield New(GateBoard)
        guard = yield New(Lock)
        jitters = [[round(rng.uniform(0.5, 3.0), 3)
                    for _ in range(decoys)] for _ in range(2)]
        writer = yield New(WindowWriter)
        chaser = yield New(GateChaser)
        tw = yield Fork(writer, "run", board, guard, jitters[0],
                        round(rng.uniform(2.0, 5.0), 3), name="opener")
        tc = yield Fork(chaser, "run", board, guard, jitters[1],
                        name="chaser")
        seen = yield Join(tc)
        yield Join(tw)
        return {"data": board.data, "seen": seen}

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=1))
    return program.run(main, seed)


class ModeBoard(SimObject):
    def __init__(self) -> None:
        self.mode = 0


class ModeFlipper(SimObject):
    """Transiently publishes mode=1 (early — see
    :class:`WindowWriter`), then takes A before B."""

    def run(self, ctx: Any, board: ModeBoard, guard: Lock,
            lock_a: Lock, lock_b: Lock, jitter_us: List[float],
            window_us: float) -> Any:
        yield Compute(jitter_us[0])
        yield Invoke(guard, "acquire")
        board.mode = 1
        yield Invoke(guard, "release")
        yield Compute(window_us)
        yield Invoke(guard, "acquire")
        board.mode = 0
        yield Invoke(guard, "release")
        for pause in jitter_us[1:]:
            yield Compute(pause)
        yield Invoke(lock_a, "acquire")
        yield Compute(3.0)
        yield Invoke(lock_b, "acquire")
        yield Compute(1.0)
        yield Invoke(lock_b, "release")
        yield Invoke(lock_a, "release")


class ModeFollower(SimObject):
    """Takes the two locks in an order *decided by* the observed mode:
    B before A only if it caught the transient mode=1."""

    def run(self, ctx: Any, board: ModeBoard, guard: Lock,
            lock_a: Lock, lock_b: Lock,
            jitter_us: List[float]) -> Any:
        for pause in jitter_us:
            yield Compute(pause)
        yield Invoke(guard, "acquire")
        seen = board.mode
        yield Invoke(guard, "release")
        first, second = ((lock_b, lock_a) if seen
                         else (lock_a, lock_b))
        yield Invoke(first, "acquire")
        yield Compute(3.0)
        yield Invoke(second, "acquire")
        yield Compute(1.0)
        yield Invoke(second, "release")
        yield Invoke(first, "release")
        return seen


def run_hidden_deadlock(seed: int = 0, decoys: int = 10) -> ProgramResult:
    """A deadlock reachable only through a double coincidence: the
    follower must observe the transient mode=1 (inverting its lock
    order), and the two lock phases must then interleave fatally.  The
    default schedule is clean — same lock order, no cycle, no stall —
    so single-run ``repro analyze`` cannot see it."""

    def main(ctx: Any, seed: int) -> Any:
        rng = random.Random(seed)
        board = yield New(ModeBoard)
        guard = yield New(Lock)
        lock_a = yield New(Lock)
        lock_b = yield New(Lock)
        jitters = [[round(rng.uniform(0.5, 3.0), 3)
                    for _ in range(decoys)] for _ in range(2)]
        flipper = yield New(ModeFlipper)
        follower = yield New(ModeFollower)
        tf = yield Fork(flipper, "run", board, guard, lock_a, lock_b,
                        jitters[0], round(rng.uniform(2.0, 5.0), 3),
                        name="flipper")
        tg = yield Fork(follower, "run", board, guard, lock_a, lock_b,
                        jitters[1], name="follower")
        seen = yield Join(tg)
        yield Join(tf)
        return {"seen": seen}

    program = AmberProgram(ClusterConfig(nodes=1, cpus_per_node=1))
    return program.run(main, seed)
