"""Distributed synchronization objects for the live runtime.

These are ordinary Amber objects: create one, hand its Handle to threads
on any node, and every operation ships to wherever the object lives —
a remote ``acquire`` parks the caller's activation *at the lock's node*
until granted, which is exactly the function-shipping behaviour section
4.1 contrasts with DSM lock-page thrashing.

Implementation note: inside its node, each object synchronizes its own
state with a ``threading.Condition`` (the node is a real shared-memory
multiprocessor here — the process's threads).  Those primitives are
process-local and are deliberately dropped and rebuilt when the object
moves; an object with blocked waiters cannot move anyway (the waiters
hold bind counts until released).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import SynchronizationError
from repro.recovery.config import peer_timeout_s
from repro.runtime.objects import AmberObject


def _ceiling(timeout: Optional[float]) -> float:
    """A blocking wait's bound: ``timeout``, or by default the peer
    timeout, so a lost-signal bug in a user program cannot hang a whole
    cluster."""
    return peer_timeout_s() if timeout is None else timeout


class _Synchronized(AmberObject):
    """Shared plumbing: a rebuild-on-arrival Condition variable."""

    def __init__(self) -> None:
        self._cv = threading.Condition()

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_cv", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cv = threading.Condition()


class Lock(_Synchronized):
    """A relinquishing mutual-exclusion lock."""

    def __init__(self) -> None:
        super().__init__()
        self._held = False
        self.acquisitions = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        with self._cv:
            if not self._cv.wait_for(lambda: not self._held,
                                     _ceiling(timeout)):
                raise SynchronizationError(
                    f"lock {self._amber_vaddr:#x}: acquire timed out")
            self._held = True
            self.acquisitions += 1
            return True

    def try_acquire(self) -> bool:
        with self._cv:
            if self._held:
                return False
            self._held = True
            self.acquisitions += 1
            return True

    def release(self) -> None:
        with self._cv:
            if not self._held:
                raise SynchronizationError(
                    f"lock {self._amber_vaddr:#x}: release while free")
            self._held = False
            self._cv.notify()

    def locked(self) -> bool:
        with self._cv:
            return self._held


class Barrier(_Synchronized):
    """N-party reusable barrier; ``wait`` returns True for exactly one
    party per cycle."""

    def __init__(self, parties: int) -> None:
        super().__init__()
        if parties < 1:
            raise SynchronizationError(
                f"barrier needs >=1 party, got {parties}")
        self.parties = parties
        self._count = 0
        self._generation = 0
        self.cycles = 0

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._cv:
            generation = self._generation
            self._count += 1
            if self._count == self.parties:
                self._count = 0
                self._generation += 1
                self.cycles += 1
                self._cv.notify_all()
                return True
            if not self._cv.wait_for(
                    lambda: self._generation != generation,
                    _ceiling(timeout)):
                raise SynchronizationError(
                    f"barrier {self._amber_vaddr:#x}: timed out with "
                    f"{self._count}/{self.parties} arrived")
            return False


class CondVar(_Synchronized):
    """A standalone condition: ``wait`` blocks until a later ``signal``
    (one waiter) or ``broadcast`` (all current waiters).  Signals sent
    with no waiters present wake the next waiter (semaphore-flavoured, so
    the classic send-before-wait race cannot hang a program)."""

    def __init__(self) -> None:
        super().__init__()
        self._tickets = 0
        self._broadcast_generation = 0

    def wait(self, timeout: Optional[float] = None) -> None:
        with self._cv:
            generation = self._broadcast_generation

            def ready() -> bool:
                return (self._tickets > 0
                        or self._broadcast_generation != generation)

            if not self._cv.wait_for(ready, _ceiling(timeout)):
                raise SynchronizationError(
                    f"condvar {self._amber_vaddr:#x}: wait timed out")
            if self._broadcast_generation == generation:
                self._tickets -= 1

    def signal(self) -> None:
        with self._cv:
            self._tickets += 1
            self._cv.notify()

    def broadcast(self) -> None:
        with self._cv:
            self._broadcast_generation += 1
            self._cv.notify_all()
