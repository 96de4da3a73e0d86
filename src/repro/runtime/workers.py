"""The live kernel's elastic worker pool: it runs the callable it is
built with on each message it is handed, and knows nothing of requests.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict

#: Period of worker retirement, seconds: a worker nothing needed for
#: one whole period retires at its end (see :class:`_WorkerPool`).
WORKER_IDLE_S = 1.0


class _WorkerPool:
    """The kernel's elastic worker threads.  Handlers may block (move
    drains, nested requests, live ``Lock``/``CondVar`` waits), so no
    message waits behind a running one: :meth:`submit` hands it to a
    parked worker it claims under the lock (the queue never holds more
    messages than claimed workers), or else starts a thread — the pool
    is unbounded.  :meth:`retire_spare`, called once per
    :data:`WORKER_IDLE_S`, retires the workers nothing claimed since the
    call before."""

    _RETIRE = object()

    def __init__(self, run: Callable[[Any], None], name: str,
                 stats: Dict[str, int]):
        self._run = run
        self._name = name
        self._stats = stats
        self._lock = threading.Lock()
        #: Parked workers no submit has claimed yet, and the fewest
        #: there have been since the last retire_spare.
        self._idle = 0
        self._spare = 0
        self._closed = False
        self._handoff: "queue.SimpleQueue" = queue.SimpleQueue()

    def submit(self, message: Any) -> None:
        with self._lock:
            reuse = self._idle > 0
            if reuse:
                self._idle -= 1
                self._stats["worker_handoffs"] += 1
            else:
                self._stats["workers_started"] += 1
            if self._idle < self._spare:
                self._spare = self._idle
        if reuse:
            self._handoff.put(message)
        else:
            threading.Thread(target=self._work, args=(message,),
                             name=self._name, daemon=True).start()

    def retire_spare(self) -> None:
        with self._lock:
            spare = self._spare
            self._idle -= spare
            self._spare = self._idle
        for _ in range(spare):
            self._handoff.put(self._RETIRE)

    def close(self) -> None:
        """Retire every parked worker now, and the running ones as they
        finish."""
        with self._lock:
            self._closed = True
            self._spare = self._idle
        self.retire_spare()

    def _work(self, message: Any) -> None:
        while message is not self._RETIRE:
            self._run(message)
            with self._lock:
                if self._closed:
                    return
                self._idle += 1
            # No timeout: with several consumers CPython's
            # SimpleQueue.get can outstay one.
            message = self._handoff.get()
