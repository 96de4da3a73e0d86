"""``live_fanout``: the live request path under saturation.

One driver thread issues windows of 64 ``fork``s (a tiny int argument)
round-robin over 8 counters that never move, then ``join``s the window:
a closed loop, 1 client, 64 outstanding.  Pipelined on purpose — a serial
one-hop ``Cluster.call`` swings +-40 % on a shared 2-core VM with the
wake-up latency of idle vCPUs, so serial latency is a per-layer number
and the end-to-end rate is the median over pipelined rounds.  Nothing
here depends on the seed.
"""

from __future__ import annotations

from benchmarks.amberbench.workloads.live import COUNTERS, LiveWorkload

SIZES = {
    # windows per round, forks per window, warm-up windows
    "full": (30, 64, 20),
    "smoke": (6, 16, 2),
}


class LiveFanout(LiveWorkload):
    name = "live_fanout"
    work_unit = "calls"

    def setup(self) -> None:
        self.windows, self.window, self._warm = SIZES[self.size]
        self._next = 0
        self.start_cluster()
        with self.rec.span("live_fanout.warmup"):
            self._windows(self._warm)
        self.mark_counts()

    def round(self) -> int:
        return self._windows(self.windows)

    def _windows(self, count: int) -> int:
        cluster, counters, rec = self.cluster, self.counters, self.rec
        for _ in range(count):
            with rec.span("live_fanout.window"):
                threads = []
                for _ in range(self.window):
                    index = self._next % COUNTERS
                    self._next += 1
                    with rec.span("runtime.kernel.fork", self._next):
                        threads.append(
                            cluster.fork(counters[index], "add", 1))
                    self.sent[index] += 1
                for op, thread in enumerate(threads,
                                            self._next - self.window + 1):
                    try:
                        with rec.span("runtime.kernel.join", op):
                            ok = thread.join() > 0
                    except Exception:   # a failed op is counted, not fatal
                        ok = False
                    self.check(ok)
        calls = count * self.window
        self.ops_done += calls
        return calls

    def alloc_probe(self) -> int:
        return self._windows(self._warm)

    def finish(self) -> None:
        with self.rec.span("live_fanout.oracle"):
            self.check_counter_values()
