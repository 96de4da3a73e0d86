"""``live_mobility``: the write side of the live kernel.

Closed-loop client threads (2, or 1 on a single CPU) each own 4 counters
and loop: ``move`` a counter to the other worker node, then ``call`` it.
The call goes to the now-stale location, chases exactly one forwarding
hop, and the executing node sends location hints back — move, install,
drain, forwarding and hints, none of which ``live_fanout`` touches.  The
seed fixes which counter each pair moves, hence the destination order.
"""

from __future__ import annotations

import os
import random
import threading
from typing import List

from benchmarks.amberbench.workloads.live import COUNTERS, LiveWorkload

SIZES = {
    # move+call pairs per round, warm-up pairs
    "full": (300, 200),
    "smoke": (40, 8),
}


class LiveMobility(LiveWorkload):
    name = "live_mobility"
    work_unit = "move+call pairs"

    def setup(self) -> None:
        self.pairs, self._warm = SIZES[self.size]
        self.clients = min(2, len(os.sched_getaffinity(0)))
        self._rng = random.Random(self.seed)
        self.start_cluster()
        #: Where each counter lives now (it was created on 1 + i % 2).
        self.where = [1 + index % 2 for index in range(COUNTERS)]
        self.moves_issued = 0
        with self.rec.span("live_mobility.warmup"):
            self._pairs(self._warm)
        self.mark_counts()

    def round(self) -> int:
        return self._pairs(self.pairs)

    def _pairs(self, count: int) -> int:
        per_client = count // self.clients
        owned = COUNTERS // self.clients
        # The destination order comes from the seed; the clients receive
        # only the generated picks (drawing them is ~0.05 % of a round).
        picks = [[client * owned + self._rng.randrange(owned)
                  for _ in range(per_client)]
                 for client in range(self.clients)]
        outcomes: List[List[bool]] = [[] for _ in picks]
        threads = [threading.Thread(target=self._client,
                                    args=(pick, outcomes[client]),
                                    name=f"amberbench-client-{client}")
                   for client, pick in enumerate(picks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for outcome in outcomes:        # tallied here, on one thread
            for ok in outcome:
                self.check(ok)
        done = per_client * self.clients
        self.ops_done += done
        self.moves_issued += done
        return done

    def _client(self, picks: List[int], outcome: List[bool]) -> None:
        cluster, counters, rec = self.cluster, self.counters, self.rec
        for op, index in enumerate(picks):
            dest = 3 - self.where[index]      # the other of nodes 1, 2
            try:
                with rec.span("live_mobility.pair", op):
                    with rec.span("runtime.kernel.move", op):
                        cluster.move(counters[index], dest)
                    self.where[index] = dest
                    self.sent[index] += 1
                    with rec.span("runtime.kernel.call_forwarded", op):
                        ok = (cluster.call(counters[index], "add", 1)
                              == self.sent[index])
            except Exception:   # a failed op is counted, not fatal
                ok = False
            outcome.append(ok)

    def alloc_probe(self) -> int:
        return self._pairs(self._warm)

    def finish(self) -> None:
        with self.rec.span("live_mobility.oracle"):
            self.check_counter_values()
            for handle, node in zip(self.counters, self.where):
                self.check(self.cluster.locate(handle) == node)
            moved = sum(
                self.cluster.node_stats(node)[key]
                for node in range(self.cluster.num_nodes)
                for key in ("moves_in", "moves_out"))
            # Every move changed residence: one out, one in.
            self.check(moved == 2 * self.moves_issued)
