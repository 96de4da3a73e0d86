"""The live kernel's elastic worker pool: nothing queues behind a
blocked handler, parked threads are reused, idle ones retire."""

import sys
import threading
import time

import pytest

from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import AmberObject, Cluster
from repro.runtime.frames import _LENGTH
from repro.runtime.workers import WORKER_IDLE_S, _WorkerPool


class Gate(AmberObject):
    """Created on the node it is tested on and never moved (an Event
    does not pickle)."""

    def __init__(self):
        self._event = threading.Event()

    def wait(self):
        return self._event.wait(30)

    def open(self):
        self._event.set()
        return True

    def poke(self):
        return "ok"

    def threads(self):
        return threading.active_count()


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=2) as c:
        yield c


def _pool_stats(cluster, node=1):
    stats = cluster.node_stats(node)
    return stats["workers_started"], stats["worker_handoffs"]


class TestLivePool:
    def test_no_head_of_line_blocking(self, cluster):
        gate = cluster.create(Gate, node=1)
        # Leave a few workers parked, then block more invocations than
        # any idle count inside the method.
        for thread in [cluster.fork(gate, "poke") for _ in range(8)]:
            assert thread.join(timeout=15) == "ok"
        started, _ = _pool_stats(cluster)
        blocked = [cluster.fork(gate, "wait") for _ in range(started + 24)]
        t0 = time.monotonic()
        # One more on the same node must get a thread of its own.
        assert cluster.call(gate, "open") is True
        assert [thread.join(timeout=15) for thread in blocked] == \
            [True] * len(blocked)
        assert time.monotonic() - t0 < 15

    def test_sequential_calls_reuse_one_worker(self, cluster):
        gate = cluster.create(Gate, node=1)
        assert cluster.call(gate, "poke") == "ok"
        started, handoffs = _pool_stats(cluster)
        for _ in range(300):
            assert cluster.call(gate, "poke") == "ok"
        started_after, handoffs_after = _pool_stats(cluster)
        assert started_after - started < 10
        assert handoffs_after - handoffs >= 290

    def test_idle_workers_retire(self, cluster):
        gate = cluster.create(Gate, node=1)
        assert cluster.call(gate, "poke") == "ok"   # connections dialed
        # A worker nothing used for one whole period leaves at its end:
        # two periods of quiet empty the pool, whatever the phase.
        quiet = 2 * WORKER_IDLE_S + 0.3
        time.sleep(quiet)
        before = cluster.call(gate, "threads")
        burst = [cluster.fork(gate, "wait") for _ in range(20)]
        deadline = time.monotonic() + 10
        while cluster.call(gate, "threads") < before + 20:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert cluster.call(gate, "open") is True
        assert all(thread.join(timeout=15) for thread in burst)
        time.sleep(quiet)
        assert cluster.call(gate, "threads") == before


class TestBadFrameRecovery:
    def test_resend_ladder_recovers_from_a_poisoned_connection(
            self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")   # RTO base 0.5 s
        with Cluster(nodes=2) as cluster:
            gate = cluster.create(Gate, node=1)
            assert cluster.call(gate, "poke") == "ok"
            garbage = b"not a pickle"
            cluster.kernel.mesh._out[1].sendall(
                _LENGTH.pack(len(garbage)) + garbage)
            # Node 1 drops the connection; the frame that finds it dead
            # is lost or fails, and the ladder redials.
            deadline = time.monotonic() + 10
            while cluster.node_stats(1)["transport_bad_frames"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert cluster.call(gate, "poke") == "ok"
            assert cluster.node_stats(0)["transport_reconnects"] >= 1


class Tally(AmberObject):
    def __init__(self):
        self.bumps = 0

    def bump(self):
        self.bumps += 1
        return self.bumps

    def value(self):
        return self.bumps


class TestResendsDoNotQueue:
    def test_stuck_resend_does_not_delay_another_requests(
            self, monkeypatch):
        """One request's re-sends hang the way a redial of a killed
        peer does; a dropped request to a healthy peer must still be
        retransmitted on its own RTO, with nobody joining either."""
        with Cluster(nodes=3) as cluster:
            healthy = cluster.create(Tally, node=1)
            dead = cluster.create(Tally, node=2)
            assert cluster.call(healthy, "value") == 0
            assert cluster.call(dead, "value") == 0
            monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")   # RTO base 0.5 s
            kernel = cluster.kernel
            # The one seam every outbound frame passes.
            mesh_post = kernel.mesh.post
            first_frames = set()
            stuck, release = threading.Event(), threading.Event()

            def post(node, message):
                if getattr(message, "method", None) == "bump":
                    if node not in first_frames:
                        first_frames.add(node)
                        return False            # lost on the wire
                    if node == 2:
                        stuck.set()
                        release.wait(30)
                return mesh_post(node, message)

            kernel.mesh.post = post
            try:
                doomed = cluster.fork(dead, "bump")
                assert stuck.wait(10)
                t0 = time.monotonic()
                thread = cluster.fork(healthy, "bump")
                deadline = t0 + 10
                while cluster.call(healthy, "value") == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                # Due after one RTO (0.5 s) and a resender tick.
                assert time.monotonic() - t0 < 2.0
                assert not release.is_set()
            finally:
                release.set()
                kernel.mesh.post = mesh_post
            assert thread.join(timeout=10) == 1
            assert doomed.join(timeout=10) == 1
            assert kernel.stats["resends"] >= 2


class TestPostedForks:
    """``fork`` writes at once to a peer that is idle as far as this
    node knows and only posts to one that already holds its work; what
    is posted leaves with the next write to that peer, a joiner's
    flush, or the pool worker woken for the first frame into an empty
    outbox."""

    def test_lone_fork_to_an_idle_peer_is_written_when_fork_returns(
            self, cluster):
        gate = cluster.create(Gate, node=1)
        assert cluster.call(gate, "poke") == "ok"
        kernel = cluster.kernel
        assert not kernel._unanswered[1]        # nothing outstanding
        before = cluster.node_stats(0)
        thread = cluster.fork(gate, "poke")
        after = cluster.node_stats(0)           # local: sends nothing
        assert after["transport_writes"] == before["transport_writes"] + 1
        assert after["transport_sends"] == before["transport_sends"] + 1
        assert not kernel._posted
        assert thread.join(timeout=15) == "ok"

    def test_fork_to_a_busy_peer_is_posted_and_a_join_flushes_it(
            self, cluster, monkeypatch):
        gate = cluster.create(Gate, node=1)
        assert cluster.call(gate, "poke") == "ok"
        kernel = cluster.kernel
        # No flush worker: the joiner has to do it.
        monkeypatch.setattr(kernel._workers, "submit", lambda token: None)
        blocked = cluster.fork(gate, "wait")    # idle peer: written
        before = cluster.node_stats(0)
        posted = [cluster.fork(gate, "poke") for _ in range(5)]
        after = cluster.node_stats(0)
        assert after["transport_writes"] == before["transport_writes"]
        assert after["transport_sends"] == before["transport_sends"] + 5
        assert kernel._posted == {1}
        assert len(kernel.mesh._outboxes[1].frames) == 5
        assert posted[-1].join(timeout=15) == "ok"
        assert not kernel._posted
        assert cluster.node_stats(0)["transport_writes"] == \
            before["transport_writes"] + 1
        assert [thread.join(timeout=15) for thread in posted[:-1]] == \
            ["ok"] * 4
        monkeypatch.undo()
        assert cluster.call(gate, "open") is True
        assert blocked.join(timeout=15) is True

    def test_unjoined_burst_is_sent_by_the_flush_worker(
            self, cluster, monkeypatch):
        """Nobody joins, nothing else is sent, the issuing thread goes
        to sleep: the pool worker woken for the first posted frame
        writes the burst — long before the resend ladder (RTO 0.5 s
        here) would have."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")
        tally = cluster.create(Tally, node=1)
        assert cluster.call(tally, "value") == 0
        kernel = cluster.kernel
        resends = kernel.stats["resends"]
        t0 = time.monotonic()
        threads = [cluster.fork(tally, "bump") for _ in range(32)]
        while kernel.mesh._outboxes[1].frames:
            assert time.monotonic() - t0 < 1.0
            time.sleep(0.002)
        while cluster.call(tally, "value") < 32:
            assert time.monotonic() - t0 < 1.0
            time.sleep(0.002)
        assert kernel.stats["resends"] == resends
        assert sorted(thread.join(timeout=15) for thread in threads) == \
            list(range(1, 33))

    def test_a_window_of_forks_costs_the_driver_few_writes(self):
        with Cluster(nodes=3) as cluster:
            tallies = [cluster.create(Tally, node=1 + index % 2)
                       for index in range(8)]

            def window():
                threads = [cluster.fork(tallies[index % 8], "bump")
                           for index in range(64)]
                for thread in threads:
                    assert thread.join(timeout=15) > 0

            window()                            # dial, warm the pools
            costs = []
            for _ in range(5):
                before = cluster.node_stats(0)
                window()
                after = cluster.node_stats(0)
                assert after["transport_sends"] \
                    - before["transport_sends"] == 64
                costs.append(after["transport_writes"]
                             - before["transport_writes"])
            # 64 at one write a frame; 2 if every fork found its peer
            # busy.  Replies that overtake the issuing thread make a
            # peer idle again, so the count moves with the scheduler
            # (and a loaded host moves it for several windows running):
            # the best window shows what batching can do.
            assert min(costs) <= 16, costs
            assert cluster.node_stats(0)["resends"] == 0


class TestPoolUnit:
    def test_every_message_runs_once_while_workers_retire(self):
        """Submits race with retirement: a message handed to a worker
        must run exactly once, whoever else is being told to leave."""
        seen = []
        seen_lock = threading.Lock()

        def run(message):
            if message % 7 == 0:
                time.sleep(0.003)
            with seen_lock:
                seen.append(message)

        stats = {"workers_started": 0, "worker_handoffs": 0}
        pool = _WorkerPool(run, "test-worker", stats)
        per_producer, producers = 1500, 4
        total = per_producer * producers
        producing = threading.Event()
        producing.set()

        def produce(base):
            for index in range(per_producer):
                pool.submit(base + index)
                if index % 50 == 0:
                    time.sleep(0.004)   # let some workers go spare

        def retire():
            while producing.is_set():
                pool.retire_spare()
                time.sleep(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce,
                                        args=(n * per_producer,))
                       for n in range(producers)]
            threads.append(threading.Thread(target=retire))
            for thread in threads:
                thread.start()
            for thread in threads[:-1]:
                thread.join(timeout=60)
            producing.clear()
            threads[-1].join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with seen_lock:
                    if len(seen) >= total:
                        break
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(total))
        assert stats["workers_started"] + stats["worker_handoffs"] == total
        assert stats["worker_handoffs"] > 0
        # Workers came and went, and two quiet periods retire the rest.
        assert stats["workers_started"] > 2 * len(_pool_threads())
        pool.retire_spare()
        pool.retire_spare()
        _wait_for_no_pool_threads()
        assert pool._idle == 0 and pool._handoff.empty()

    def test_close_retires_parked_and_running_workers(self):
        release = threading.Event()
        pool = _WorkerPool(lambda message: message.wait(10),
                           "test-worker",
                           {"workers_started": 0, "worker_handoffs": 0})
        done = threading.Event()
        done.set()
        pool.submit(release)           # still running at close()
        pool.submit(done)              # finishes at once and parks
        deadline = time.monotonic() + 10
        while pool._idle != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_pool_threads()) == 2
        pool.close()
        release.set()
        _wait_for_no_pool_threads()


def _pool_threads():
    return [thread for thread in threading.enumerate()
            if thread.name == "test-worker"]


def _wait_for_no_pool_threads():
    deadline = time.monotonic() + 10
    while _pool_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _pool_threads()
