"""Stages: each layer timed on its own, from outside, through public
functions only.

A stage drives one layer with a fixed input and reports host time per
operation.  Stages do not depend on the workload, so every traced run
measures all of them; what a later change to a layer should do to each
end-to-end metric is written down in README.md.
"""

from __future__ import annotations

import pickle
import queue
import socket
import statistics
from time import monotonic_ns, perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List

import numpy as np

from repro.analyze.check import check_program
from repro.analyze.fixtures import run_hidden_race
from repro.analyze.runtime import sanitize_runs
from repro.apps.sor import (
    PAPER_COLS,
    PAPER_ROWS,
    SorProblem,
    run_amber_sor,
    sweep_color,
)
from repro.obs.metrics import LatencyHistogram
from repro.runtime import AmberObject, Cluster
from repro.runtime import Lock as LiveLock
from repro.runtime.messages import InvokeMsg, ResultMsg
from repro.runtime.transport import Mesh, recv_frame, send_frame
from repro.sim import (
    Barrier,
    Charge,
    Fork,
    Invoke,
    Join,
    Lock,
    MoveTo,
    New,
    SimObject,
)
from repro.sim.engine import Simulator
from repro.sim.program import run_program
from repro.sim.scheduler import FifoScheduler, PriorityScheduler
from repro.sim.thread import SimThread

from benchmarks.amberbench import calibration
from benchmarks.amberbench.workloads import sim_sor

Metrics = Dict[str, float]


def _median_s(fn: Callable[[], Any], reps: int = 5) -> float:
    """Median wall time of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _each_us(fn: Callable[[], Any], n: int) -> List[float]:
    """Wall time of each of ``n`` serial calls, microseconds."""
    out = []
    for _ in range(n):
        t0 = perf_counter_ns()
        fn()
        out.append((perf_counter_ns() - t0) / 1e3)
    return out


# ---------------------------------------------------------------------------
# Simulator side
# ---------------------------------------------------------------------------


def sim_stages(rec: Any, scale: float) -> Metrics:
    out: Metrics = {}
    for name, stage in (("sim.engine", _engine), ("sim.kernel", _kernel),
                        ("sim.scheduler", _scheduler),
                        ("sim.sync", _sync), ("apps", _apps),
                        ("obs", _obs), ("analyze", _analyze),
                        ("host", _host)):
        with rec.span(f"stage:{name}"):
            out.update(stage(scale))
    return out


def _engine(scale: float) -> Metrics:
    """Schedule, cancel and run no-op events."""
    budget_per_run = max(500, int(30_000 * scale))
    events = [0]

    def churn() -> None:
        sim = Simulator()
        budget = [budget_per_run]

        def noop() -> None:
            pass

        def tick() -> None:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            sim.schedule_us(5.0, noop).cancel()
            sim.schedule_us(1.0, tick)

        for lane in range(64):
            sim.schedule_us(float(lane % 7), tick)
        sim.run()
        events[0] = sim.events_run

    seconds = _median_s(churn)
    return {"sim.engine.churn_ns_per_event": seconds * 1e9 / events[0]}


def _kernel(scale: float) -> Metrics:
    """Local invoke, remote invoke, move and fork+join, each as a sim
    program doing nothing else."""
    class Cell(SimObject):
        SIZE_BYTES = 64

        def __init__(self) -> None:
            self.value = 0

        def add(self, ctx: Any, n: int) -> int:
            self.value += n
            return self.value

        def add_thread(self, ctx: Any, n: int):
            # A generator: Fork of a plain method trips an IndexError in
            # the sim kernel's return path (reported, not fixed here).
            yield Charge(1.0)
            return self.add(ctx, n)

    n = max(20, int(400 * scale))

    def invoke_main(ctx: Any, on_node: int):
        cell = yield New(Cell, on_node=on_node)
        for _ in range(n):
            yield Invoke(cell, "add", 1)

    def move_main(ctx: Any):
        cell = yield New(Cell)
        for index in range(n):
            yield MoveTo(cell, 1 - index % 2)

    def fork_main(ctx: Any):
        cell = yield New(Cell)
        for _ in range(n):
            thread = yield Fork(cell, "add_thread", 1)
            yield Join(thread)

    def per_op_us(main: Any, *args: Any, nodes: int) -> float:
        seconds = _median_s(lambda: run_program(
            main, *args, nodes=nodes, cpus_per_node=2))
        return seconds * 1e6 / n

    return {
        "sim.kernel.local_invoke_host_us": per_op_us(invoke_main, 0,
                                                     nodes=1),
        "sim.kernel.remote_invoke_host_us": per_op_us(invoke_main, 1,
                                                      nodes=2),
        "sim.kernel.move_host_us": per_op_us(move_main, nodes=2),
        "sim.kernel.fork_join_host_us": per_op_us(fork_main, nodes=1),
    }


def _scheduler(scale: float) -> Metrics:
    """Enqueue/dequeue rounds on the FIFO and priority ready queues."""
    threads = [SimThread(tid, f"t{tid}", priority=tid % 4)
               for tid in range(32)]
    rounds = max(10, int(300 * scale))

    def pick() -> None:
        for scheduler in (FifoScheduler(), PriorityScheduler()):
            for _ in range(rounds):
                for thread in threads:
                    scheduler.enqueue(thread)
                while scheduler.dequeue() is not None:
                    pass

    ops = 2 * rounds * 2 * len(threads)
    return {"sim.scheduler.pick_ns": _median_s(pick) * 1e9 / ops}


def _sync(scale: float) -> Metrics:
    """Uncontended acquire/release, and an 8-thread barrier."""
    n = max(20, int(300 * scale))
    parties = 8
    cycles = max(5, int(40 * scale))

    def lock_main(ctx: Any):
        lock = yield New(Lock)
        for _ in range(n):
            yield Invoke(lock, "acquire")
            yield Invoke(lock, "release")

    class Party(SimObject):
        SIZE_BYTES = 64

        def run(self, ctx: Any, barrier: Barrier):
            for _ in range(cycles):
                yield Invoke(barrier, "wait")

    def barrier_main(ctx: Any):
        barrier = yield New(Barrier, parties)
        threads = []
        for _ in range(parties):
            party = yield New(Party)
            threads.append((yield Fork(party, "run", barrier)))
        for thread in threads:
            yield Join(thread)

    lock_s = _median_s(lambda: run_program(lock_main, nodes=1,
                                           cpus_per_node=1))
    barrier_s = _median_s(lambda: run_program(barrier_main, nodes=1,
                                              cpus_per_node=4))
    return {
        "sim.sync.lock_host_us": lock_s * 1e6 / n,
        "sim.sync.barrier_host_us": barrier_s * 1e6 / (parties * cycles),
    }


def _apps(scale: float) -> Metrics:
    """``sweep_color`` at the shapes ``sim_sor`` calls it with: one
    worker's row band of a section's interior, and one boundary column."""
    rows = PAPER_ROWS
    ncols = PAPER_COLS // 8     # 8 sections on 8 nodes
    band = rows // 4            # 4 workers per section, one per CPU
    cells = np.random.default_rng(0).random(
        (rows + 2, ncols + 2), dtype=np.float32)
    n = max(20, int(400 * scale))

    def band_sweeps() -> None:
        for index in range(n):
            sweep_color(cells, 1.5, index % 2, row0=1, row1=1 + band,
                        col0=2, col1=ncols)

    def edge_sweeps() -> None:
        for index in range(n):
            sweep_color(cells, 1.5, index % 2, row0=1, row1=1 + rows,
                        col0=1, col1=2)

    return {
        "apps.sor_sweep_us": _median_s(band_sweeps) * 1e6 / n,
        # Not reported on its own: feeds apps.user_code_share.
        "apps.sor_edge_sweep_us": _median_s(edge_sweeps) * 1e6 / n,
    }


def _obs(scale: float) -> Metrics:
    """One ``LatencyHistogram.observe``, which every invoke pays."""
    n = max(1000, int(50_000 * scale))

    def observe() -> None:
        histogram = LatencyHistogram("amberbench")
        for index in range(n):
            histogram.observe(1.0 + index % 977)

    return {"obs.metrics.observe_ns": _median_s(observe) * 1e9 / n}


def _analyze(scale: float) -> Metrics:
    """What the attached tools cost: a sanitized run against a plain
    one, and a bounded AmberCheck exploration."""
    problem = SorProblem(rows=PAPER_ROWS, cols=PAPER_COLS,
                         iterations=max(2, int(10 * scale)))

    def plain() -> None:
        run_amber_sor(problem, nodes=sim_sor.NODES,
                      cpus_per_node=sim_sor.CPUS_PER_NODE)

    def sanitized() -> None:
        with sanitize_runs():
            plain()

    slowdown = _median_s(sanitized, 3) / _median_s(plain, 3)
    budget = max(5, int(30 * scale))
    t0 = perf_counter()
    report = check_program(lambda: run_hidden_race(0), name="amberbench",
                           budget=budget)
    check_s = perf_counter() - t0
    return {
        "analyze.sanitizer.slowdown_x": slowdown,
        "analyze.check.schedules_per_s": report.schedules / check_s,
    }


def _host(scale: float) -> Metrics:
    """Says how fast this host is, so per-layer times taken on different
    machines, or in different minutes, can be normalised.  Never gated."""
    return {"host.calibration_ops_per_s": calibration.ops_per_s()}


# ---------------------------------------------------------------------------
# Live side
# ---------------------------------------------------------------------------


def live_stages(rec: Any, scale: float) -> Metrics:
    out: Metrics = {}
    with rec.span("stage:runtime.messages"):
        out.update(_messages(scale))
    with rec.span("stage:runtime.transport"):
        out.update(_mesh(scale))
    with rec.span("stage:runtime.kernel"):
        out.update(_live_kernel(rec, scale))
    out["runtime.kernel.overhead_x"] = (
        out["runtime.kernel.call_onehop_p50_us"]
        / out["runtime.transport.mesh_roundtrip_us"])
    return out


def _messages(scale: float) -> Metrics:
    """Pickle + framing of one request/reply pair over a socketpair:
    ``send_frame`` is the encode side, ``recv_frame`` the decode side."""
    n = max(50, int(2000 * scale))
    out: Metrics = {}
    left, right = socket.socketpair()
    try:
        for sock in (left, right):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        for suffix, payload, reps in (("", 1, n),
                                      ("_64k", bytes(64 * 1024), n // 10)):
            pair = (InvokeMsg(7, 0, 0x1100000, "add", (payload,), {},
                              trace=(0,)),
                    ResultMsg(7, True, 1))
            encode, decode = [], []
            for _ in range(reps):
                t0 = perf_counter_ns()
                for message in pair:
                    send_frame(left, message)
                t1 = perf_counter_ns()
                for message in pair:
                    if recv_frame(right) != message:
                        raise AssertionError("frame did not round-trip")
                t2 = perf_counter_ns()
                encode.append((t1 - t0) / 1e3)
                decode.append((t2 - t1) / 1e3)
            out[f"runtime.messages.encode{suffix}_us"] = \
                statistics.median(encode)
            out[f"runtime.messages.decode{suffix}_us"] = \
                statistics.median(decode)
            out[f"runtime.messages.frame{suffix}_bytes"] = sum(
                4 + len(pickle.dumps(message,
                                     protocol=pickle.HIGHEST_PROTOCOL))
                for message in pair)
    finally:
        left.close()
        right.close()
    return out


def _mesh(scale: float) -> Metrics:
    """Ping-pong between two loopback ``Mesh`` endpoints: the transport's
    own round trip, with no kernel above it."""
    n = max(30, int(500 * scale))
    inbox_a: "queue.Queue[Any]" = queue.Queue()
    inbox_b: "queue.Queue[Any]" = queue.Queue()
    mesh_a = Mesh(0, lambda peer, message: inbox_a.put(message))
    mesh_b = Mesh(1, lambda peer, message: inbox_b.put(message))
    try:
        directory = {0: mesh_a.address, 1: mesh_b.address}
        mesh_a.set_directory(directory)
        mesh_b.set_directory(directory)

        def roundtrip() -> None:
            mesh_a.send(1, "ping")
            inbox_b.get(timeout=10.0)
            mesh_b.send(0, "pong")
            inbox_a.get(timeout=10.0)

        roundtrip()     # dial both directions before timing
        trips = _each_us(roundtrip, n)
    finally:
        mesh_a.close()
        mesh_b.close()
    return {"runtime.transport.mesh_roundtrip_us": statistics.median(trips)}


def _live_kernel(rec: Any, scale: float) -> Metrics:
    """One 3-node cluster, one client, everything serial: what a single
    operation costs with nothing else in flight."""
    n = max(30, int(2000 * scale))
    few = max(10, n // 10)
    out: Metrics = {}
    t0 = perf_counter()
    cluster = Cluster(nodes=3)
    out["runtime.coordinator.start_s"] = perf_counter() - t0
    try:
        here = cluster.create(Probe, node=0)
        there = cluster.create(Probe, node=1)
        mover = cluster.create(Probe, node=1)
        lock = cluster.create(LiveLock, node=1)
        for handle in (here, there, mover):
            cluster.call(handle, "touch")

        with rec.span("stage:runtime.kernel.call_local"):
            # Through the handle, not Cluster.call, so the cluster's
            # invoke_us histogram below holds remote calls only.
            out["runtime.kernel.call_local_us"] = statistics.median(
                _each_us(here.touch, n))
        with rec.span("stage:runtime.kernel.call_onehop"):
            onehop = _each_us(lambda: cluster.call(there, "touch"), n)
        out["runtime.kernel.call_onehop_p50_us"] = statistics.median(onehop)
        out["runtime.kernel.call_onehop_p99_us"] = \
            statistics.quantiles(onehop, n=100)[98]

        with rec.span("stage:runtime.kernel.call_forwarded"):
            forwarded = []
            for index in range(few):
                cluster.move(mover, 2 - index % 2)
                # The first call after a move goes to the stale node.
                forwarded += _each_us(
                    lambda: cluster.call(mover, "touch"), 1)
                cluster.locate(mover)
        out["runtime.kernel.call_forwarded_p50_us"] = \
            statistics.median(forwarded)

        with rec.span("stage:runtime.kernel.fork_issue"):
            issue = []
            for _ in range(max(1, n // 50)):
                threads: List[Any] = []
                issue += _each_us(lambda: threads.append(
                    cluster.fork(there, "touch")), 50)
                for thread in threads:
                    thread.join()
        out["runtime.kernel.fork_issue_us"] = statistics.median(issue)

        with rec.span("stage:runtime.kernel.stamps"):
            request, execute, reply = [], [], []
            for _ in range(n):
                sent = monotonic_ns()
                entered, left = cluster.call(there, "stamp")
                back = monotonic_ns()
                request.append((entered - sent) / 1e3)
                execute.append((left - entered) / 1e3)
                reply.append((back - left) / 1e3)
        out["runtime.kernel.request_path_us"] = statistics.median(request)
        out["runtime.kernel.execute_us"] = statistics.median(execute)
        out["runtime.kernel.reply_path_us"] = statistics.median(reply)

        with rec.span("stage:runtime.transport.bulk"):
            blob = bytes(64 * 1024)
            windows = max(2, few // 10)
            t0 = perf_counter()
            for _ in range(windows):
                threads = [cluster.fork(there, "take", blob)
                           for _ in range(16)]
                for thread in threads:
                    if thread.join() != len(blob):
                        raise AssertionError("bulk payload was truncated")
            bulk_s = perf_counter() - t0
        out["runtime.transport.bulk_mib_per_s"] = (
            windows * 16 * len(blob) / (1 << 20) / bulk_s)

        with rec.span("stage:runtime.sync.lock"):
            def lock_pair() -> None:
                cluster.call(lock, "acquire")
                cluster.call(lock, "release")
            out["runtime.sync.lock_roundtrip_us"] = statistics.median(
                _each_us(lock_pair, few))

        for name, histogram in cluster.metrics.histograms.items():
            out[f"runtime.cluster.{name}_p50"] = histogram.percentile(50)
    finally:
        t0 = perf_counter()
        cluster.shutdown()
        out["runtime.coordinator.shutdown_s"] = perf_counter() - t0
    return out


class Probe(AmberObject):
    """Benchmark-owned object for the live stages."""
    def touch(self) -> int:
        return 1

    def stamp(self) -> tuple:
        """Clock readings taken on the executing node; the monotonic
        clock is one clock for every process of this host."""
        entered = monotonic_ns()
        return entered, monotonic_ns()

    def take(self, blob: bytes) -> int:
        return len(blob)
