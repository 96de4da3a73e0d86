"""AmberChaos: live-runtime chaos scenarios with a pass/fail verdict.

Where :mod:`repro.faults.scenario` runs the deterministic *simulator*
under a :class:`~repro.faults.plan.FaultPlan`, this suite runs the
**live multiprocess runtime** — real forked node processes, real TCP —
under the same plan, injected by :mod:`repro.faults.live`.  Five
scenarios cover the hardening layers; ``docs/CHAOS.md`` tabulates what
each proves.  Used by ``python -m repro chaos`` and the chaos test-suite.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List

from repro.faults.live import schedule_fingerprint
from repro.faults.plan import FaultPlan, NodeCrash
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime.objects import AmberObject
from repro.selfcheck import PASS_FAIL, Outcome, Report, Suite, guarded

#: Counters merged from every node's kernel snapshot into the report.
LIVE_COUNTER_NAMES = (
    "resends",
    "dedup_in_flight",
    "dedup_replayed",
    "circuit_fast_fails",
    "circuit_reroutes",
    "circuit_opens",
    "circuit_probes",
    "circuit_closes",
    "chaos_frames",
    "chaos_dropped",
    "chaos_duplicated",
    "chaos_delayed",
    "chaos_resets",
    "chaos_partition_drops",
    "transport_retries",
    "transport_reconnects",
    "transport_dropped_on_close",
    "coordinator_reconnects",
)


def _body(outcome: Outcome) -> List[str]:
    fields = outcome.fields
    lines = []
    if fields["plan"]:
        lines.append(f"  plan: {fields['plan']}")
    if fields["fingerprint"]:
        lines.append(f"  schedule fingerprint: {fields['fingerprint']}")
    lines.append(f"  elapsed: {fields['elapsed_s']:.1f} s")
    if fields["detail"]:
        lines.append(f"  {fields['detail']}")
    return lines


CHAOS_SUITE = Suite(
    key="scenarios",
    fields=("name", "description", "plan", "ok", "elapsed_s",
            "fingerprint", "counters", "detail"),
    line=PASS_FAIL, body=_body,
    trailer="\ntotals: {totals}\noverall: {verdict}",
    counter_names=LIVE_COUNTER_NAMES)


def chaos_report(seed: int, fast: bool,
                 outcomes: List[Outcome]) -> Report:
    """The report of one ``repro chaos`` invocation."""
    return Report(
        CHAOS_SUITE,
        title=[f"Live chaos report (seed {seed})", "=" * 52],
        params={"seed": seed, "fast": fast}, outcomes=outcomes)


class ChaosCounter(AmberObject):
    """Minimal stateful probe object for the dedup/failure scenarios."""

    def __init__(self):
        self.count = 0

    def add(self, amount=1):
        self.count += amount
        return self.count

    def get(self):
        return self.count


@contextmanager
def _peer_timeout(seconds: float):
    """Pin REPRO_PEER_TIMEOUT_S for one scenario (and its forked node
    processes — set it *before* the Cluster spawns them)."""
    import os

    old = os.environ.get(PEER_TIMEOUT_ENV)
    os.environ[PEER_TIMEOUT_ENV] = str(seconds)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(PEER_TIMEOUT_ENV, None)
        else:
            os.environ[PEER_TIMEOUT_ENV] = old


def _gather_counters(cluster) -> Dict[str, int]:
    """Sum the hardening/chaos counters over every reachable node."""
    merged = {name: 0 for name in LIVE_COUNTER_NAMES}
    for node in range(cluster.num_nodes):
        try:
            stats = cluster.node_stats(node)
        except Exception:
            continue        # a node may (legitimately) be dead
        for name in LIVE_COUNTER_NAMES:
            merged[name] += int(stats.get(name, 0))
    merged["coordinator_reconnects"] += int(
        cluster._client.stats.get("coordinator_reconnects", 0))
    return merged


def run_chaos_scenarios(seed: int = 0, fast: bool = False) -> Report:
    """Run every live chaos scenario under ``seed``."""
    return chaos_report(seed, fast, [
        _guard("live-sor", _run_live_sor_chaos, seed, fast),
        _guard("live-queens", _run_live_queens_chaos, seed, fast),
        _guard("dedup", _run_dedup_probe, seed, fast),
        _guard("typed-failures", _run_typed_failure, seed, fast),
        _guard("coordinator-outage", _run_coordinator_outage, seed, fast),
    ])


def _verdict(name: str, description: str, ok: bool,
             counters: Dict[str, int], detail: str, plan: str = "",
             fingerprint: str = "") -> Outcome:
    """``plan`` is ``FaultPlan.describe()``, or "" for a scenario that
    injects by hand."""
    return Outcome(name=name, ok=ok, description=description, fields={
        "plan": plan, "fingerprint": fingerprint, "counters": counters,
        "detail": detail})


def _guard(name: str, fn: Callable[[int, bool], Outcome],
           seed: int, fast: bool) -> Outcome:
    """Runs one scenario: a crash is a verdict, and the clock is here
    (``elapsed_s`` covers the scenario however it ended)."""
    t0 = time.monotonic()
    outcome = guarded(name, lambda: fn(seed, fast),
                      plan="", fingerprint="", counters={})
    outcome.fields["elapsed_s"] = time.monotonic() - t0
    return outcome


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _sor_plan(seed: int) -> FaultPlan:
    """Loss + dup + delay + connection-resets, and a kill-and-restart of
    the bystander node 2 while the workload runs on nodes 0-1."""
    return FaultPlan(
        seed=seed,
        drop_rate=0.02,
        dup_rate=0.02,
        delay_rate=0.03,
        reorder_rate=0.01,      # live semantics: connection reset
        delay_min_us=1_000.0,
        delay_max_us=20_000.0,
        crashes=(NodeCrash(node=2, at_us=400_000.0,
                           restart_us=1_200_000.0),),
    )


def _run_live_sor_chaos(seed: int, fast: bool) -> Outcome:
    import numpy as np

    from repro.apps.sor import SorProblem, run_sequential_sor, sor_main
    from repro.apps.sor.sequential import DEFAULT_POINT_UPDATE_US
    from repro.placement.policies import PlacementPolicy
    from repro.runtime.cluster import Cluster

    problem = (SorProblem(rows=8, cols=24, iterations=3) if fast
               else SorProblem(rows=12, cols=32, iterations=5))
    workers, total_nodes = 2, 3      # node 2 holds no objects: the victim
    plan = _sor_plan(seed)
    fingerprint = schedule_fingerprint(plan, total_nodes)
    # Determinism of the chaos schedule itself: an independently rebuilt
    # plan with the same seed must produce the same decision table.
    stable = fingerprint == schedule_fingerprint(_sor_plan(seed),
                                                 total_nodes)

    with _peer_timeout(6.0):
        with Cluster(nodes=total_nodes, chaos=plan) as cluster:
            controller = cluster.start_chaos()
            # One section per worker node, one worker thread each.
            _, _, faulted = cluster.run(
                sor_main, problem, workers, workers, 1,
                DEFAULT_POINT_UPDATE_US, True, True, PlacementPolicy())
            controller.join(timeout=30.0)
            controller.stop()
            # The victim was killed and restarted; the replacement must
            # re-register and answer again (suspicion retracted, its
            # circuit breaker probed shut).
            revived = False
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                try:
                    cluster.node_stats(2)
                    revived = True
                    break
                except Exception:
                    time.sleep(0.2)
            counters = _gather_counters(cluster)
            kills, restarts = controller.kills, controller.restarts
    correct = bool(np.array_equal(run_sequential_sor(problem).grid,
                                  faulted))
    ok = (correct and stable and kills == 1 and restarts == 1
          and revived)
    return _verdict(
        "live-sor",
        f"sor_main {problem.rows}x{problem.cols}, "
        f"{problem.iterations} iterations on {workers} "
        f"worker nodes + 1 victim",
        ok, counters,
        f"grid {'bit-identical to' if correct else 'DIVERGED from'}"
        f" sequential grid; kills={kills} restarts={restarts} "
        f"victim revived={revived} schedule stable={stable}",
        plan=plan.describe(), fingerprint=fingerprint)


def _queens_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed + 1,
        drop_rate=0.03,
        dup_rate=0.05,          # the exactly-once stressor
        delay_rate=0.02,
        reorder_rate=0.02,
        delay_min_us=500.0,
        delay_max_us=10_000.0,
    )


def _run_live_queens_chaos(seed: int, fast: bool) -> Outcome:
    from repro.apps import queens
    from repro.placement.policies import PlacementPolicy
    from repro.runtime.cluster import Cluster

    class PoolOnNode1(PlacementPolicy):
        def node_for(self, cls, index, default, count=None):
            return 1 if cls == "WorkPool" else default

    n = 6 if fast else 7
    nodes = 3
    known = queens.KNOWN_SOLUTIONS[n]
    total = len(queens.seed_prefixes(n, 2))
    plan = _queens_plan(seed)
    fingerprint = schedule_fingerprint(plan, nodes)
    with _peer_timeout(6.0):
        with Cluster(nodes=nodes, chaos=plan) as cluster:
            # One worker thread per node, batches of 2.
            solutions, _, units, _ = cluster.run(
                queens.queens_main, n, nodes, 1, 2, 2,
                queens.DEFAULT_NODE_COST_US, PoolOnNode1())
            counters = _gather_counters(cluster)
    correct = solutions == known and units == total
    return _verdict(
        "live-queens",
        f"live {n}-Queens work pool on {nodes} nodes",
        correct, counters,
        f"{solutions} solutions (expected {known}), "
        f"{units}/{total} work units reported exactly once; "
        f"{counters['chaos_duplicated']} duplicate frame(s), "
        f"{counters['chaos_dropped']} dropped",
        plan=plan.describe(), fingerprint=fingerprint)


def _run_dedup_probe(seed: int, fast: bool) -> Outcome:
    from repro.runtime import messages as m
    from repro.runtime.cluster import Cluster

    with _peer_timeout(6.0), Cluster(nodes=2) as cluster:
        handle = cluster.create(ChaosCounter, node=1)
        kernel = cluster.kernel
        request_id = next(kernel.request_ids)
        message = m.InvokeMsg(request_id, 0, handle.vaddr, "add", (1,),
                              {}, trace=(0,))
        # A byte-identical duplicate pair, as the chaos layer's
        # duplicate fault would produce on the wire.
        kernel.mesh.send(1, message)
        kernel.mesh.send(1, message)
        value = 0
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and value < 1:
            value = cluster.call(handle, "get")
            if value < 1:
                time.sleep(0.05)
        time.sleep(0.3)     # give the twin time to (wrongly) execute
        final = cluster.call(handle, "get")
        stats = cluster.node_stats(1)
        suppressed = (stats.get("dedup_in_flight", 0)
                      + stats.get("dedup_replayed", 0))
        counters = _gather_counters(cluster)
    ok = final == 1 and suppressed >= 1
    return _verdict(
        "dedup",
        "byte-identical duplicate InvokeMsg pair, one node",
        ok, counters,
        f"counter={final} (want 1: at-most-once), "
        f"suppressed twins={suppressed}")


def _run_typed_failure(seed: int, fast: bool) -> Outcome:
    from repro.errors import NodeFailure
    from repro.runtime.cluster import Cluster

    with _peer_timeout(2.0), Cluster(nodes=3) as cluster:
        handle = cluster.create(ChaosCounter, node=2)
        warm = cluster.call(handle, "add", 1)
        cluster.kill_node(2)
        # First caller: blocked mid-ladder until the failure detector's
        # verdict lands, then typed — and well inside the deadline.
        t_first = time.monotonic()
        first_error = _expect_failure(cluster, handle)
        first_s = time.monotonic() - t_first
        # Second caller: the breaker is open now; near-instant fail.
        t_second = time.monotonic()
        second_error = _expect_failure(cluster, handle)
        second_s = time.monotonic() - t_second
        stats = cluster.kernel.stats_snapshot()
        fast_fails = stats.get("circuit_fast_fails", 0)
        counters = _gather_counters(cluster)
    typed = (isinstance(first_error, (NodeFailure, TimeoutError))
             and isinstance(second_error, (NodeFailure, TimeoutError)))
    # reply deadline is 4 x REPRO_PEER_TIMEOUT_S = 8 s here.
    bounded = first_s < 9.0 and second_s < 1.0
    ok = (warm == 1 and typed and bounded and fast_fails >= 1)
    return _verdict(
        "typed-failures",
        "SIGKILL a peer, no restart: bounded typed errors",
        ok, counters,
        f"first failure {type(first_error).__name__} in "
        f"{first_s:.2f}s, then {type(second_error).__name__} in "
        f"{second_s:.3f}s with breaker open "
        f"(fast-fails={fast_fails})")


def _expect_failure(cluster, handle):
    try:
        cluster.call(handle, "get")
    except Exception as error:
        return error
    return None


def _run_coordinator_outage(seed: int, fast: bool) -> Outcome:
    from repro.errors import ClusterError
    from repro.runtime.cluster import Cluster
    from repro.runtime.coordinator import Coordinator

    with _peer_timeout(8.0), Cluster(nodes=2) as cluster:
        handle = cluster.create(ChaosCounter, node=1)
        warm = cluster.call(handle, "add", 1)
        old = cluster._coordinator
        port = old.address[1]
        old.close()
        # In-flight control-plane traffic during the outage: typed, not
        # a deadlock.
        try:
            cluster._client.query_region(1 << 40)
            typed_outage = False
        except ClusterError:
            typed_outage = True
        # A successor adopts the port and the address-space state.  The
        # rebind can transiently race the old incarnation's sockets
        # draining out of the kernel; retry briefly.
        successor = None
        deadline = time.monotonic() + 5.0
        while successor is None:
            try:
                successor = Coordinator(cluster.num_nodes,
                                        cluster._region_bytes,
                                        port=port, server=old.server)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        cluster._coordinator = successor
        reregistered = _await_condition(
            lambda: len(successor._registered) >= cluster.num_nodes, 20.0)
        heartbeats = _await_condition(
            lambda: len(successor._last_heard) >= cluster.num_nodes, 15.0)
        reconnects = cluster._client.stats["coordinator_reconnects"]
        # The data plane survived, and new grants don't collide with the
        # old incarnation's (adopted server).
        value = cluster.call(handle, "add", 1)
        fresh = cluster.create(ChaosCounter, node=1)
        fresh_value = cluster.call(fresh, "add", 5)
        counters = _gather_counters(cluster)
    ok = (warm == 1 and typed_outage and reregistered and heartbeats
          and reconnects >= 1 and value == 2 and fresh_value == 5)
    return _verdict(
        "coordinator-outage",
        "coordinator killed and restarted on its port",
        ok, counters,
        f"typed during outage={typed_outage}, "
        f"re-registered={reregistered}, heartbeats "
        f"resumed={heartbeats}, client reconnects={reconnects}, "
        f"post-outage invokes ok={value == 2 and fresh_value == 5}")


def _await_condition(probe: Callable[[], bool], timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if probe():
                return True
        except Exception:
            pass
        time.sleep(0.1)
    return False
