"""Fault-recovery scenarios: seeded chaos runs with a pass/fail verdict.

Each scenario runs a workload three times — once clean, twice under the
same seeded :class:`~repro.faults.plan.FaultPlan` — and checks two
properties:

* **correctness** — the faulted run produces the same answer as the
  clean one (faults may change *timing*, never *results*);
* **determinism** — the two faulted runs are bit-identical: same final
  simulated clock, same result fingerprint, same fault counters.

Three scenarios cover the recovery paths:

``sor``
    Red/Black SOR under message loss, duplication, delay, and a mid-run
    crash-and-restart of one node.  Exercises retransmission and the
    dispatch freeze/thaw.
``queens``
    The N-Queens work pool under the same fault mix — many small
    invocations, so drops land on protocol messages of every kind.
``mobility``
    A mobile object leaves a stale forwarding hint pointing at a node
    that then crashes for good.  A client following the hint must give
    up on the dead node and recover via the object's home node
    (``home_fallbacks``).

Used by ``python -m repro faults`` and the fault test-suite.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.faults.plan import FaultPlan, NodeCrash
from repro.selfcheck import PASS_FAIL, Outcome, Report, Suite, judged

#: Counters reported per scenario (all live in the run's MetricsRegistry).
COUNTER_NAMES = (
    "faults_injected",
    "faults_dropped",
    "faults_duplicated",
    "faults_delayed",
    "faults_crash_drops",
    "faults_partition_drops",
    "retries",
    "send_give_ups",
    "location_broadcasts",
    "crashes",
    "recoveries",
    "hints_repaired",
    "home_fallbacks",
    "home_probes",
    # Crash-recovery counters (repro.recovery); zero unless a
    # RecoveryConfig is attached to the run.
    "heartbeats_sent",
    "node_suspected",
    "node_confirmed_dead",
    "node_rejoined",
    "checkpoints_shipped",
    "checkpoints_lost",
    "objects_recovered",
    "objects_lost",
    "threads_lost",
    "invocations_replayed",
    "invocations_suppressed",
)


def _body(outcome: Outcome) -> List[str]:
    fields = outcome.fields
    clean, faulted = fields["clean_elapsed_us"], fields["faulted_elapsed_us"]
    lines = [f"  plan: {fields['plan']}",
             f"  clean {clean / 1000:.1f} ms -> faulted "
             f"{faulted / 1000:.1f} ms ({faulted / max(clean, 1e-9):.2f}x)",
             f"  correct: {fields['correct']}   "
             f"deterministic: {fields['deterministic']}"]
    if fields["detail"]:
        lines.append(f"  {fields['detail']}")
    return lines


FAULTS_SUITE = Suite(
    key="scenarios",
    fields=("name", "description", "plan", "ok", "correct",
            "deterministic", "clean_elapsed_us", "faulted_elapsed_us",
            "fingerprint", "counters", "detail"),
    line=PASS_FAIL, body=_body,
    trailer="\ntotals: {totals}\noverall: {verdict}",
    counter_names=COUNTER_NAMES)


def faults_report(seed: int, fast: bool,
                  outcomes: List[Outcome]) -> Report:
    """The report of one ``repro faults [--recover]`` invocation."""
    return Report(
        FAULTS_SUITE,
        title=[f"Fault injection & recovery report (seed {seed})",
               "=" * 52],
        params={"seed": seed, "fast": fast}, outcomes=outcomes)


def run_fault_scenarios(seed: int = 0, fast: bool = False) -> Report:
    """Run every scenario under ``seed`` and collect the verdicts."""
    return faults_report(seed, fast, [
        _run_sor(seed, fast),
        _run_queens(seed, fast),
        _run_mobility(seed),
    ])


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------


def chaos_plan(seed: int, clean_elapsed_us: float,
               crash_node: int) -> FaultPlan:
    """The standard fault mix scaled to a workload's clean duration:
    5% loss, light duplication/delay/reorder, and one crash at 35% of
    the run with a restart short enough for in-protocol retries to span
    the outage (the default give-up budget is ~700 ms simulated)."""
    crash_at = 0.35 * clean_elapsed_us
    outage = min(0.25 * clean_elapsed_us, 200_000.0)
    return FaultPlan(
        seed=seed,
        drop_rate=0.05,
        dup_rate=0.01,
        delay_rate=0.02,
        reorder_rate=0.01,
        delay_min_us=50.0,
        delay_max_us=2_000.0,
        crashes=(NodeCrash(node=crash_node, at_us=crash_at,
                           restart_us=crash_at + outage),),
    )


def counters_of(result: Any) -> Dict[str, int]:
    metrics = result.stats.metrics
    return {name: metrics.counter(name).value for name in COUNTER_NAMES}


def fingerprint(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def clean_vs_faulted(
        name: str, description: str,
        run: Callable[[Optional[FaultPlan]], Any],
        plan_for: Callable[[float], FaultPlan],
        observe: Callable[[Any, Dict[str, int]], Sequence[Any]],
        judge: Callable[[Any, Any, Dict[str, int]], bool],
        detail: Callable[[Any, Any, Dict[str, int]], str]) -> Outcome:
    """The skeleton every fault and recovery scenario shares.

    ``run(None)`` is the clean run; its elapsed time scales the plan
    (``plan_for``), and the workload then runs twice under that plan.
    *Correct* is ``judge(clean, faulted, counters)``; *deterministic*
    means the two faulted runs fingerprint alike on
    ``observe(result, counters)``, the observable the scenario names.
    ``detail(clean, faulted, counters)`` words the verdict."""
    clean = run(None)
    plan = plan_for(clean.elapsed_us)
    first, second = run(plan), run(plan)
    counters = counters_of(first)
    fp1 = fingerprint(*observe(first, counters))
    fp2 = fingerprint(*observe(second, counters_of(second)))
    return judged(
        name, description, judge(clean, first, counters), fp1 == fp2,
        plan=plan.describe(),
        clean_elapsed_us=clean.elapsed_us,
        faulted_elapsed_us=first.elapsed_us,
        fingerprint=fp1, counters=counters,
        detail=detail(clean, first, counters))


def same_grid(clean: Any, faulted: Any) -> bool:
    import numpy as np

    return bool(np.array_equal(clean.grid, faulted.grid))


def grid_detail(clean: Any, faulted: Any) -> str:
    return ("grid bit-identical to clean run" if same_grid(clean, faulted)
            else "grid DIVERGED from clean run")


def _run_sor(seed: int, fast: bool) -> Outcome:
    from repro.apps.sor import SorProblem, run_amber_sor

    problem = (SorProblem(rows=10, cols=36, iterations=5) if fast
               else SorProblem(rows=16, cols=48, iterations=8))
    nodes, cpus = 2, 2
    return clean_vs_faulted(
        "sor",
        f"Red/Black SOR {problem.rows}x{problem.cols}, "
        f"{problem.iterations} iterations on {nodes}Nx{cpus}P",
        run=lambda faults: run_amber_sor(
            problem, nodes=nodes, cpus_per_node=cpus, collect_grid=True,
            faults=faults),
        plan_for=lambda elapsed_us: chaos_plan(seed, elapsed_us,
                                               crash_node=1),
        observe=lambda r, counters: (r.elapsed_us, r.grid.tobytes(),
                                     sorted(counters.items())),
        judge=lambda clean, faulted, _: same_grid(clean, faulted),
        detail=lambda clean, faulted, _: grid_detail(clean, faulted))


def _run_queens(seed: int, fast: bool) -> Outcome:
    from repro.apps.queens import KNOWN_SOLUTIONS, run_amber_queens

    n = 7 if fast else 8
    nodes, cpus = 4, 2
    return clean_vs_faulted(
        "queens", f"{n}-Queens work pool on {nodes}Nx{cpus}P",
        run=lambda faults: run_amber_queens(
            n=n, nodes=nodes, cpus_per_node=cpus, faults=faults),
        plan_for=lambda elapsed_us: chaos_plan(seed, elapsed_us,
                                               crash_node=1),
        observe=lambda r, counters: (r.elapsed_us, r.solutions,
                                     r.nodes_visited,
                                     sorted(counters.items())),
        judge=lambda clean, faulted, _: (
            faulted.solutions == KNOWN_SOLUTIONS[n]
            and clean.solutions == KNOWN_SOLUTIONS[n]),
        detail=lambda clean, faulted, _: (
            f"{faulted.solutions} solutions "
            f"(expected {KNOWN_SOLUTIONS[n]})"))


def _run_mobility(seed: int) -> Outcome:
    plan = FaultPlan(
        seed=seed,
        drop_rate=0.02,
        # A short budget keeps the scenario quick: ~127 ms before a
        # sender declares the dead node unreachable.
        rto_us=1_000.0,
        rto_cap_us=32_000.0,
        max_attempts=8,
        # Node 2 dies for good after the token has already moved away,
        # stranding the stale forwarding hints that point at it.
        crashes=(NodeCrash(node=2, at_us=150_000.0, restart_us=None),),
    )
    # ``value`` is (what the invoke answered, the node that answered).
    # The elapsed time is fingerprinted as one more counter, first in
    # sorted order: the fingerprints of earlier releases were taken
    # that way and must not move.
    return clean_vs_faulted(
        "mobility",
        "stale hint to a permanently dead node; client recovers via "
        "the home node",
        run=_mobility_run,
        plan_for=lambda _: plan,
        observe=lambda r, counters: (
            *r.value, sorted({**counters,
                              "_elapsed_us": r.elapsed_us}.items())),
        judge=lambda clean, faulted, counters: (
            faulted.value[0] == clean.value[0] and faulted.value[1] == 0
            and counters["home_fallbacks"] >= 1),
        detail=lambda clean, faulted, counters: (
            f"invoke answered {faulted.value[0]} from node "
            f"{faulted.value[1]} with {counters['home_fallbacks']} home "
            f"fallback(s)"))


def _mobility_run(faults: Optional[FaultPlan]) -> Any:
    """One run of the mobility scenario."""
    from repro.sim import (
        AmberProgram,
        ClusterConfig,
        Fork,
        Invoke,
        Join,
        Locate,
        MoveTo,
        New,
        SimObject,
        Sleep,
    )

    class Token(SimObject):
        SIZE_BYTES = 128

        def __init__(self, value=41):
            self.value = value

        def poke(self, ctx):
            if False:
                yield None
            return self.value + 1, ctx.node

    class Prober(SimObject):
        SIZE_BYTES = 128

        def __init__(self, token):
            self._token = token

        def run(self, ctx, sleep_us):
            # Locate caches a forwarding hint here via path compression.
            yield Locate(self._token)
            yield Sleep(sleep_us)
            # By now the token moved home and its last host is dead:
            # the cached hint is a trap.
            value, node = yield Invoke(self._token, "poke")
            return value, node

    def main(ctx):
        token = yield New(Token)            # home: node 0
        yield MoveTo(token, 2)
        prober = yield New(Prober, token)
        yield MoveTo(prober, 1)
        thread = yield Fork(prober, "run", 300_000.0)
        yield Sleep(50_000.0)
        yield MoveTo(token, 0)              # back home; hint at node 1
        return (yield Join(thread))         # now points at a dead end

    program = AmberProgram(ClusterConfig(nodes=3, cpus_per_node=2),
                           faults=faults)
    return program.run(main)
