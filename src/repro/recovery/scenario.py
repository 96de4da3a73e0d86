"""Crash-recovery scenarios: permanent node death with a pass/fail verdict.

The ``repro faults`` scenarios prove the *retry* story — crashed nodes
restart and in-protocol retransmission papers over the outage.  These
scenarios (``repro faults --recover``) prove the *recovery* story: the
crashed node never comes back, its objects are re-materialized from
checkpoints on their backup nodes, and its orphaned threads are
resurrected and replayed.  Each scenario runs its workload once clean
and twice under the same seeded plan, then checks:

* **correctness** — the recovered run produces the clean answer *and*
  actually recovered something (``objects_recovered >= 1``,
  ``invocations_replayed >= 1``, ``threads_lost == 0``);
* **determinism** — the two recovered runs are bit-identical (same
  final clock, result fingerprint, and counters).

``sor-recover``
    Striped Red/Black SOR; the dead node holds a live mutable grid
    stripe.  The recovered grid must equal the clean grid bit for bit.
``queens-recover``
    N-Queens over mutating per-node tallies; replay must be at-most-once
    (call counts and totals equal the clean run exactly).
``sor-unrecoverable``
    The same SOR crash with checkpointing disabled: the run must
    *terminate* with a typed :class:`~repro.errors.NodeFailure` — never
    hang — and fail identically across replays.

Used by ``python -m repro faults --recover`` and the recovery tests.
"""

from __future__ import annotations

from dataclasses import replace

from repro.apps.sor.grid import SorProblem
from repro.errors import NodeFailure
from repro.faults.plan import FaultPlan
from repro.faults.scenario import (
    COUNTER_NAMES,
    chaos_plan,
    clean_vs_faulted,
    faults_report,
    fingerprint,
    grid_detail,
    same_grid,
)
from repro.recovery.config import RecoveryConfig
from repro.recovery.workloads import run_recovery_queens, run_recovery_sor
from repro.selfcheck import Outcome, Report, judged

#: The node that dies in every scenario — it hosts stripe/tally 0.
CRASH_NODE = 1


def run_recovery_scenarios(seed: int = 0,
                           fast: bool = False) -> Report:
    """Run every recovery scenario under ``seed``."""
    return faults_report(seed, fast, [
        _run_sor_recover(seed, fast),
        _run_queens_recover(seed, fast),
        _run_sor_unrecoverable(seed, fast),
    ])


def _recover_plan(seed: int, clean_elapsed_us: float) -> FaultPlan:
    """The chaos mix of the fault scenarios, but the crash is permanent:
    ``restart_us=None`` means retries can never span the outage — only
    promotion and resurrection can finish the run."""
    plan = chaos_plan(seed, clean_elapsed_us, crash_node=CRASH_NODE)
    return replace(plan, crashes=(replace(plan.crashes[0],
                                          restart_us=None),))


def _sor_problem(fast: bool) -> SorProblem:
    return (SorProblem(rows=16, cols=16, iterations=4) if fast
            else SorProblem(rows=24, cols=24, iterations=6))


def _recovered(counters) -> bool:
    """Did the run actually exercise the recovery machinery?"""
    return (counters["objects_recovered"] >= 1
            and counters["invocations_replayed"] >= 1
            and counters["threads_lost"] == 0
            and counters["objects_lost"] == 0)


def _recovering(faults):
    """Recovery is configured for the faulted runs only."""
    return RecoveryConfig() if faults is not None else None


def _run_sor_recover(seed: int, fast: bool) -> Outcome:
    problem = _sor_problem(fast)
    nodes, cpus = 3, 2
    return clean_vs_faulted(
        "sor-recover",
        f"striped SOR {problem.rows}x{problem.cols}, node "
        f"{CRASH_NODE} dies for good holding a live stripe",
        run=lambda faults: run_recovery_sor(
            problem, nodes=nodes, cpus_per_node=cpus, faults=faults,
            recovery=_recovering(faults)),
        plan_for=lambda elapsed_us: _recover_plan(seed, elapsed_us),
        observe=lambda r, counters: (r.elapsed_us, r.grid.tobytes(),
                                     sorted(counters.items())),
        judge=lambda clean, faulted, counters: (
            same_grid(clean, faulted) and _recovered(counters)),
        detail=lambda clean, faulted, counters: (
            f"{counters['objects_recovered']} object(s) promoted, "
            f"{counters['invocations_replayed']} invocation(s) replayed; "
            + grid_detail(clean, faulted)))


def _run_queens_recover(seed: int, fast: bool) -> Outcome:
    n = 7 if fast else 8
    nodes, cpus = 3, 2
    return clean_vs_faulted(
        "queens-recover",
        f"{n}-Queens tallies, node {CRASH_NODE} dies for good holding "
        f"live counters (at-most-once check)",
        run=lambda faults: run_recovery_queens(
            n=n, nodes=nodes, cpus_per_node=cpus, faults=faults,
            recovery=_recovering(faults)),
        plan_for=lambda elapsed_us: _recover_plan(seed, elapsed_us),
        observe=lambda r, counters: (r.elapsed_us, r.solutions,
                                     r.visited, r.tally_totals,
                                     sorted(counters.items())),
        judge=lambda clean, faulted, counters: (
            faulted.correct
            and faulted.tally_totals == clean.tally_totals
            and _recovered(counters)),
        detail=lambda clean, faulted, counters: (
            f"{faulted.solutions} solutions, "
            f"{sum(t[2] for t in faulted.tally_totals)} tally calls "
            f"for {faulted.work_units} work units, "
            f"{counters['invocations_replayed']} replayed"))


def _run_sor_unrecoverable(seed: int, fast: bool) -> Outcome:
    problem = _sor_problem(fast)
    nodes, cpus = 3, 2

    clean = run_recovery_sor(problem, nodes=nodes, cpus_per_node=cpus)
    plan = _recover_plan(seed, clean.elapsed_us)
    recovery = RecoveryConfig(checkpointing=False)

    def attempt():
        """Returns ``(exception type name, message)`` — the run must
        terminate with a typed failure, not hang or succeed."""
        try:
            run_recovery_sor(problem, nodes=nodes, cpus_per_node=cpus,
                             faults=plan, recovery=recovery)
        except NodeFailure as failure:
            return type(failure).__name__, str(failure)
        return "", "run unexpectedly succeeded without checkpoints"

    kind1, message1 = attempt()
    kind2, message2 = attempt()
    fp1 = fingerprint(kind1, message1)
    fp2 = fingerprint(kind2, message2)
    return judged(
        "sor-unrecoverable",
        "the same crash with checkpointing disabled: the run must fail "
        "fast with a typed NodeFailure",
        kind1 == "NodeFailure", fp1 == fp2,
        plan=plan.describe(),
        clean_elapsed_us=clean.elapsed_us,
        faulted_elapsed_us=0.0,
        fingerprint=fp1,
        counters={name: 0 for name in COUNTER_NAMES},
        detail=f"{kind1}: {message1}" if kind1 else message1)
