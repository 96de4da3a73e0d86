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
    ``sor_main``, the Figure 1 program, with ``SorMaster`` on the dying
    node and the sections on the survivors: the node dies holding the
    per-iteration barrier with the reporters that reached it suspended
    inside.  The recovered grid must equal the clean and the sequential
    grid bit for bit, every coordinator's outcome the clean one, and
    the promoted master must hold exactly one report per section for
    every iteration (at-most-once: with tolerance 0 the grid alone
    cannot see the master's state).
``queens-recover``
    ``queens_main``, the N-Queens program both backends run: the pool
    stays on node 0, and the node dies holding a worker anchor and its
    two workers.
    Replay must be at-most-once: every work unit is counted exactly once.
``sor-unrecoverable``
    The same ``sor_main`` under its own placement, dying with two of
    its sections.  A thread recovers by re-running from its last
    migrated invocation, and a section's threads live *on* the section:
    when a section's node dies, its threads restart from their ``Fork``
    while their neighbours have moved on, and the run stalls.  So the
    run must end in the sequential grid or a typed
    :class:`~repro.errors.DeadlockError` / :class:`~repro.errors.NodeFailure`
    — never a wrong grid, never a hang — and end identically across
    replays.

Used by ``python -m repro faults --recover`` and the recovery tests.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from repro.apps.queens import KNOWN_SOLUTIONS, queens_main, seed_prefixes
from repro.apps.sor import SorProblem, run_sequential_sor, sor_main
from repro.apps.sor.amber_sor import SorMaster, default_sections
from repro.apps.sor.sequential import DEFAULT_POINT_UPDATE_US
from repro.errors import DeadlockError, NodeFailure
from repro.faults.plan import FaultPlan
from repro.faults.scenario import (
    COUNTER_NAMES,
    chaos_plan,
    clean_vs_faulted,
    counters_of,
    faults_report,
    fingerprint,
)
from repro.placement.policies import PlacementPolicy
from repro.recovery.config import RecoveryConfig
from repro.selfcheck import Outcome, Report, judged
from repro.sim.cluster import ClusterConfig
from repro.sim.program import AmberProgram

#: The node that dies in every scenario — it hosts ``sor-recover``'s
#: master, a queens worker anchor, and ``sor-unrecoverable``'s sections
#: 2-3.
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


def _run(nodes: int, cpus: int, faults, main, *args):
    """``main(ctx, *args)`` on ``nodes`` x ``cpus``, recovering under
    ``faults``."""
    return AmberProgram(ClusterConfig(nodes, cpus), faults=faults,
                        recovery=_recovering(faults)).run(main, *args)


class _MasterOnCrashNode(PlacementPolicy):
    """``SorMaster`` on :data:`CRASH_NODE`; the first half of the
    sections on node 0 and the rest on node 2, none on the dying node."""

    def node_for(self, cls, index, default, count=None):
        if cls == "SorMaster":
            return CRASH_NODE
        if cls == "SorSection":
            return 0 if index < count // 2 else 2
        return default


def _sor_args(problem: SorProblem, nodes: int, cpus: int,
              place: PlacementPolicy) -> tuple:
    """``sor_main``'s arguments for both SOR scenarios: the paper's
    sectioning at ``nodes``, the CPUs shared out as workers, overlap on,
    the grid collected; only ``place`` tells the scenarios apart."""
    sections = default_sections(nodes)
    return (problem, nodes, sections, max(1, nodes * cpus // sections),
            DEFAULT_POINT_UPDATE_US, True, True, place)


def _reports_per_iteration(result, iterations: int) -> List[int]:
    """How many reports the run's one (possibly promoted) ``SorMaster``
    holds for each iteration: one per section when none was lost and
    none replayed twice."""
    master, = [obj for obj in result.cluster.objects.values()
               if isinstance(obj, SorMaster)]
    return [len(master._deltas.get(i, ())) for i in range(iterations)]


def _run_sor_recover(seed: int, fast: bool) -> Outcome:
    problem = _sor_problem(fast)
    nodes, cpus = 3, 2
    args = _sor_args(problem, nodes, cpus, _MasterOnCrashNode())
    sections = args[2]
    sequential = run_sequential_sor(problem).grid

    def exact(clean, faulted) -> bool:
        """The sequential and clean grid, the clean outcomes, and every
        report counted once."""
        outcomes, _finish_us, grid = faulted.value
        return (np.array_equal(grid, sequential)
                and np.array_equal(grid, clean.value[2])
                and outcomes == clean.value[0]
                and _reports_per_iteration(faulted, problem.iterations)
                == [sections] * problem.iterations)

    return clean_vs_faulted(
        "sor-recover",
        f"sor_main {problem.rows}x{problem.cols}, node {CRASH_NODE} dies "
        f"for good holding SorMaster (at-most-once check)",
        run=lambda faults: _run(nodes, cpus, faults, sor_main, *args),
        plan_for=lambda elapsed_us: _recover_plan(seed, elapsed_us),
        observe=lambda r, counters: (r.elapsed_us, r.value[0],
                                     r.value[2].tobytes(),
                                     sorted(counters.items())),
        judge=lambda clean, faulted, counters: (
            exact(clean, faulted) and _recovered(counters)),
        detail=lambda clean, faulted, counters: (
            f"{counters['objects_recovered']} object(s) promoted, "
            f"{counters['invocations_replayed']} invocation(s) replayed; "
            + ("grid bit-identical to clean run, every report counted "
               "once" if exact(clean, faulted)
               else "grid, outcomes or reports DIVERGED from clean run")))


def _run_queens_recover(seed: int, fast: bool) -> Outcome:
    n = 7 if fast else 8
    nodes, cpus = 3, 2
    units = len(seed_prefixes(n, 2))

    def exact(clean, faulted) -> bool:
        """Every unit counted once, into the known and the clean total."""
        solutions, _visited, done, per_worker = faulted.value
        return (solutions == KNOWN_SOLUTIONS[n] == clean.value[0]
                and done == units and sum(per_worker) == units)

    return clean_vs_faulted(
        "queens-recover",
        f"{n}-Queens on queens_main, node {CRASH_NODE} dies for good "
        f"holding a worker anchor and its workers (at-most-once check)",
        run=lambda faults: _run(nodes, cpus, faults, queens_main, n, nodes,
                                cpus, 2, 1, 10.0, PlacementPolicy()),
        plan_for=lambda elapsed_us: _recover_plan(seed, elapsed_us),
        observe=lambda r, counters: (r.elapsed_us, r.value,
                                     sorted(counters.items())),
        judge=lambda clean, faulted, counters: (
            exact(clean, faulted) and _recovered(counters)),
        detail=lambda clean, faulted, counters: (
            f"{faulted.value[0]} solutions, {faulted.value[2]} units "
            f"reported for {units} work units, "
            f"{counters['invocations_replayed']} replayed"))


def _run_sor_unrecoverable(seed: int, fast: bool) -> Outcome:
    problem = _sor_problem(fast)
    nodes, cpus = 3, 2
    args = _sor_args(problem, nodes, cpus, PlacementPolicy())
    clean = _run(nodes, cpus, None, sor_main, *args)
    plan = _recover_plan(seed, clean.elapsed_us)
    sequential = run_sequential_sor(problem).grid

    def attempt():
        """``(outcome, detail, result)``: the sequential grid or a typed
        failure — a hang would never return here."""
        try:
            result = _run(nodes, cpus, plan, sor_main, *args)
        except (DeadlockError, NodeFailure) as failure:
            kind = type(failure).__name__
            return kind, f"{kind}: {failure}", None
        if np.array_equal(result.value[2], sequential):
            return "grid", "grid bit-identical to the sequential run", result
        return "wrong", "grid DIVERGED from the sequential run", result

    def observed(kind, detail, result) -> str:
        if result is None:
            return fingerprint(kind, detail)
        return fingerprint(kind, result.elapsed_us,
                           result.value[2].tobytes(),
                           sorted(counters_of(result).items()))

    first, second = attempt(), attempt()
    kind, detail, result = first
    return judged(
        "sor-unrecoverable",
        f"sor_main {problem.rows}x{problem.cols}, node {CRASH_NODE} dies "
        f"for good holding two sections: the sequential grid or a typed "
        f"failure, never a wrong grid or a hang",
        kind != "wrong", observed(*first) == observed(*second),
        plan=plan.describe(),
        clean_elapsed_us=clean.elapsed_us,
        faulted_elapsed_us=result.elapsed_us if result else 0.0,
        fingerprint=observed(*first),
        counters=(counters_of(result) if result
                  else {name: 0 for name in COUNTER_NAMES}),
        detail=detail)
