"""Self-checking AmberCheck scenarios (``repro check``).

Each scenario explores a fixture from :mod:`repro.analyze.fixtures`
with the model checker of :mod:`repro.analyze.check` and verifies the
verdict the fixture was built to produce:

* the *hidden* race and the schedule-dependent deadlock — both clean on
  the default schedule, so invisible to single-run ``repro analyze`` —
  are found within the schedule budget, deterministically, and their
  recorded choice traces replay bit-identically;
* the correctly synchronized programs explore *clean to exhaustion*;
* DPOR visits no more schedules than exhaustive enumeration while
  reporting the same findings;
* the bundled applications stay clean across an exploration sweep.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.analyze.check import (
    DEFAULT_MAX_SCHEDULES,
    CheckReport,
    check_program,
    run_schedule,
    sample_random_schedules,
)
from repro.analyze.fixtures import (
    run_hidden_deadlock,
    run_hidden_race,
    run_racy_counter,
    run_sync_zoo,
)
from repro.analyze.scenario import judged_body, small_app_jobs
from repro.obs.metrics import MetricsRegistry
from repro.selfcheck import PASS_FAIL, Outcome, Report, Suite, judged

#: Fixtures ``repro check`` can explore by name (CLI ``--fixture``).
CHECK_FIXTURES: Dict[str, Callable[[int], Any]] = {
    "hidden-race": lambda seed: run_hidden_race(seed),
    "hidden-deadlock": lambda seed: run_hidden_deadlock(seed),
    "locked-counter": lambda seed: run_racy_counter(seed, locked=True,
                                                    rounds=2),
    "sync-zoo": lambda seed: run_sync_zoo(seed, rounds=1,
                                          cpus_per_node=1),
}

#: Random-sampling width for the manifestation-rate scenario.
RARITY_SAMPLES = 300
RARITY_SAMPLES_FAST = 80


def _body(outcome: Outcome) -> List[str]:
    lines = judged_body(outcome)
    lines[1] += f"   schedules: {outcome.fields['schedules']}"
    return lines


CHECK_SUITE = Suite(
    key="scenarios",
    fields=("name", "description", "expected", "ok", "correct",
            "deterministic", "schedules", "signatures", "detail"),
    line=PASS_FAIL, body=_body)


def run_check_scenarios(seed: int = 0, fast: bool = False,
                        budget: int = DEFAULT_MAX_SCHEDULES,
                        metrics: Optional[MetricsRegistry] = None
                        ) -> Report:
    """Run every scenario and collect the verdicts.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`)
    accumulates the explorer's ``check_*`` counters — schedules,
    prunes, backtracks, choice-point depths — across every scenario,
    for the CLI's ``--metrics-json`` artifact.
    """
    scenarios = [
        _finds_hidden_bug(
            "hidden-race",
            "race inside a one-segment gate window, clean on the "
            "default schedule",
            lambda: run_hidden_race(seed),
            finding_kind="sanitizer", rule="AMBSAN-RACE",
            seed=seed, budget=budget, fast=fast, metrics=metrics),
        _finds_hidden_bug(
            "hidden-deadlock",
            "lock order inverted only when a transient mode flag is "
            "observed",
            lambda: run_hidden_deadlock(seed),
            finding_kind="deadlock", rule="DEADLOCK",
            seed=seed, budget=budget, fast=fast, metrics=metrics),
        _explores_clean(
            "locked-counter-exhausts",
            "lock-protected counter explores clean to exhaustion",
            lambda: run_racy_counter(seed, locked=True, rounds=2),
            budget=budget, metrics=metrics),
        _explores_clean(
            "sync-zoo-exhausts",
            "uniprocessor synchronization zoo explores clean to "
            "exhaustion",
            lambda: run_sync_zoo(seed, rounds=1, cpus_per_node=1),
            budget=budget, metrics=metrics),
        _dpor_not_worse(seed, budget, metrics=metrics),
    ]
    if not fast:
        scenarios.append(_apps_clean_sweep(budget, metrics=metrics))
    return Report(
        CHECK_SUITE,
        title=[f"AmberCheck report (seed {seed}, budget {budget})",
               "=" * 48],
        params={"seed": seed, "fast": fast, "budget": budget},
        outcomes=scenarios)


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------


def _finds_hidden_bug(name: str, description: str,
                      program_fn: Callable[[], Any], finding_kind: str,
                      rule: str, seed: int, budget: int,
                      fast: bool,
                      metrics: Optional[MetricsRegistry] = None
                      ) -> Outcome:
    """The default schedule must be clean, exploration must surface a
    ``finding_kind`` finding whose trace replays bit-identically, a
    repeat exploration must agree, and the bug must be rare under
    random scheduling."""
    problems: List[str] = []

    baseline = run_schedule(program_fn)
    if baseline.status != "ok" or baseline.findings:
        problems.append(
            f"default schedule not clean: {baseline.status} "
            f"{baseline.signatures()}")

    report = check_program(program_fn, name=name, budget=budget,
                           metrics=metrics)
    hits = [f for f in report.findings
            if f.kind == finding_kind and rule in f.signature]
    if not hits:
        problems.append(f"no {rule} finding in {report.schedules} "
                        f"schedules")
    deterministic = True
    if hits:
        finding = hits[0]
        replay = run_schedule(program_fn, finding.trace)
        reproduced = (replay.status == "deadlock"
                      if finding_kind == "deadlock"
                      else finding.signature in
                      [sig for sig, _ in replay.findings])
        if not reproduced or replay.diverged:
            problems.append(
                f"replay of trace {finding.trace} did not reproduce "
                f"the finding (status {replay.status})")
        again = run_schedule(program_fn, finding.trace)
        if (replay.choices != again.choices
                or replay.status != again.status
                or replay.value_repr != again.value_repr
                or replay.signatures() != again.signatures()):
            deterministic = False
            problems.append("replay is not bit-identical across runs")
        repeat = check_program(program_fn, name=name, budget=budget,
                               metrics=metrics)
        if (repeat.signatures() != report.signatures()
                or [f.trace for f in repeat.findings]
                != [f.trace for f in report.findings]):
            deterministic = False
            problems.append("exploration not deterministic across "
                            "repeat runs")

    samples = RARITY_SAMPLES_FAST if fast else RARITY_SAMPLES
    outcomes = sample_random_schedules(program_fn, samples, seed=seed)
    manifested = sum(1 for o in outcomes
                     if o.status != "ok" or o.findings)
    rate = manifested / samples
    if rate >= 0.05:
        problems.append(f"bug manifests in {100 * rate:.1f}% of "
                        f"{samples} random schedules (needs < 5%)")

    return judged(
        name, description,
        not [p for p in problems
             if "deterministic" not in p and "bit-identical" not in p],
        deterministic,
        expected=f"{rule} within {budget} schedules, replayable, "
                 f"< 5% random manifestation",
        schedules=report.schedules,
        signatures=report.signatures(),
        detail="; ".join(problems) + (
            f" [manifestation {manifested}/{samples}]"
            if not problems else ""))


def _explores_clean(name: str, description: str,
                    program_fn: Callable[[], Any],
                    budget: int,
                    metrics: Optional[MetricsRegistry] = None
                    ) -> Outcome:
    report = check_program(program_fn, name=name, budget=budget,
                           metrics=metrics)
    problems: List[str] = []
    if not report.ok:
        problems.append(f"findings: {report.signatures()}")
    if not report.exhausted:
        problems.append(
            f"did not exhaust within {budget} schedules")
    return judged(
        name, description, not problems, True,
        expected="clean, exhausted",
        schedules=report.schedules,
        signatures=report.signatures(),
        detail="; ".join(problems))


def _dpor_not_worse(seed: int, budget: int,
                    metrics: Optional[MetricsRegistry] = None
                    ) -> Outcome:
    """On a small instance both modes must exhaust with identical
    finding signatures, and DPOR must visit no more schedules."""
    program_fn = lambda: run_hidden_race(seed, decoys=2)  # noqa: E731
    exhaustive = check_program(program_fn, name="exhaustive",
                               budget=budget, dpor=False, prune=False,
                               metrics=metrics)
    reduced = check_program(program_fn, name="dpor", budget=budget,
                            dpor=True, prune=True, metrics=metrics)
    problems: List[str] = []
    if not (exhaustive.exhausted and reduced.exhausted):
        problems.append("a mode failed to exhaust")
    if exhaustive.signatures() != reduced.signatures():
        problems.append(
            f"finding sets differ: exhaustive "
            f"{exhaustive.signatures()} vs DPOR "
            f"{reduced.signatures()}")
    if reduced.schedules > exhaustive.schedules:
        problems.append(
            f"DPOR explored more schedules ({reduced.schedules}) "
            f"than exhaustive ({exhaustive.schedules})")
    return judged(
        "dpor-vs-exhaustive",
        "partial-order reduction preserves findings at lower cost",
        not problems, True,
        expected="same findings, fewer or equal schedules",
        schedules=reduced.schedules,
        signatures=reduced.signatures(),
        detail="; ".join(problems) + (
            f" [exhaustive {exhaustive.schedules} vs DPOR "
            f"{reduced.schedules} schedules]" if not problems else ""))


def _apps_clean_sweep(budget: int,
                      metrics: Optional[MetricsRegistry] = None
                      ) -> Outcome:
    """Small configurations of the bundled applications must explore
    clean to exhaustion or the sweep budget."""
    sweep_budget = min(budget, 12)
    problems: List[str] = []
    schedules = 0
    reports: List[CheckReport] = []
    for name, job in small_app_jobs(12, 8, 2, queens_n=5, matmul_n=12):
        report = check_program(job, name=name, budget=sweep_budget,
                               metrics=metrics)
        reports.append(report)
        schedules += report.schedules
        if not report.ok:
            problems.append(f"{name}: {report.signatures()}")
    return judged(
        "apps-clean-sweep",
        "bundled sor/queens/matmul explore clean under a small budget",
        not problems, True,
        expected=f"clean across <= {sweep_budget} schedules each",
        schedules=schedules,
        signatures=sorted(sig for report in reports
                          for sig in report.signatures()),
        detail="; ".join(problems))
