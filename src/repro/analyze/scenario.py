"""Self-checking AmberSan scenarios (``repro analyze``).

Each scenario runs a fixture from :mod:`repro.analyze.fixtures` (or a
bundled application) under the sanitizer and checks the verdict the
fixture was built to produce: the races and misuse are *found*, the
correct programs stay *clean*, the findings are *deterministic* across
repeat runs and seeds, and sanitizing *changes nothing* about the
simulated execution.
"""

from __future__ import annotations

from typing import Any, Callable, List, Set, Tuple, cast

from repro.analyze.fixtures import (
    run_immutable_write,
    run_lock_inversion,
    run_nonresident_touch,
    run_racy_counter,
    run_sync_zoo,
)
from repro.analyze.runtime import sanitize_runs
from repro.analyze.sanitizer import SanitizerReport
from repro.selfcheck import PASS_FAIL, Outcome, Report, Suite, judged


def judged_body(outcome: Outcome) -> List[str]:
    """Body of an outcome that names what it expected, how it was
    judged, and the sorted, seed/time-stable finding signatures it saw
    (shared with the ``repro check`` suite)."""
    fields = outcome.fields
    lines = [f"  expected: {fields['expected']}",
             f"  correct: {fields['correct']}   "
             f"deterministic: {fields['deterministic']}"]
    lines.extend(f"  finding: {signature}"
                 for signature in fields["signatures"])
    if fields["detail"]:
        lines.append(f"  {fields['detail']}")
    return lines


ANALYZE_SUITE = Suite(
    key="scenarios",
    fields=("name", "description", "expected", "ok", "correct",
            "deterministic", "elapsed_us", "signatures", "detail"),
    line=PASS_FAIL, body=judged_body)


def run_analysis_scenarios(seed: int = 0,
                           fast: bool = False) -> Report:
    """Run every scenario under ``seed`` and collect the verdicts."""
    scenarios = [
        _expect_findings(
            "racy-counter",
            "two threads bump an unlocked shared counter",
            lambda s: run_racy_counter(seed=s),
            rules={"AMBSAN-RACE"}, seed=seed),
        _expect_clean(
            "locked-counter",
            "the same counter behind a Lock",
            lambda s: run_racy_counter(seed=s, locked=True), seed=seed),
        _expect_findings(
            "immutable-write",
            "write to an immutable-marked object after replication",
            lambda s: run_immutable_write(seed=s),
            rules={"AMBSAN-IMMUT"}, seed=seed),
        _expect_findings(
            "non-resident-touch",
            "direct read of state the thread migrated away from",
            lambda s: run_nonresident_touch(seed=s),
            rules={"AMBSAN-RESIDENT"}, seed=seed),
        _expect_findings(
            "lock-inversion",
            "A->B and B->A acquisition orders on a run that did "
            "not deadlock",
            lambda s: run_lock_inversion(seed=s),
            rules={"AMBSAN-ORDER"}, seed=seed),
        _expect_clean(
            "sync-zoo",
            "barrier epochs, monitor sections, and a condvar "
            "handoff used correctly",
            lambda s: run_sync_zoo(seed=s), seed=seed),
        _timing_neutral(seed),
    ]
    if not fast:
        scenarios.append(_apps_clean(seed))
    return Report(
        ANALYZE_SUITE,
        title=[f"AmberSan analysis report (seed {seed})", "=" * 48],
        params={"seed": seed, "fast": fast}, outcomes=scenarios)


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------


def _sanitized(fixture: Callable[[int], Any], seed: int
               ) -> Tuple[Any, SanitizerReport]:
    """Run ``fixture(seed)`` under AmberSan: its result and report."""
    with sanitize_runs():
        result = fixture(seed)
    return result, cast(SanitizerReport, result.cluster.sanitizer.report())


def _expect_findings(name: str, description: str,
                     fixture: Callable[[int], Any],
                     rules: Set[str], seed: int) -> Outcome:
    """The fixture must produce at least one finding of each expected
    rule, no findings of other rules, and identical signatures on a
    repeat run and on neighbouring seeds."""
    result, report = _sanitized(fixture, seed)
    seen_rules = {f.rule for f in report.findings}
    signatures = report.signatures()
    correct = rules <= seen_rules and seen_rules <= rules
    detail = ""
    if not correct:
        detail = (f"expected rules {sorted(rules)}, "
                  f"saw {sorted(seen_rules)}")
    deterministic = True
    for other_seed in (seed, seed + 1, seed + 2):
        again = _sanitized(fixture, other_seed)[1].signatures()
        if again != signatures:
            deterministic = False
            detail = (detail + " " if detail else "") + (
                f"signatures diverge at seed {other_seed}")
            break
    return judged(
        name, description, correct, deterministic,
        expected=" + ".join(sorted(rules)),
        elapsed_us=result.elapsed_us,
        signatures=signatures, detail=detail)


def _expect_clean(name: str, description: str,
                  fixture: Callable[[int], Any],
                  seed: int) -> Outcome:
    result, report = _sanitized(fixture, seed)
    detail = "" if report.ok else report.render()
    return judged(
        name, description, report.ok, True, expected="clean",
        elapsed_us=result.elapsed_us,
        signatures=report.signatures(), detail=detail)


def _timing_neutral(seed: int) -> Outcome:
    """Sanitizing must not move a single simulated timestamp or change
    the program's result."""
    plain = run_racy_counter(seed=seed)
    sanitized, _ = _sanitized(run_racy_counter, seed)
    correct = (plain.elapsed_us == sanitized.elapsed_us
               and plain.value == sanitized.value)
    detail = "" if correct else (
        f"elapsed {plain.elapsed_us} vs {sanitized.elapsed_us}, "
        f"value {plain.value} vs {sanitized.value}")
    return judged(
        "timing-neutral",
        "identical elapsed time and result with and without the "
        "sanitizer",
        correct, True, expected="bit-identical run",
        elapsed_us=sanitized.elapsed_us, signatures=[], detail=detail)


def small_app_jobs(rows: int, cols: int, iterations: int, queens_n: int,
                   matmul_n: int) -> List[Tuple[str, Callable[[], Any]]]:
    """The bundled applications on 2Nx2P at a size a sweep can afford
    (shared with the ``repro check`` suite)."""
    from repro.apps.matmul import run_matmul
    from repro.apps.queens import run_amber_queens
    from repro.apps.sor.amber_sor import run_amber_sor
    from repro.apps.sor.grid import SorProblem

    return [
        ("sor", lambda: run_amber_sor(
            SorProblem(rows=rows, cols=cols, iterations=iterations),
            nodes=2, cpus_per_node=2)),
        ("queens", lambda: run_amber_queens(
            n=queens_n, nodes=2, cpus_per_node=2)),
        ("matmul", lambda: run_matmul(
            m=matmul_n, k=matmul_n, n=matmul_n, nodes=2,
            cpus_per_node=2)),
    ]


def _apps_clean(seed: int) -> Outcome:
    """Every bundled application must run sanitizer-clean."""
    dirty: List[str] = []
    elapsed = 0.0
    for name, job in small_app_jobs(24, 16, 4, queens_n=6, matmul_n=24):
        with sanitize_runs() as sanitizers:
            outcome = job()
        elapsed += getattr(outcome, "elapsed_us", 0.0)
        for sanitizer in sanitizers:
            report = sanitizer.report()
            if not report.ok:
                dirty.append(f"{name}: {report.render()}")
    return judged(
        "apps-clean", "bundled sor/queens/matmul run sanitizer-clean",
        not dirty, True, expected="clean", elapsed_us=elapsed,
        signatures=[], detail="; ".join(dirty))
