"""AmberSan: concurrency-correctness analysis for Amber programs.

Three cooperating tools (see ``docs/ANALYSIS.md``):

* :mod:`repro.analyze.sanitizer` — a dynamic happens-before race
  sanitizer over simulated runs (vector clocks + per-field shadow
  state), reporting unsynchronized access to shared mutable objects,
  writes to ``immutable``-marked objects, and direct touches of
  non-resident state.
* :mod:`repro.analyze.lint` — a static AST lint (``repro lint``) for
  the concurrency idioms of the Amber programming model.
* :mod:`repro.analyze.lockorder` — a runtime lock-order graph whose
  cycle report predicts deadlocks even on runs that did not deadlock,
  plus the wait-for cycle report behind :class:`DeadlockError`.
* :mod:`repro.analyze.check` — AmberCheck (``repro check``): a
  stateless model checker that re-executes a bounded program through
  every relevantly-distinct thread schedule (dynamic partial-order
  reduction over recorded scheduling choices), running the sanitizer
  in each and reporting schedule-dependent races, deadlocks, and
  terminal-state divergences with minimal replayable choice traces.
* :mod:`repro.analyze.flow` — AmberFlow (``repro flow``): a
  whole-program object-flow and locality analysis that derives a
  deterministic :class:`PlacementHints` artifact for
  :class:`repro.placement.policies.HintedPlacement`, emits the
  AMB201-AMB205 locality diagnostics, and cross-validates its
  predictions against simulator runs of the bundled apps.

AmberSan observes every simulated run inside a
:func:`repro.analyze.runtime.sanitize_runs` block (``--sanitize`` on
the CLI opens one) and is entirely passive: it schedules no simulator
events, charges no costs, and consumes no PRNG draws, so sanitized
runs are bit-identical to unsanitized ones.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "Sanitizer": ("repro.analyze.sanitizer", "Sanitizer"),
    "SanitizerReport": ("repro.analyze.sanitizer", "SanitizerReport"),
    "Finding": ("repro.analyze.sanitizer", "Finding"),
    "VectorClock": ("repro.analyze.hb", "VectorClock"),
    "LockOrderGraph": ("repro.analyze.lockorder", "LockOrderGraph"),
    "lint_paths": ("repro.analyze.lint", "lint_paths"),
    "lint_source": ("repro.analyze.lint", "lint_source"),
    "LintFinding": ("repro.analyze.lint", "LintFinding"),
    "RULES": ("repro.analyze.lint", "RULES"),
    "sanitize_runs": ("repro.analyze.runtime", "sanitize_runs"),
    "run_analysis_scenarios": ("repro.analyze.scenario",
                               "run_analysis_scenarios"),
    "check_program": ("repro.analyze.check", "check_program"),
    "run_schedule": ("repro.analyze.check", "run_schedule"),
    "CheckReport": ("repro.analyze.check", "CheckReport"),
    "CheckFinding": ("repro.analyze.check", "CheckFinding"),
    "ChoiceController": ("repro.analyze.choice", "ChoiceController"),
    "sample_random_schedules": ("repro.analyze.check",
                                "sample_random_schedules"),
    "run_check_scenarios": ("repro.analyze.checkscenario",
                            "run_check_scenarios"),
    "CHECK_FIXTURES": ("repro.analyze.checkscenario",
                       "CHECK_FIXTURES"),
    "FLOW_RULES": ("repro.analyze.flow", "FLOW_RULES"),
    "flow_diagnostics": ("repro.analyze.flow", "flow_diagnostics"),
    "FlowModel": ("repro.analyze.flow", "FlowModel"),
    "scan_paths": ("repro.analyze.flow", "scan_paths"),
    "scan_sources": ("repro.analyze.flow", "scan_sources"),
    "Hint": ("repro.analyze.flow", "Hint"),
    "PlacementHints": ("repro.analyze.flow", "PlacementHints"),
    "derive_hints": ("repro.analyze.flow", "derive_hints"),
    "load_hints": ("repro.analyze.flow", "load_hints"),
    "run_flow_scenarios": ("repro.analyze.flow.scenario",
                           "run_flow_scenarios"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    """Lazy exports: keep ``import repro.analyze.runtime`` (done by the
    simulator's hot modules) from dragging in the whole subsystem."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
