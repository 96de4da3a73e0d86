"""Command-line interface: regenerate paper artifacts, run and explain
a workload, and the self-check suites.

::

    python -m repro table1                    # Table 1 latencies
    python -m repro figure1                   # SOR program structure
    python -m repro figure2 [--fast]          # SOR speedup by configuration
    python -m repro figure3 [--fast]          # speedup vs problem size
    python -m repro ablations                 # A1-A6 design-claim runs
    python -m repro all [--fast]              # everything above, in order

    python -m repro run sor --fast            # per-thread time attribution
                                              # + operation metrics
    python -m repro run sor --fast --trace trace.json --hotloop --sanitize
                                              # the same run, also traced
                                              # to Perfetto, self-profiled
                                              # and sanitized
    python -m repro faults [--fast] [--seed N]
                                              # fault injection & recovery
                                              # report (see docs/FAULTS.md)
    python -m repro faults --recover [--fast] # permanent-crash recovery
                                              # report (docs/RECOVERY.md)
    python -m repro chaos [--fast] [--seed N] [--json PATH]
                                              # live-runtime chaos suite:
                                              # loss/dup/reset/kill against
                                              # real node processes
                                              # (see docs/CHAOS.md)
    python -m repro analyze [--fast] [--seed N]
                                              # AmberSan race/deadlock
                                              # scenarios (docs/ANALYSIS.md)
    python -m repro check [--fast] [--seed N] [--budget N]
                                              # AmberCheck schedule
                                              # exploration scenarios
    python -m repro check --fixture hidden-race
                                              # explore one fixture
    python -m repro check --fixture hidden-race --replay 0,0,0,1
                                              # replay a choice trace
    python -m repro lint [paths...] [--json PATH]
                                              # concurrency AST lint
                                              # (exit 1 on findings)
    python -m repro flow [--fast] [--json PATH]
                                              # AmberFlow object-flow
                                              # analysis (AMB2xx, and
                                              # AmberElide's AMB3xx) +
                                              # placement-hint
                                              # cross-validation
                                              # (docs/ANALYSIS.md)
    python -m repro flow --hints-out PATH     # emit the PlacementHints
                                              # artifact
    python -m repro flow --expect PATH        # gate findings against a
                                              # committed expectation

``run`` makes one run of a :data:`repro.apps.WORKLOADS` row with every
attachment asked for: ``--trace`` (the tracer), ``--hotloop`` (the
hot-loop self-profiler, docs/PERF.md; speed is measured by python -m
benchmarks.amberbench) and ``--sanitize`` (AmberSan; exit 1 on a
finding).  Every view comes from that one run.

Every artifact accepts ``--metrics-json PATH`` to dump the run's metrics
registry (operation-latency histograms with p50/p90/p99, counters,
gauges) as JSON.

Every subcommand is one row of ``COMMANDS``.  Input that cannot be
acted on (:class:`~repro.errors.UsageError`) is one ``error:`` line on
stderr and exit code 2: a count option below 1, or an output path whose
directory does not exist, is caught before anything runs, and an output
that cannot be written at the end is the same one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.apps import WORKLOADS
from repro.bench import ablations, figure1, figure2, figure3, table1
from repro.bench.reporting import write_metrics_json
from repro.errors import UsageError

_ARTIFACTS = {
    "table1": lambda fast, metrics_out: table1.main(
        metrics_out=metrics_out),
    "figure1": lambda fast, metrics_out: figure1.main(
        metrics_out=metrics_out),
    "figure2": lambda fast, metrics_out: figure2.main(
        iterations=8 if fast else figure2.DEFAULT_ITERATIONS,
        metrics_out=metrics_out),
    "figure3": lambda fast, metrics_out: figure3.main(
        iterations=6 if fast else figure3.DEFAULT_ITERATIONS,
        metrics_out=metrics_out),
    "ablations": lambda fast, metrics_out: ablations.main(
        metrics_out=metrics_out),
}


# ---------------------------------------------------------------------------
# Checked options and output files
# ---------------------------------------------------------------------------

#: The options that name a file a command writes, by ``dest``
#: (``flow --expect`` is read, not written).
_OUTPUTS = ("json", "metrics_json", "trace", "hints_out", "write_expect")


def _check_outputs(args) -> None:
    """Refuse, before anything runs, an output option that names a
    directory or a file in a directory that does not exist."""
    for dest in _OUTPUTS:
        path = getattr(args, dest, None)
        if not path:
            continue
        flag = "--" + dest.replace("_", "-")
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path}: is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise UsageError(f"{flag} {path}: no such directory "
                             f"{parent}")


def _at_least_one(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


class _Default(int):
    """A default that is not the same number given on the command line:
    ``args.max_events is _MAX_EVENTS`` only when the option was left out."""


_MAX_EVENTS = _Default(500_000)


@contextmanager
def _writing(path: str):
    """An output that cannot be written is a usage error, not a
    traceback."""
    try:
        yield
    except OSError as error:
        raise UsageError(f"cannot write {path}: "
                         f"{error.strerror or error}") from None


def _write(path: Optional[str], content: Any, what: str,
           lead: str = "\n") -> None:
    """Write one output file, if its option was given, and say so.
    ``content`` is the file's text, or a document to encode as JSON."""
    if not path:
        return
    if not isinstance(content, str):
        content = json.dumps(content, indent=2)
    with _writing(path), open(path, "w") as handle:
        handle.write(content)
    print(f"{lead}{what} written to {path}")


def _write_metrics(path: Optional[str], metrics: Dict[str, Any],
                   what: str = "metrics", lead: str = "") -> None:
    if path:
        with _writing(path):
            write_metrics_json(path, metrics)
        print(f"{lead}{what} written to {path}")


def _emit(report, json_path: Optional[str], *files) -> int:
    """The tail every report command shares: print ``render()``, write
    the ``(path, content, what)`` files that were asked for and the
    JSON report after them, exit by the verdict."""
    print(report.render())
    for path, content, what in files:
        _write(path, content, what)
    _write(json_path, report.as_dict(), "report")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Handlers (each imports its subsystem when it runs)
# ---------------------------------------------------------------------------


def _cmd_artifacts(names: List[str], args) -> int:
    metrics_out = {} if args.metrics_json else None
    print("\n\n".join(_ARTIFACTS[name](args.fast, metrics_out)
                      for name in names))
    _write_metrics(args.metrics_json, metrics_out, lead="\n")
    return 0


def _cmd_faults(args) -> int:
    if args.recover:
        from repro.recovery.scenario import run_recovery_scenarios as run
    else:
        from repro.faults.scenario import run_fault_scenarios as run
    return _emit(run(seed=args.seed, fast=args.fast), args.metrics_json)


def _cmd_chaos(args) -> int:
    from repro.faults.livescenario import run_chaos_scenarios

    return _emit(run_chaos_scenarios(seed=args.seed, fast=args.fast),
                 args.json)


def _cmd_run(args) -> int:
    """One run of a ``repro.apps.WORKLOADS`` row with every attachment
    asked for, then every view of it: the time attribution and metrics
    always, the AmberSan reports, the hot-loop table and the Perfetto
    file on request.  Exit 1 when a sanitizer report has a finding."""
    from repro.obs.profile import profile_result, render_profile

    max_events = _at_least_one(args.max_events, "--max-events")
    if max_events is not _MAX_EVENTS and not args.trace:
        raise UsageError("--max-events requires --trace")
    tracer = sanitizers = profiler = None
    if args.trace:
        from repro.sim.trace import Tracer
        tracer = Tracer(max_events=max_events)
    with ExitStack() as attached:
        if args.sanitize:
            from repro.analyze.runtime import sanitize_runs
            sanitizers = attached.enter_context(sanitize_runs())
        if args.hotloop:
            from repro.perf.hotprof import profile_runs
            profiler = attached.enter_context(profile_runs())
        result = WORKLOADS[args.workload](args.fast, tracer)
    label = f"{args.workload} ({result.cluster.config.label()})"
    print(render_profile(
        profile_result(result), elapsed_us=result.elapsed_us,
        title=f"Per-thread time attribution: {label}, microseconds"))
    print()
    print(result.cluster.metrics.render(title="Operation metrics"))
    views: Dict[str, Any] = {}
    reports = []
    if sanitizers is not None:
        reports = [sanitizer.report() for sanitizer in sanitizers]
        for report in reports:
            print()
            print(report.render())
        views["sanitizer"] = [report.as_dict() for report in reports]
    if profiler is not None:
        from repro.perf.hotprof import render_hotloop
        print()
        print(render_hotloop(
            profiler, title=f"Hot-loop self-profile: {label}, host time"))
        views["hotloop"] = profiler.as_dict()
    if tracer is not None:
        from repro.obs.perfetto import (
            export_chrome_trace,
            profiler_track_events,
        )
        with _writing(args.trace):
            count = export_chrome_trace(
                tracer.events, args.trace,
                nodes=result.cluster.config.nodes,
                extra=profiler_track_events(profiler) if profiler else None)
        dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
        print(f"\nwrote {count} trace events to {args.trace}{dropped}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
    _write(args.json, views, "report")
    _write_metrics(args.metrics_json,
                   {args.workload: result.cluster.metrics.as_dict()})
    return 0 if all(report.ok for report in reports) else 1


def _cmd_analyze(args) -> int:
    from repro.analyze.scenario import run_analysis_scenarios
    return _emit(run_analysis_scenarios(seed=args.seed, fast=args.fast),
                 args.json)


def _cmd_check(args) -> int:
    if args.replay is not None and not args.fixture:
        raise UsageError("--replay requires --fixture")
    _at_least_one(args.budget, "--budget")
    from repro.analyze.checkscenario import (
        CHECK_FIXTURES,
        run_check_scenarios,
    )

    if args.fixture:
        from repro.analyze.check import check_program
        program_fn = partial(CHECK_FIXTURES[args.fixture], args.seed)
        if args.replay is not None:
            return _replay(args, program_fn)
        return _emit(check_program(program_fn, name=args.fixture,
                                   budget=args.budget,
                                   dpor=not args.exhaustive,
                                   progress=print), args.json)

    metrics = None
    if args.metrics_json:
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
    code = _emit(run_check_scenarios(seed=args.seed, fast=args.fast,
                                     budget=args.budget, metrics=metrics),
                 args.json)
    if metrics is not None:
        _write_metrics(args.metrics_json, {"check": metrics.as_dict()},
                       what="exploration metrics")
    return code


def _replay(args, program_fn) -> int:
    """``check --fixture F --replay TRACE``: run one recorded schedule."""
    from repro.analyze.check import run_schedule

    try:
        choices = [int(token) for token in
                   args.replay.replace(",", " ").split()]
    except ValueError:
        raise UsageError("--replay wants comma- or space-separated "
                         "integers") from None
    outcome = run_schedule(program_fn, choices)
    print(f"replayed {args.fixture} (seed {args.seed}) with "
          f"trace {choices}")
    print(f"  status: {outcome.status}")
    if outcome.value_repr:
        print(f"  value: {outcome.value_repr}")
    if outcome.diverged:
        print("  WARNING: trace diverged from the recorded "
              "schedule")
    for line in outcome.detail.splitlines():
        print(f"  {line}")
    for _, rendered in outcome.findings:
        print()
        print(rendered)
    _write(args.json, {
        "fixture": args.fixture, "seed": args.seed,
        "trace": choices, "status": outcome.status,
        "value": outcome.value_repr,
        "diverged": outcome.diverged,
        "choices": outcome.choices,
        "signatures": outcome.signatures(),
    }, "replay")
    clean = (outcome.status == "ok" and not outcome.findings
             and not outcome.diverged)
    return 0 if clean else 1


def _cmd_lint(args) -> int:
    from repro.analyze.lint import DEFAULT_PATHS, RULES, lint_paths

    paths = args.paths or list(DEFAULT_PATHS)
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    if args.explain:
        print()
        for rule, text in sorted(RULES.items()):
            print(f"{rule}: {text}")
    _write(args.json, {"paths": paths,
                       "findings": [f.as_dict() for f in findings]},
           "findings", lead="")
    if findings:
        print(f"\n{len(findings)} finding(s)")
        return 1
    print(f"clean: {', '.join(paths)}")
    return 0


def _cmd_flow(args) -> int:
    from repro.analyze.flow.scenario import (
        expectation_json,
        run_flow_scenarios,
    )

    report = run_flow_scenarios(fast=args.fast, paths=args.paths,
                                expect=args.expect)
    return _emit(
        report, args.json,
        (args.hints_out, report.extras["hints"].to_json(),
         "placement hints"),
        (args.write_expect, expectation_json(report.extras["findings"]),
         "findings expectation"))


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

#: One argument declaration: ``add_argument``'s flags and options.
Argument = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **options: Any) -> Argument:
    return flags, options


# The options most commands share, declared once; each command words
# the help its own way.

def _fast(help: str) -> Argument:
    return _arg("--fast", action="store_true", help=help)


def _seed(help: str) -> Argument:
    return _arg("--seed", type=int, default=0, help=help)


def _path(flag: str, help: str) -> Argument:
    """An output or input file option (``--json``, ``--metrics-json``,
    ``--trace``, ...)."""
    return _arg(flag, metavar="PATH", help=help)


class Command(NamedTuple):
    """One subcommand: a row of :data:`COMMANDS`."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    arguments: Tuple[Argument, ...]


def _artifact_command(name: str, names: List[str]) -> Command:
    return Command(
        name, f"regenerate {name}", partial(_cmd_artifacts, names), (
            _fast("fewer SOR iterations (quick look)"),
            _path("--metrics-json",
                  "dump the runs' metrics registries as JSON")))


COMMANDS: Tuple[Command, ...] = (
    *(_artifact_command(name, [name]) for name in sorted(_ARTIFACTS)),
    _artifact_command("all", sorted(_ARTIFACTS)),
    Command(
        "run", "run a workload once and print its per-thread time "
               "attribution and operation metrics, plus every view "
               "asked for",
        _cmd_run, (
            _arg("workload", choices=sorted(WORKLOADS)),
            _fast("smaller problem (quick look)"),
            _path("--trace", "export a Chrome/Perfetto trace: the node "
                             "tracks and, with --hotloop, the host-time "
                             "phase track"),
            _arg("--max-events", type=int, default=_MAX_EVENTS,
                 help="tracer ring capacity (default: 500000)"),
            _arg("--sanitize", action="store_true",
                 help="run under AmberSan and print its findings "
                      "(simulated times are unchanged; exit 1 on a "
                      "finding)"),
            _arg("--hotloop", action="store_true",
                 help="self-profile the simulator's hot loop and print "
                      "where the host time went (speed is measured by "
                      "python -m benchmarks.amberbench)"),
            _path("--json", "dump the sanitizer reports and the "
                            "hot-loop profile as JSON"),
            _path("--metrics-json",
                  "also dump the run's metrics registry as JSON"))),
    Command(
        "faults", "run the fault-recovery scenarios and print a "
                  "pass/fail report",
        _cmd_faults, (
            _fast("smaller workloads (quick look / CI smoke)"),
            _seed("fault plan seed (default: 0)"),
            _arg("--recover", action="store_true",
                 help="run the crash-recovery scenarios instead: "
                      "permanent node death survived via checkpoint "
                      "promotion and thread resurrection (see "
                      "docs/RECOVERY.md)"),
            _path("--metrics-json",
                  "dump the recovery report (verdicts + fault "
                  "counters) as JSON"))),
    Command(
        "chaos", "AmberChaos: run the live-runtime chaos scenarios "
                 "(seeded loss/dup/delay/resets plus mid-run process "
                 "kills) and print a pass/fail report",
        _cmd_chaos, (
            _fast("smaller workloads (CI smoke)"),
            _seed("fault plan seed (default: 0)"),
            _path("--json", "dump the report (verdicts + "
                            "hardening/chaos counters) as JSON"))),
    Command(
        "analyze", "run the AmberSan analysis scenarios "
                   "(race/immutable/residency/lock-order) and print a "
                   "pass/fail report",
        _cmd_analyze, (
            _fast("skip the bundled-apps sweep (CI smoke)"),
            _seed("fixture jitter seed (default: 0)"),
            _path("--json", "dump the report (verdicts + finding "
                            "signatures) as JSON"))),
    Command(
        "check", "AmberCheck: explore all relevantly-distinct thread "
                 "schedules of the bounded fixtures (DPOR model "
                 "checking) and print a pass/fail report",
        _cmd_check, (
            _fast("fewer random-rarity samples, skip the "
                  "bundled-apps sweep (CI smoke)"),
            _seed("fixture jitter seed (default: 0)"),
            _arg("--budget", type=int, default=2000,
                 help="max schedules to explore (default: 2000)"),
            # sorted(checkscenario.CHECK_FIXTURES), spelled out so that
            # building the parser imports no subsystem
            # (tests/test_selfcheck_layering.py compares the two).
            _arg("--fixture", choices=["hidden-deadlock", "hidden-race",
                                       "locked-counter", "sync-zoo"],
                 default=None,
                 help="instead of the scenarios, explore one "
                      "fixture and report its findings"),
            _arg("--exhaustive", action="store_true",
                 help="with --fixture: full enumeration instead of "
                      "dynamic partial-order reduction"),
            _arg("--replay", metavar="TRACE", default=None,
                 help="with --fixture: replay a recorded choice "
                      "trace (comma-separated indices, e.g. "
                      "'0,0,1') instead of exploring"),
            _path("--json", "dump the report as JSON"),
            _path("--metrics-json",
                  "dump the explorer's check_* counters "
                  "(schedules, prunes, backtracks, choice-point "
                  "depths) as JSON; scenario mode only"))),
    Command(
        "lint", "static concurrency lint (AMB101-AMB109) over Amber "
                "programs",
        _cmd_lint, (
            _arg("paths", nargs="*",
                 help="files or directories (default: src/repro/apps "
                      "and examples)"),
            _arg("--explain", action="store_true",
                 help="print the rule catalogue after the findings"),
            _path("--json", "also dump the findings as "
                            "machine-readable JSON"))),
    Command(
        "flow", "AmberFlow: whole-program object-flow analysis; "
                "derives placement hints, runs AMB201-AMB205 "
                "diagnostics, and cross-validates the hints against "
                "simulator runs (docs/ANALYSIS.md)",
        _cmd_flow, (
            _fast("smaller app runs for the dynamic scenarios "
                  "(CI smoke)"),
            _arg("--paths", nargs="*", default=None,
                 help="analyze these files/directories instead of "
                      "the bundled apps+examples (static scenarios "
                      "only)"),
            _path("--expect",
                  "gate the finding set against this committed "
                  "expectation file"),
            _path("--write-expect",
                  "write the finding set as a new expectation "
                  "file"),
            _path("--hints-out",
                  "write the PlacementHints artifact as JSON"),
            _path("--json", "dump the full report as JSON"))),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation artifacts of the Amber "
                    "paper (SOSP 1989) on the simulated cluster, or "
                    "trace/profile a simulated workload.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for command in COMMANDS:
        sp = sub.add_parser(command.name, help=command.help)
        for flags, options in command.arguments:
            sp.add_argument(*flags, **options)
        sp.set_defaults(handler=command.handler)
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.handler(args)
    except UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
