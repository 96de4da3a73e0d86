"""Structure of the self-check plumbing (DESIGN.md, "Self-check suites
and CLI"): one report harness, one path walker, one command table — and
none of it on the import path of a simulated or live run.  ``ast`` and
``sys.modules`` only; no wall clock.
"""

import ast
import json
from pathlib import Path

import repro.cli
from tests.test_kernel_layering import SRC, run_python

PACKAGE = SRC / "repro"

#: The six report class pairs the harness replaced.
DELETED_CLASSES = {
    "AnalysisOutcome", "AnalysisReport",
    "CheckOutcome", "CheckScenarioReport",
    "FlowOutcome", "FlowReport",
    "ElideOutcome", "ElideReport",
    "ScenarioOutcome", "FaultsReport",
    "LiveScenarioOutcome", "ChaosReport",
}

#: What ``import repro.sim, repro.runtime`` loads.  AmberBench's
#: ``setup_s`` and ``peak_rss_mib`` pay for every entry: nothing here
#: may be the CLI, a scenario suite or the report harness.
RUN_TIME_MODULES = """
repro repro.analyze
repro.analyze.runtime repro.core repro.core.address_space
repro.core.attachment repro.core.costs repro.core.descriptor
repro.core.invocation repro.errors repro.faults repro.faults.inject repro.faults.plan
repro.obs repro.obs.metrics repro.obs.perfetto repro.obs.profile
repro.perf repro.perf.hotprof repro.recovery
repro.recovery.config repro.runtime repro.runtime.cluster
repro.runtime.bodies repro.runtime.coordinator repro.runtime.frames
repro.runtime.handles repro.runtime.kernel
repro.runtime.lifecycle repro.runtime.messages repro.runtime.node
repro.runtime.objects repro.runtime.objtable repro.runtime.programtext
repro.runtime.transport repro.runtime.workers
repro.sim repro.sim.cluster repro.sim.engine
repro.sim.kernel repro.sim.mobility repro.sim.network repro.sim.node
repro.sim.objects
repro.sim.program repro.sim.repair repro.sim.scheduler repro.sim.stats
repro.sim.sync repro.sim.syscalls repro.sim.thread repro.sim.trace
""".split()


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def test_the_deleted_report_classes_are_gone_not_aliased():
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {name for alias in node.names
                         for name in (alias.name, alias.asname)}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Constant):   # lazy-export tables
                names = {node.value}
            else:
                continue
            assert not names & DELETED_CLASSES, f"{path}: {names}"


def test_one_outcome_and_one_report_class():
    defined = [(path.name, node.name) for path, tree in _trees()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name in ("Outcome", "Report")]
    assert sorted(defined) == [("selfcheck.py", "Outcome"),
                               ("selfcheck.py", "Report")]


def test_one_function_walks_paths_for_sources():
    walkers = []
    for path, tree in _trees():
        if PACKAGE / "analyze" not in path.parents:
            continue
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "rglob":
                    assert ast.literal_eval(node.args[0]) == "*.py"
                    walkers.append((path.name, function.name))
    assert walkers == [("lint.py", "collect_sources")]


def test_no_dead_path_walker_came_back():
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("classify_paths",
                                         "_read_sources"), path


def test_recovery_scenarios_import_public_names_only():
    tree = ast.parse((PACKAGE / "recovery" / "scenario.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert "clean_vs_faulted" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_no_verdict_is_reached_by_a_clock_or_through_repro_perf():
    """A self-check verdict is a comparison of simulated observables:
    the same on every host.  Speed is AmberBench's question.  The live
    chaos pair runs real sockets, and its clocks are deadlines."""
    live = {PACKAGE / "faults" / "live.py",
            PACKAGE / "faults" / "livescenario.py"}
    judging = [PACKAGE / "analyze", PACKAGE / "faults",
               PACKAGE / "recovery"]
    hits = []
    for path, tree in _trees():
        if path != PACKAGE / "selfcheck.py" \
                and not any(root in path.parents for root in judging):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module or ""} | {
                    f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            if any(name == "repro.perf" or name.startswith("repro.perf.")
                   for name in names):
                hits.append((path, "repro.perf"))
            if path not in live \
                    and names & {"perf_counter", "monotonic",
                                 "time.perf_counter", "time.monotonic"}:
                hits.append((path, sorted(names)))
    assert not hits, hits
    # The exception is real, not stale.
    assert all("monotonic" in path.read_text() for path in live)


def test_cli_dispatches_through_its_table():
    source = (PACKAGE / "cli.py").read_text()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            assert "args.command" not in ast.unparse(node), \
                ast.unparse(node)
    encoders = [node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and ast.unparse(node.func.value) == "json"]
    assert len(encoders) <= 2
    assert source.count("\n") < 720     # its size before the table


def test_every_subcommand_is_a_row_with_a_lazy_handler():
    names = [command.name for command in repro.cli.COMMANDS]
    assert len(names) == len(set(names)) == 13
    for command in repro.cli.COMMANDS:
        assert command.help and callable(command.handler)
    # Building the parser (any invocation) imports no suite: handlers
    # import their subsystem when they run.
    loaded = json.loads(run_python(
        "import json, sys, repro.cli\n"
        "try:\n"
        "    repro.cli.main(['lint', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print()\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro.'))))\n"
    ).splitlines()[-1])
    assert "repro.cli" in loaded
    assert not [name for name in loaded
                if "scenario" in name or name == "repro.selfcheck"
                or name.startswith("repro.runtime")], loaded


def test_docstring_names_every_subcommand():
    for command in repro.cli.COMMANDS:
        assert f"python -m repro {command.name}" in repro.cli.__doc__, \
            command.name


def test_fixture_choices_match_the_fixture_table():
    from repro.analyze.checkscenario import CHECK_FIXTURES

    check = next(command for command in repro.cli.COMMANDS
                 if command.name == "check")
    choices = next(options["choices"]
                   for flags, options in check.arguments
                   if flags == ("--fixture",))
    assert choices == sorted(CHECK_FIXTURES)


def test_a_run_loads_no_cli_suite_or_harness_module():
    loaded = json.loads(run_python(
        "import json, sys, repro.sim, repro.runtime\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'repro'\n"
        "                        or m.startswith('repro.'))))\n"))
    assert loaded == sorted(RUN_TIME_MODULES)
    assert not [name for name in loaded
                if "scenario" in name
                or name in ("repro.cli", "repro.selfcheck")]
