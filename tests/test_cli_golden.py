"""Golden surface of ``python -m repro``: parser, report text, artifacts.

Every deterministic subcommand is run through ``repro.cli.main`` and
compared against ``tests/golden/cli_surface.json``:

* **stdout byte for byte** and the **exit code**;
* every JSON report **as parsed values** (key order inside an object is
  not a fixed point; keys, values and list order are);
* the canonical files (``--hints-out``, ``--write-expect``,
  ``lint --json``) **byte for byte**;
* the **parser surface**: for each subcommand, every argument's option
  strings, default, choices, nargs and raw help string, read off the
  parser object (argparse wraps formatted help differently across
  3.10-3.12, so ``--help`` text itself is not pinned).

``chaos`` prints wall-clock numbers, so its *layout* is pinned from
reports built out of literal outcomes (``_layouts``).  That builder is
the only part of this file that may change with the report classes;
the expected text may not.

The file was generated before the suites moved onto shared plumbing; a
change to the plumbing must leave it untouched.  Regenerate (only for
an intended behaviour change) with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"

#: A file the concurrency lint has something to say about (AMB101: the
#: early return leaks the lock; AMB103: the thread is never joined).
BAD_SOURCE = '''\
def leak(self, ctx, lock, flag):
    yield Invoke(lock, "acquire")
    if flag:
        return 1
    yield Invoke(lock, "release")
    return 0


def orphan(self, ctx, anchor):
    thread = yield Fork(anchor, "run")
    return 0
'''


def _trace_of(observed: Dict[str, Any]) -> str:
    """The choice trace the hidden-race exploration reported."""
    report = observed["check-fixture-hidden-race"]["json"]["fixture.json"]
    return ",".join(str(choice)
                    for choice in report["findings"][0]["trace"])


#: name -> argv.  ``{tmp}`` is the case's scratch directory (shown as
#: ``<tmp>`` in the pinned stdout); ``{trace}`` is the trace reported by
#: the ``check-fixture-hidden-race`` case.  Cases run from the repo root
#: unless listed in ``IN_TMP``.
CASES: Dict[str, List[str]] = {
    "table1": ["table1"],
    "figure1": ["figure1"],
    "faults-seed0": ["faults", "--fast", "--seed", "0",
                     "--metrics-json", "{tmp}/faults.json"],
    "recover-seed1": ["faults", "--recover", "--fast", "--seed", "1",
                      "--metrics-json", "{tmp}/recover.json"],
    "analyze-seed0": ["analyze", "--fast", "--seed", "0",
                      "--json", "{tmp}/analyze.json"],
    "check-scenarios": ["check", "--fast", "--budget", "500",
                        "--json", "{tmp}/check.json",
                        "--metrics-json", "{tmp}/check-metrics.json"],
    "check-fixture-hidden-race": ["check", "--fixture", "hidden-race",
                                  "--json", "{tmp}/fixture.json"],
    "check-replay-reported-trace": ["check", "--fixture", "hidden-race",
                                    "--replay", "{trace}",
                                    "--json", "{tmp}/replay.json"],
    "check-replay-without-fixture": ["check", "--replay", "0,0,1"],
    "lint-bundled": ["lint", "src/repro/apps", "examples",
                     "--json", "{tmp}/lint.json"],
    "lint-bad-fixture": ["lint", "bad.py", "--explain",
                         "--json", "lint.json"],
    "flow-gated": ["flow", "--fast", "--expect",
                   "benchmarks/baseline/FLOW_expected.json",
                   "--hints-out", "{tmp}/hints.json",
                   "--json", "{tmp}/flow.json"],
    "flow-paths-write-expect": ["flow", "--paths", "src/repro/apps",
                                "--write-expect", "{tmp}/expect.json"],
    "run-queens": ["run", "queens", "--fast"],
    "run-queens-sanitize": ["run", "queens", "--fast", "--sanitize",
                            "--json", "{tmp}/views.json"],
    # Input that cannot be acted on: one ``error:`` line, exit 2.
    "lint-missing-path": ["lint", "no/such/path"],
    "flow-missing-path": ["flow", "--paths", "no_such_dir"],
    "check-replay-not-integers": ["check", "--fixture", "hidden-race",
                                  "--replay", "a,b"],
    "run-max-events-zero": ["run", "queens", "--fast",
                            "--max-events", "0"],
    # One path policy: the defaults resolve from the repo root, and a
    # file named explicitly is read whatever its suffix.
    "lint-default-paths": ["lint"],
    "lint-named-non-py": ["lint", "prog.txt"],
    "flow-named-non-py": ["flow", "--paths", "prog.txt",
                          "--json", "flow.json"],
}

#: Cases run with the scratch directory as cwd (paths in their output
#: are then relative, so the text is stable).
IN_TMP = {"lint-bad-fixture", "lint-named-non-py", "flow-named-non-py"}

#: Cases whose stderr is pinned too.
PINS_STDERR = {"lint-missing-path", "flow-missing-path",
               "check-replay-not-integers", "run-max-events-zero"}

#: Output files compared byte for byte rather than as parsed JSON.
CANONICAL = {"hints.json", "expect.json", "lint.json"}


def observe_case(name: str, tmp: Path,
                 observed: Dict[str, Any]) -> Dict[str, Any]:
    """Run one case; returns its exit code, stdout and output files."""
    argv = [part.format(tmp=tmp, trace=_trace_of(observed))
            if "{trace}" in part else part.format(tmp=tmp)
            for part in CASES[name]]
    (tmp / "bad.py").write_text(BAD_SOURCE)
    (tmp / "prog.txt").write_text(BAD_SOURCE)
    before = {path.name for path in tmp.iterdir()}
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp if name in IN_TMP else REPO)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    case: Dict[str, Any] = {
        "exit": code,
        "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
        "json": {}, "files": {},
    }
    if name in PINS_STDERR:
        case["stderr"] = stderr.getvalue()
    for path in sorted(tmp.iterdir()):
        if path.name in before:
            continue
        if path.name in CANONICAL:
            case["files"][path.name] = path.read_text()
        else:
            case["json"][path.name] = json.loads(path.read_text())
    return case


# ---------------------------------------------------------------------------
# Parser surface
# ---------------------------------------------------------------------------


class _Captured(Exception):
    pass


def parser_surface() -> Dict[str, Any]:
    """The argparse tree ``main`` builds, as plain data."""
    seen: List[argparse.ArgumentParser] = []

    def spy(self: argparse.ArgumentParser, *args: Any,
            **kwargs: Any) -> Any:
        seen.append(self)
        raise _Captured

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = spy    # type: ignore[assignment]
    try:
        main(["table1"])
    except _Captured:
        pass
    finally:
        argparse.ArgumentParser.parse_args = original   # type: ignore
    parser = seen[0]
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    helps = {choice.dest: choice.help
             for choice in subparsers._choices_actions}
    commands = []
    for name, sub in subparsers.choices.items():
        arguments = []
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            arguments.append({
                "dest": action.dest,
                "strings": list(action.option_strings),
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", None),
                "default": action.default,
                "choices": (list(action.choices)
                            if action.choices is not None else None),
                "nargs": action.nargs,
                "metavar": (list(action.metavar)
                            if isinstance(action.metavar, tuple)
                            else action.metavar),
                "help": action.help,
            })
        commands.append({"name": name, "help": helps[name],
                         "arguments": arguments})
    return {"prog": parser.prog, "description": parser.description,
            "commands": commands}


# ---------------------------------------------------------------------------
# Layouts of the wall-clock reports, from literal outcomes
# ---------------------------------------------------------------------------


def _layouts() -> Dict[str, Any]:
    """Render (and dict-encode) ``chaos`` reports built from literals.
    The only part of this file that follows the report classes."""
    from repro.faults.livescenario import chaos_report
    from repro.selfcheck import Outcome

    def live(name: str, description: str, ok: bool,
             **fields: Any) -> Outcome:
        return Outcome(name, ok, description, fields)

    chaos = chaos_report(3, True, [
        live("live-sor",
             "live SOR 8x24, 3 iterations on 2 worker nodes + 1 victim",
             True, plan="seed=3 drop=2.0%", elapsed_s=4.26,
             fingerprint="0123456789abcdef",
             counters={"resends": 4, "chaos_dropped": 7,
                       "circuit_opens": 0},
             detail="grid bit-identical to clean run; kills=1"),
        live("dedup",
             "byte-identical duplicate InvokeMsg pair, one node",
             False, plan="", elapsed_s=0.04, fingerprint="",
             counters={"dedup_in_flight": 0}, detail=""),
        live("typed-failures", "(crashed before its verdict)",
             False, plan="", elapsed_s=1.5, fingerprint="", counters={},
             detail="crashed: ClusterError: node 2 never registered"),
    ])
    quiet = chaos_report(0, False, [])
    return {
        "chaos": {"text": chaos.render(), "json": chaos.as_dict(),
                  "ok": chaos.ok},
        "chaos-empty": {"text": quiet.render(), "json": quiet.as_dict(),
                        "ok": quiet.ok},
    }


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_golden(name, golden, tmp_path):
    pytest.importorskip("numpy")
    expected = golden["cases"][name]
    # Through json once, so tuples compare as the file stores them.
    observed = json.loads(json.dumps(
        observe_case(name, tmp_path, golden["cases"])))
    assert observed["exit"] == expected["exit"]
    assert observed["stdout"] == expected["stdout"]
    assert observed.get("stderr") == expected.get("stderr")
    assert sorted(observed["json"]) == sorted(expected["json"])
    for file, document in expected["json"].items():
        assert observed["json"][file] == document, f"{name}: {file}"
    assert observed["files"] == expected["files"]


def test_flow_paths_reads_no_clock(tmp_path):
    """The static ``flow --paths`` run, twice in one process: same
    stdout, exit code and expectation bytes, on any host."""
    runs = []
    for scratch in ("first", "second"):
        (tmp_path / scratch).mkdir()
        runs.append(observe_case("flow-paths-write-expect",
                                 tmp_path / scratch, {}))
    assert runs[0] == runs[1]
    assert runs[0]["exit"] == 0


def test_parser_surface_matches_golden(golden):
    observed = json.loads(json.dumps(parser_surface()))
    expected = golden["parser"]
    assert observed["prog"] == expected["prog"]
    assert observed["description"] == expected["description"]
    assert [c["name"] for c in observed["commands"]] \
        == [c["name"] for c in expected["commands"]]
    for got, want in zip(observed["commands"], expected["commands"]):
        assert got == want, got["name"]
    assert len(expected["commands"]) == 13


@pytest.mark.parametrize("name", ["chaos", "chaos-empty"])
def test_wall_clock_report_layout_matches_golden(name, golden):
    observed = json.loads(json.dumps(_layouts()[name]))
    expected = golden["layouts"][name]
    assert observed["text"] == expected["text"]
    assert observed["json"] == expected["json"]
    assert observed["ok"] == expected["ok"]


def test_golden_cases_are_not_trivial(golden):
    """The pinned runs really exercise what the file claims."""
    cases = golden["cases"]
    assert all(case["stdout"] for case in cases.values()
               if case["exit"] != 2)
    faults = cases["faults-seed0"]["json"]["faults.json"]
    assert faults["ok"] and faults["counters"]["retries"] > 0
    assert [s["name"] for s in faults["scenarios"]] \
        == ["sor", "queens", "mobility"]
    recover = cases["recover-seed1"]["json"]["recover.json"]
    assert recover["counters"]["objects_recovered"] >= 2
    assert cases["check-fixture-hidden-race"]["exit"] == 1
    assert cases["check-replay-reported-trace"]["exit"] == 1
    replay = cases["check-replay-reported-trace"]["json"]["replay.json"]
    assert any("AMBSAN-RACE" in sig for sig in replay["signatures"])
    assert cases["check-replay-without-fixture"]["exit"] == 2
    assert cases["lint-bundled"]["exit"] == 0
    bad = json.loads(cases["lint-bad-fixture"]["files"]["lint.json"])
    assert cases["lint-bad-fixture"]["exit"] == 1
    assert {f["rule"] for f in bad["findings"]} == {"AMB101", "AMB103"}
    assert "PASS: 7/7 scenarios" in cases["flow-gated"]["stdout"]
    assert json.loads(cases["flow-gated"]["files"]["hints.json"])[
        "fingerprint"]
    flow = cases["flow-gated"]["json"]["flow.json"]
    assert "diagnostics-catalog" in {o["name"] for o in flow["outcomes"]}
    assert flow["lock_sites"] == [] and flow["confined"] == []
    for name in PINS_STDERR:
        assert cases[name]["exit"] == 2 and not cases[name]["stdout"]
        assert cases[name]["stderr"].startswith("error: ")
        assert cases[name]["stderr"].count("\n") == 1
    sanitized = cases["run-queens-sanitize"]
    assert sanitized["stdout"].startswith(cases["run-queens"]["stdout"])
    assert "AmberSan: 0 finding(s)" in sanitized["stdout"]
    assert list(sanitized["json"]["views.json"]) == ["sanitizer"]
    assert cases["lint-default-paths"]["stdout"] \
        == "clean: src/repro/apps, examples\n"
    assert "prog.txt:10: AMB103" in cases["lint-named-non-py"]["stdout"]
    assert cases["flow-named-non-py"]["json"]["flow.json"]["hints"][
        "sources"] == ["prog.txt"]
    assert "[FAIL]" in golden["layouts"]["chaos"]["text"]


def _dump(document: Dict[str, Any]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    cases: Dict[str, Any] = {}
    for case_name in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            cases[case_name] = observe_case(case_name, Path(scratch),
                                            cases)
        print(f"{case_name}: exit {cases[case_name]['exit']}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({"parser": parser_surface(),
                             "cases": cases, "layouts": _layouts()}))
    print(f"wrote {GOLDEN}")
