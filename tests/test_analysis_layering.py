"""Structure of the static analysis (docs/ANALYSIS.md, "One front
end"): ``repro lint`` and ``repro flow`` (AmberFlow and the AmberElide
classification under it) read one parse, one scope enumeration, one
idiom vocabulary, one receiver key, one class resolver and end in one
tail, all of it in ``repro.analyze.program`` — and none of it on the
import path of a simulated or live run.  ``ast`` and ``sys.modules``
only; no wall clock.
"""

import ast
import json
import sysconfig
from pathlib import Path

import pytest

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.model import classify
from repro.analyze.flow import flow_diagnostics, scan_sources
from repro.analyze.flow.scenario import analyze
from repro.analyze.lint import collect_sources, lint_paths, lint_source
from tests.test_analysis_corpus import corpus
from tests.test_kernel_layering import SRC, run_python

ANALYZE = SRC / "repro" / "analyze"
FRONT_END = ANALYZE / "program.py"
#: The three passes and their diagnostics, written against the front end.
PASSES = [ANALYZE / "lint.py", ANALYZE / "flow" / "model.py",
          ANALYZE / "flow" / "diagnostics.py",
          ANALYZE / "elide" / "model.py",
          ANALYZE / "elide" / "diagnostics.py"]

#: The idiom vocabulary: request names, the live runtime's spellings,
#: and the acquire/release table.
VOCABULARY = {
    "Invoke", "FastInvoke", "Fork", "Start", "NewThread", "New",
    "MoveTo", "Attach", "SetImmutable", "Join", "Suspend", "Sleep",
    "start_thread", "set_immutable",
    "acquire", "release", "enter", "exit", "acquire_read",
    "release_read", "acquire_write", "release_write",
}

#: Private helpers the front end replaced.
DELETED = {
    "_Types", "_expr_key", "_pretty_key", "_CTX_RE", "_NAME_RE",
    "_ATTR_RE", "_call_name", "_call_method", "_enclosing_class",
    "_receiver_class", "_class_of_value", "_ann_class", "_param_env",
    "_stmt_exprs", "_own_exprs", "_walk_own", "_syscall", "_head",
    "_src", "_key", "_cls_of_value", "_ACQUIRES", "_PAIRS",
    "_SYNC_METHODS", "_is_self_field", "_is_fork_call",
    "_join_targets", "_scan_class_fields",
}


def _modules():
    """Every module of ``repro.analyze`` but the fixture catalogs,
    which *are* programs."""
    for path in sorted(ANALYZE.rglob("*.py")):
        if path.name != "fixtures.py":
            yield path, ast.parse(path.read_text())


def _names(node):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {name for alias in node.names
                for name in (alias.name, alias.asname)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant):      # __all__, lazy-export tables
        return {node.value} if isinstance(node.value, str) else set()
    return set()


def test_the_vocabulary_is_spelled_in_one_module():
    spelled = {}
    for path, tree in _modules():
        words = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)} & VOCABULARY
        if words:
            spelled[path.relative_to(ANALYZE).as_posix()] = words
    assert list(spelled) == ["program.py"], spelled
    assert spelled["program.py"] == VOCABULARY


def test_programs_are_parsed_in_one_module():
    parsers = [path.relative_to(ANALYZE).as_posix()
               for path, tree in _modules()
               if any(isinstance(node, ast.Attribute)
                      and node.attr == "parse"
                      and ast.unparse(node.value) == "ast"
                      for node in ast.walk(tree))]
    assert parsers == ["program.py"]


def test_one_receiver_key_and_one_noqa_tail():
    for path in PASSES:
        tree = ast.parse(path.read_text())
        used = set().union(*(_names(node) for node in ast.walk(tree)))
        assert not used & {"unparse", "_noqa_lines", "_NOQA_RE",
                           "splitlines"}, path
        # ``filter_noqa`` stays importable from the lint; only the tail
        # calls it.
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and "filter_noqa" in _names(node.func)]
        assert not calls, path
    front = ast.parse(FRONT_END.read_text())
    unparsers = [fn.name for fn in ast.walk(front)
                 if isinstance(fn, ast.FunctionDef)
                 and any("unparse" in _names(node)
                         for node in ast.walk(fn))]
    assert unparsers == ["key"]


def test_the_deleted_helpers_are_gone_not_aliased():
    for path, tree in _modules():
        for node in ast.walk(tree):
            assert not _names(node) & DELETED, (path, _names(node))


def test_one_resolver_and_one_scope_enumeration():
    """The passes define no resolver, environment or scope walk of
    their own: each builds the front end's."""
    for path in PASSES:
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert not {name for name in defined
                    if "resolv" in name.lower() or "annot" in name.lower()
                    or name in ("Env", "Scope", "Program")}, path
    for name in ("lint.py", "flow/model.py", "elide/model.py"):
        used = set().union(*(_names(node) for node in ast.walk(
            ast.parse((ANALYZE / name).read_text()))))
        assert {"Resolver", "Scope", "amber_call"} <= used, name


@pytest.mark.parametrize("name", sorted(corpus()))
def test_flow_and_elide_agree_on_the_owner_of_every_function(name):
    """Sites are attributed by the one scope enumeration: the class
    AmberFlow records as a site's caller and the owner AmberElide
    records for a lock created in the same function are that
    function's ``Scope.owner`` — nested functions included."""
    sources = corpus()[name]
    model = scan_sources(sources)
    scopes = model.program.scopes

    def owner_at(path, line):
        inside = [scope for scope in scopes if scope.path == path
                  and scope.fn.lineno <= line <= scope.fn.end_lineno]
        return max(inside, key=lambda scope: scope.fn.lineno).owner

    for site in model.invokes:
        assert site.caller_class == owner_at(site.path, site.line), site
    for site in classify(model, sources).lock_sites:
        assert site.owner == (owner_at(site.path, site.line)
                              or "<main>"), site
    for scope in scopes:
        if scope.parent is not None:
            assert scope.owner == scope.parent.owner \
                or scope.owner in model.classes


def test_a_function_nested_in_a_method_belongs_to_its_class():
    program = scan_sources([("case.py", """
class Worker:
    def run(self, ctx):
        def helper():
            def inner():
                pass
        class Local:
            def method(self):
                pass

def run_x():
    def main(ctx):
        pass
""")]).program
    assert [(scope.qual, scope.owner,
             scope.parent.qual if scope.parent else None)
            for scope in program.scopes] == [
        ("Worker.run", "Worker", None),
        ("Worker.helper", "Worker", "Worker.run"),
        ("Worker.inner", "Worker", "Worker.helper"),
        ("Local.method", "Local", "Worker.run"),
        ("run_x", "", None),
        ("run_x.main", "", "run_x"),
    ]


def _counting_parse(monkeypatch):
    """Patch ``ast.parse``; returns the filenames of source parses (a
    string annotation's ``mode="eval"`` parse is not one)."""
    parsed = []
    original = ast.parse

    def spy(source, filename="<unknown>", mode="exec", **kwargs):
        if mode == "exec":
            parsed.append(filename)
        return original(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", spy)
    return parsed


def test_each_command_parses_each_source_once(monkeypatch):
    paths = [str(SRC / "repro" / "apps"), str(SRC.parent / "examples")]
    sources, errors = collect_sources(paths)
    expected = sorted(path for path, _ in sources)
    assert len(expected) >= 15 and not errors
    parsed = _counting_parse(monkeypatch)

    lint_paths(paths)
    assert sorted(parsed) == expected
    del parsed[:]

    analyze(sources)        # hints, classification, AMB2xx + AMB3xx
    assert sorted(parsed) == expected


def test_a_run_loads_no_static_pass():
    loaded = json.loads(run_python(
        "import json, sys, repro.sim, repro.runtime, repro.apps\n"
        "import repro.apps.sor, repro.apps.queens, repro.apps.matmul\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro.analyze'))))\n"))
    assert "repro.analyze.runtime" in loaded
    assert not {"repro.analyze.lint", "repro.analyze.program",
                "repro.analyze.flow", "repro.analyze.flow.model",
                "repro.analyze.elide.model"} & set(loaded), loaded


def test_the_front_end_imports_the_standard_library_only():
    tree = ast.parse(FRONT_END.read_text())
    imported = {(node.module if isinstance(node, ast.ImportFrom)
                 else alias.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported <= {"__future__", "ast", "re", "collections",
                        "dataclasses", "enum", "typing"}, imported


def _answers(sources):
    model = scan_sources(sources)
    emodel = classify(model, sources)
    return json.dumps([
        [finding.render() for path, text in sources
         for finding in lint_source(text, path)],
        sorted(map(repr, model.invokes + model.forks + model.news
                   + model.moves + model.escapes)),
        sorted(model.errors.items()),
        [finding.render()
         for finding in flow_diagnostics(model, dict(sources))],
        emodel.confined, emodel.immutable, emodel.shared,
        sorted(map(repr, emodel.lock_sites)),
        [finding.render() for finding in diagnose(emodel, sources)],
    ])


def test_the_passes_survive_the_interpreters_own_library():
    """Robustness sweep: arbitrary Python — not Amber programs — must
    raise nothing, and a second run must give equal output."""
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    files = sorted(stdlib.glob("*.py"))[:25]
    assert len(files) == 25
    sources = []
    for file in files:
        try:
            sources.append((file.name, file.read_text()))
        except (OSError, ValueError):
            continue
    assert len(sources) >= 20
    for source in sources:                  # each file alone ...
        assert _answers([source]) == _answers([source])
    assert _answers(sources) == _answers(sources)   # ... and as one


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and
    functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant):
                yield first.value


def test_the_hints_format_is_spelled_in_one_module():
    """``PlacementHints`` is the one reader of its artifact: no other
    module under ``src/repro`` spells the schema tag in code."""
    spelled = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        docs = set(map(id, _docstrings(tree)))
        if any(isinstance(node, ast.Constant)
               and isinstance(node.value, str)
               and "amberflow-hints/1" in node.value
               and id(node) not in docs for node in ast.walk(tree)):
            spelled.append(path.relative_to(SRC).as_posix())
    assert spelled == ["repro/analyze/flow/hints.py"]


def _loaded(module, *prefixes):
    return json.loads(run_python(
        f"import json, sys, {module}\n"
        f"print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m.startswith({prefixes!r}))))\n"))


def test_placement_loads_no_analysis_pass():
    """The policies ask the artifact by duck typing: importing them
    loads only what the simulator loads of ``repro.analyze``."""
    assert _loaded("repro.placement", "repro.analyze",
                   "repro.selfcheck") == ["repro.analyze",
                                          "repro.analyze.runtime"]


def test_the_flow_analysis_loads_no_simulator():
    assert _loaded("repro.analyze.flow", "repro.sim") == []


def test_the_choice_controller_loads_no_explorer_and_no_simulator():
    """AmberCheck's recorder (``analyze/choice.py``) is what the
    simulator's hooks call: it stands apart from the explorer that
    drives it and from the simulator it records."""
    tree = ast.parse((ANALYZE / "choice.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)} | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names}
    assert not {name for name in imported
                if name.startswith(("repro.sim", "repro.analyze.check"))}
    assert _loaded("repro.analyze.choice", "repro.sim",
                   "repro.analyze.check") == []
