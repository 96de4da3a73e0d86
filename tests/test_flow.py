"""AmberFlow: static model extraction, placement-hint derivation,
the AMB2xx/AMB3xx fixture catalog, artifact determinism, and the
finding set of ``repro flow`` over files it cannot analyze."""

import json
from pathlib import Path

import pytest

from repro.analyze.flow import (
    FLOW_RULES,
    Hint,
    PlacementHints,
    derive_hints,
    flow_diagnostics,
    load_hints,
    scan_paths,
    scan_sources,
)
from repro.analyze.flow.fixtures import FIXTURES
from repro.analyze.flow.scenario import analyze, run_flow_scenarios
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
APPS = str(REPO / "src" / "repro" / "apps")


#: JSON nested deeper than ``json.loads`` can recurse.
DEEP = "[" * 100000 + "]" * 100000


def model_of(source):
    return scan_sources([("case.py", source)])


POOLED = """
class Pool:
    def __init__(self):
        self.jobs = []

    def take(self, ctx):
        yield Charge(1.0)
        return self.jobs.pop()

class Worker:
    def __init__(self, pool: Pool):
        self.pool = pool

    def run(self, ctx):
        for _ in range(16):
            job = yield Invoke(self.pool, "take")

def main(ctx):
    pool = yield New(Pool)
    for node in range(4):
        worker = yield New(Worker, pool, on_node=node)
        yield Fork(worker, "run")
"""


class TestFlowModel:
    def test_receiver_class_and_loop_weight(self):
        model = model_of(POOLED)
        site = next(s for s in model.invokes if s.method == "take")
        assert site.receiver_class == "Pool"
        assert site.caller_class == "Worker"
        assert site.loop_depth == 1
        assert site.weight == 16

    def test_fork_targets_and_spread_classes(self):
        model = model_of(POOLED)
        assert model.fork_target_classes() == {"Worker"}
        assert model.spread_classes() == {"Worker"}
        assert ("Worker", "run") in model.thread_roots()

    def test_class_model_reads_writes(self):
        model = model_of(POOLED)
        pool = model.classes["Pool"]
        assert "take" in [m.name for m in pool.writer_methods()]
        assert not pool.read_only
        worker = model.classes["Worker"]
        assert worker.read_only

    def test_set_immutable_marks_class(self):
        model = model_of("""
class Table:
    def get(self, ctx, key):
        yield Charge(1.0)

def main(ctx):
    table = yield New(Table)
    yield SetImmutable(table)
""")
        assert model.immutable_classes == {"Table"}

    def test_subscripted_field_receiver_resolves(self):
        model = model_of("""
class Section:
    def __init__(self):
        self.neighbors: List[Optional["Section"]] = [None, None]

    def edger(self, ctx, side):
        neighbor = self.neighbors[side]
        yield Invoke(neighbor, "put_edge", side)
""")
        site = next(s for s in model.invokes
                    if s.method == "put_edge")
        assert site.receiver_class == "Section"

    def test_syntax_error_is_recorded_not_raised(self):
        model = scan_sources([("broken.py", "def oops(:\n")])
        assert "broken.py" in model.errors

    def test_scan_paths_goes_through_the_one_collector(self, tmp_path):
        """Same policy as lint: an unreadable file is a ``model.errors``
        entry, a path that does not exist is a usage error."""
        from repro.errors import UsageError

        (tmp_path / "ok.py").write_text("class Pool:\n    pass\n")
        (tmp_path / "blob.py").write_bytes(b"\xff\xfe\x00")
        model = scan_paths([str(tmp_path)])
        assert "Pool" in model.classes
        blob = (tmp_path / "blob.py").as_posix()
        assert model.errors[blob].startswith("unreadable: ")
        with pytest.raises(UsageError):
            scan_paths([str(tmp_path / "nowhere")])


class TestHints:
    def test_bundled_apps_derivation(self):
        hints = derive_hints(scan_paths([APPS]))
        assert hints.kind_of("QueensWorker") == "spread"
        assert hints.spread_strategy("SorSection") == "block"
        assert "MatrixB" in hints.replicate_classes()
        assert hints.kind_of("WorkPool") == "hub"
        assert hints.kind_of("SorMaster") == "hub"

    def test_artifact_is_deterministic(self):
        first = derive_hints(scan_paths([APPS]))
        second = derive_hints(scan_paths([APPS]))
        assert first.to_json() == second.to_json()
        assert first.fingerprint == second.fingerprint

    def test_move_hint_for_single_foreign_caller(self):
        hints = derive_hints(model_of("""
class Ledger:
    def __init__(self):
        self.rows = []

    def add(self, ctx, row):
        yield Charge(1.0)
        self.rows.append(row)

class Agent:
    def __init__(self, ledger: Ledger):
        self.ledger = ledger

    def run(self, ctx):
        yield Invoke(self.ledger, "add", 1)

def main(ctx):
    ledger = yield New(Ledger)
    agent = yield New(Agent, ledger)
    yield Fork(agent, "run")
"""))
        hint = hints.for_class("Ledger")[0]
        assert hint.kind == "move"
        assert hint.with_cls == "Agent"

    def test_roundtrip_through_json(self, tmp_path):
        hints = derive_hints(scan_paths([APPS]))
        path = tmp_path / "hints.json"
        path.write_text(hints.to_json())
        loaded = load_hints(str(path))
        assert loaded.valid
        assert loaded.fingerprint == hints.fingerprint

    def test_load_hints_never_raises(self, tmp_path):
        missing = load_hints(str(tmp_path / "nope.json"))
        assert not missing.valid
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        assert not load_hints(str(garbled)).valid
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema": "amberflow-hints/0",
                                     "hints": []}))
        assert not load_hints(str(stale)).valid

    @pytest.mark.parametrize("text, schema", [
        ('{"schema": "amberflow-hints/1", "hints": [{"weight": Infinity}]}',
         "malformed"),
        ('{"schema": "amberflow-hints/1", "hints": [{"weight": 1e400}]}',
         "malformed"),
        (DEEP, "unreadable"),
    ], ids=["infinite-weight", "overflowing-weight", "deep-nesting"])
    def test_load_hints_never_raises_on_hostile_json(self, text, schema,
                                                     tmp_path):
        path = tmp_path / "hints.json"
        path.write_text(text)
        loaded = load_hints(path)
        assert loaded.schema == schema
        assert not loaded.valid


class TestDiagnostics:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_fires_expected_rules(self, name):
        """The one finding set (AMB2xx and AMB3xx) fires each rule as
        often as the catalog says; where the fixture pins AmberElide's
        classification, it is that."""
        fx = FIXTURES[name]
        got = analyze(fx.sources())
        assert tuple(sorted(f.rule for f in got.findings)) \
            == fx.expected_rules
        if fx.confined is not None:
            assert tuple(got.elide.confined) == fx.confined
        if fx.immutable is not None:
            assert tuple(got.elide.immutable) == fx.immutable

    def test_rules_catalogue(self):
        assert set(FLOW_RULES) == {"AMB201", "AMB202", "AMB203",
                                   "AMB204", "AMB205"}

    def test_findings_are_sorted_and_deduplicated(self):
        fx = FIXTURES["amb201"]
        model = scan_sources(fx.sources())
        findings = flow_diagnostics(model, dict(fx.sources()))
        keys = [(f.path, f.line, f.rule) for f in findings]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_immutable_receiver_suppresses_amb201(self):
        model = model_of(FIXTURES["amb201-clean"].source)
        assert flow_diagnostics(model, None) == []


class TestArtifactSchema:
    def test_as_dict_roundtrip(self):
        hints = PlacementHints(
            schema="amberflow-hints/1", sources=["a.py"],
            hints=[Hint(kind="replicate", cls="Table",
                        evidence="read-mostly")])
        again = PlacementHints.from_dict(hints.as_dict())
        assert again.to_json() == hints.to_json()


class TestUnanalyzedFiles:
    """A file ``repro flow`` cannot read or parse is an AMB000 row, as
    in ``repro lint``, and fails the run: it must not read as clean."""

    def test_unparsable_and_undecodable_files_fail_the_run(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "undecodable.py").write_bytes(b"\xff\xfe")
        paths = [str(tmp_path / "bad.py"), str(tmp_path / "undecodable.py")]
        report = run_flow_scenarios(paths=paths)
        assert not report.ok
        rows = report.extras["findings"]["findings"]
        assert [(row["path"], row["rule"]) for row in rows] == [
            ((tmp_path / "bad.py").as_posix(), "AMB000"),
            ((tmp_path / "undecodable.py").as_posix(), "AMB000")]
        failed = [o for o in report.outcomes if not o.ok]
        assert [o.name for o in failed] == ["unreadable-sources"]
        assert len(failed[0].fields["details"]) == 2


class TestExpectationFile:
    @pytest.mark.parametrize("findings", [[1], [{"line": "abc"}], 5],
                             ids=["row-not-an-object", "line-not-a-number",
                                  "not-a-list"])
    def test_hostile_findings_are_a_fail_verdict(self, findings,
                                                 tmp_path):
        expect = tmp_path / "expect.json"
        expect.write_text(json.dumps({"schema": "amberflow-findings/1",
                                      "findings": findings}))
        (tmp_path / "ok.py").write_text("class Pool:\n    pass\n")
        report = run_flow_scenarios(paths=[str(tmp_path / "ok.py")],
                                    expect=str(expect))
        gate = next(o for o in report.outcomes
                    if o.name == "expected-findings")
        assert not gate.ok
        assert "malformed findings" in gate.fields["details"][0]

    @pytest.mark.parametrize("text", [
        '{"schema": "amberflow-findings/1", "findings": [{"path": "a", '
        '"line": Infinity, "rule": "r", "message": "m"}]}',
        DEEP,
    ], ids=["infinite-line", "deep-nesting"])
    def test_hostile_json_is_a_fail_verdict_not_a_traceback(
            self, text, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        expect.write_text(text)
        (tmp_path / "t.py").write_text("x = 1\n")
        assert main(["flow", "--paths", str(tmp_path / "t.py"),
                     "--expect", str(expect)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] expected-findings" in out
        assert "FAIL: 2/3 scenarios" in out
