"""AmberElide: classification and artifact hygiene.

The suite itself lives in ``repro.analyze.elide.scenario``
(``repro elide``); these tests pin the load-bearing unit behaviors —
the classification of every fixture, the static owner of a lock site,
cross-process artifact determinism and loads that never raise.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze.elide.artifact import (
    ELIDE_SCHEMA,
    ElideArtifact,
    build_artifact,
    load_artifact,
)
from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.fixtures import FIXTURES
from repro.analyze.elide.model import MAIN_OWNER, classify_sources
from repro.analyze.elide.scenario import run_elide_scenarios

REPO = Path(__file__).resolve().parent.parent


def _fixture_artifact(name):
    fx = FIXTURES[name]
    return build_artifact(classify_sources(fx.sources()), fx.sources())


class TestClassification:
    def test_confined_counter_lock_is_elidable(self):
        fx = FIXTURES["confined-counter"]
        model = classify_sources(fx.sources())
        assert set(model.confined) == {"Tally"}
        artifact = build_artifact(model, fx.sources())
        assert artifact.lock_owners == [(MAIN_OWNER, "Lock")]

    def test_shared_pool_lock_is_not_elidable(self):
        artifact = _fixture_artifact("shared-pool")
        assert artifact.lock_owners == []
        assert "JobPool" not in artifact.confined

    def test_immutable_table_classes(self):
        fx = FIXTURES["immutable-table"]
        model = classify_sources(fx.sources())
        assert set(model.immutable) == {"SumTable", "TableReader"}

    def test_every_fixture_matches_its_catalog_entry(self):
        for fx in FIXTURES.values():
            model = classify_sources(fx.sources())
            findings = diagnose(model, fx.sources())
            assert sorted(f.rule for f in findings) == \
                sorted(fx.expected_rules), fx.name
            assert set(model.confined) == set(fx.confined), fx.name
            assert set(model.immutable) == set(fx.immutable), fx.name
            artifact = build_artifact(model, fx.sources())
            assert artifact.lock_owners == \
                sorted(fx.elidable_owners), fx.name

    def test_container_append_leaks_lock(self):
        sources = [("<case>", (
            "from repro.sim.sync import Lock\n"
            "def main(ctx):\n"
            "    stash = []\n"
            "    gate = yield New(Lock)\n"
            "    stash.append(gate)\n"
            "    yield Invoke(gate, 'acquire')\n"
            "    yield Invoke(gate, 'release')\n"))]
        artifact = build_artifact(classify_sources(sources), sources)
        assert artifact.lock_owners == []


#: The module-level twin of the ``nested-helper-lock`` fixture: the
#: helper that creates the shared lock is a module-level generator
#: (static owner ``<main>``) that ``Worker.run`` delegates to — so the
#: lock is created, at run time, by a ``Worker`` activation.
_MODULE_HELPER_LOCK = FIXTURES["nested-helper-lock"].source.replace(
    """\
        def fan_out(sink):
            shared = yield New(Lock)
            first = yield Fork(sink, "use", shared, ROUNDS)
            second = yield Fork(sink, "use", shared, ROUNDS)
            yield Join(first)
            yield Join(second)

""", "").replace("""\
class Worker(SimObject):
""", """\
def fan_out(sink):
    shared = yield New(Lock)
    first = yield Fork(sink, "use", shared, ROUNDS)
    second = yield Fork(sink, "use", shared, ROUNDS)
    yield Join(first)
    yield Join(second)


class Worker(SimObject):
""")


class TestLockOwner:
    """The static owner of a lock site is the class of the activation
    that creates the lock at run time (``sim/kernel.py``: the object on
    top of the creating thread's stack)."""

    def _fixtures(self):
        nested = FIXTURES["nested-helper-lock"]
        return [nested, dataclasses.replace(
            nested, name="module-helper-lock", source=_MODULE_HELPER_LOCK)]

    def test_the_twin_really_moved_the_helper(self):
        nested, twin = self._fixtures()
        assert "\ndef fan_out(sink):" in twin.source
        assert "        def fan_out(sink):" not in twin.source
        assert twin.source.count("New(Lock)") \
            == nested.source.count("New(Lock)") == 2

    def test_nested_helper_site_is_owned_by_the_methods_class(self):
        nested, twin = self._fixtures()
        sites = {site.var: site for site in
                 classify_sources(nested.sources()).lock_sites}
        assert (sites["shared"].owner, sites["shared"].elidable) \
            == ("Worker", False)
        assert (sites["private"].owner, sites["private"].elidable) \
            == ("Worker", True)
        sites = {site.var: site for site in
                 classify_sources(twin.sources()).lock_sites}
        assert (sites["shared"].owner, sites["shared"].elidable) \
            == (MAIN_OWNER, False)

    def test_no_pair_is_elidable_and_no_lock_is_marked(self):
        for fx in self._fixtures():
            artifact = build_artifact(classify_sources(fx.sources()),
                                      fx.sources())
            assert artifact.lock_owners == [], fx.name

    def test_unelidable_main_site_vetoes_its_class_for_every_owner(self):
        locks = [
            {"path": "p", "line": 1, "owner": "<main>", "var": "a",
             "cls": "Lock", "elidable": False, "reason": ""},
            {"path": "p", "line": 2, "owner": "Worker", "var": "b",
             "cls": "Lock", "elidable": True, "reason": ""},
            {"path": "p", "line": 3, "owner": "Worker", "var": "c",
             "cls": "SpinLock", "elidable": True, "reason": ""},
            {"path": "p", "line": 4, "owner": "<main>", "var": "d",
             "cls": "Monitor", "elidable": True, "reason": ""},
        ]
        artifact = ElideArtifact(schema=ELIDE_SCHEMA, locks=locks)
        assert artifact.lock_owners == [("<main>", "Monitor"),
                                        ("Worker", "SpinLock")]


class TestArtifact:
    def test_byte_identical_across_processes(self, tmp_path):
        """Two freshly started interpreters must emit the same bytes:
        no dict-order, hash-seed, or id() dependence anywhere."""
        script = (
            "import sys\n"
            "from repro.analyze.elide.artifact import build_artifact\n"
            "from repro.analyze.elide.fixtures import FIXTURES\n"
            "from repro.analyze.elide.model import classify_sources\n"
            "for fx in FIXTURES.values():\n"
            "    art = build_artifact(classify_sources(fx.sources()),\n"
            "                         fx.sources())\n"
            "    sys.stdout.write(art.fingerprint + '\\n')\n"
            "    sys.stdout.write(art.to_json())\n")
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, cwd=str(REPO),
                env={"PYTHONPATH": str(REPO / "src"),
                     "PYTHONHASHSEED": seed},
                timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("text", [
        "", "{", "[1, 2, 3]", "null", "\x00\x01",
        '{"schema": "amberelide/99"}',
    ])
    def test_load_never_raises(self, tmp_path, text):
        path = tmp_path / "artifact.json"
        path.write_text(text)
        artifact = load_artifact(str(path))
        assert not artifact.valid

    def test_load_tolerates_mistyped_fields(self, tmp_path):
        """Right schema, hostile field types: loads without raising
        and carries no elision facts."""
        path = tmp_path / "artifact.json"
        path.write_text('{"schema": "amberelide/1", "locks": "nope", '
                        '"sources": 7, "confined": 3, '
                        '"immutable": {"x": 1}}')
        artifact = load_artifact(str(path))
        assert artifact.valid
        assert artifact.lock_owners == []
        assert artifact.skip_classes == []

    def test_load_missing_file(self, tmp_path):
        artifact = load_artifact(str(tmp_path / "absent.json"))
        assert not artifact.valid

    def test_truncated_roundtrip(self, tmp_path):
        good = _fixture_artifact("confined-counter")
        path = tmp_path / "artifact.json"
        path.write_text(good.to_json()[:-25])
        assert not load_artifact(str(path)).valid

    def test_roundtrip_preserves_fingerprint(self, tmp_path):
        good = _fixture_artifact("scratch-workers")
        path = tmp_path / "artifact.json"
        path.write_text(good.to_json())
        loaded = load_artifact(str(path))
        assert loaded.valid
        assert loaded.fingerprint == good.fingerprint
        assert loaded.to_json() == good.to_json()


class TestScenarioSuite:
    def test_fast_suite_passes(self):
        report = run_elide_scenarios()
        assert report.ok, report.render()
        assert {o.name for o in report.outcomes} == {
            "deterministic-analysis", "fixture-catalog",
            "artifact-roundtrip", "hint-promotion"}
        assert report.extras["artifact"].schema == ELIDE_SCHEMA

    def test_report_json_shape(self):
        report = run_elide_scenarios(paths=["src/repro/apps"])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["schema"] == "amberelide-report/1"
        assert payload["artifact"]["schema"] == ELIDE_SCHEMA
        assert all(o["ok"] for o in payload["outcomes"])
