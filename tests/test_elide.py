"""AmberElide: the classification under ``repro flow``'s AMB3xx rules.

The catalog lives in ``repro.analyze.flow.fixtures`` and ``repro flow``
checks it; these tests pin the load-bearing unit behaviors — the
classification of every fixture that pins one, the verdict and static
owner of a lock site, and output that does not depend on the hash seed.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.model import MAIN_OWNER, classify_sources
from repro.analyze.flow.fixtures import FIXTURES
from repro.analyze.flow.scenario import run_flow_scenarios

REPO = Path(__file__).resolve().parent.parent

#: The catalog entries that pin AmberElide's classification.
CLASSIFIED = [fx for fx in FIXTURES.values() if fx.confined is not None]


def _verdicts(sources):
    """``(owner, lock class, elidable)`` of every lock site."""
    return [(site.owner, site.cls, site.elidable)
            for site in classify_sources(sources).lock_sites]


class TestClassification:
    def test_confined_counter_lock_is_elidable(self):
        fx = FIXTURES["confined-counter"]
        model = classify_sources(fx.sources())
        assert set(model.confined) == {"Tally"}
        assert _verdicts(fx.sources()) == [(MAIN_OWNER, "Lock", True)]

    def test_shared_pool_lock_is_not_elidable(self):
        fx = FIXTURES["shared-pool"]
        assert _verdicts(fx.sources()) == [(MAIN_OWNER, "Lock", False)]
        assert "JobPool" not in classify_sources(fx.sources()).confined

    def test_immutable_table_classes(self):
        fx = FIXTURES["immutable-table"]
        model = classify_sources(fx.sources())
        assert set(model.immutable) == {"SumTable", "TableReader"}

    def test_every_fixture_matches_its_catalog_entry(self):
        assert len(CLASSIFIED) == 9
        for fx in CLASSIFIED:
            model = classify_sources(fx.sources())
            findings = diagnose(model, fx.sources())
            assert tuple(sorted(f.rule for f in findings)) == tuple(
                rule for rule in fx.expected_rules
                if rule.startswith("AMB3")), fx.name
            assert tuple(model.confined) == fx.confined, fx.name
            assert tuple(model.immutable) == fx.immutable, fx.name

    def test_container_append_leaks_lock(self):
        sources = [("<case>", (
            "from repro.sim.sync import Lock\n"
            "def main(ctx):\n"
            "    stash = []\n"
            "    gate = yield New(Lock)\n"
            "    stash.append(gate)\n"
            "    yield Invoke(gate, 'acquire')\n"
            "    yield Invoke(gate, 'release')\n"))]
        assert _verdicts(sources) == [(MAIN_OWNER, "Lock", False)]

    def test_locks_a_loop_hands_to_forks_are_kept(self):
        """The tuple a loop walks is a use the pass does not follow: the
        locks in it leak, as they would passed to ``Fork`` directly."""
        fx = FIXTURES["looped-lock-pair"]
        assert _verdicts(fx.sources()) == [(MAIN_OWNER, "Lock", False)] * 2

    def test_the_inverted_locks_of_the_sanitizer_fixture_are_kept(self):
        """``run_lock_inversion`` hands its two locks to forked threads
        in opposite orders; AmberSan reports the cycle, so neither lock
        synchronises nothing."""
        path = REPO / "src" / "repro" / "analyze" / "fixtures.py"
        text = path.read_text()
        head = text[:text.index("lock_a = yield New(Lock)",
                                text.index("def run_lock_inversion"))]
        line = head.count("\n") + 1
        sites = {site.line: site for site in classify_sources(
            [(str(path), text)]).lock_sites}
        assert [sites[line].var, sites[line + 1].var] == ["lock_a", "lock_b"]
        for site in (sites[line], sites[line + 1]):
            assert (site.owner, site.elidable) == (MAIN_OWNER, False)
            assert "cannot follow" in site.reason

    def test_a_lock_compared_or_tested_is_not_carried(self):
        sources = [("<case>", (
            "from repro.sim.sync import Lock\n"
            "def main(ctx):\n"
            "    gate = yield New(Lock)\n"
            "    if gate is not None and not gate:\n"
            "        yield Invoke(gate, 'acquire')\n"
            "        yield Invoke(gate, 'release')\n"))]
        assert _verdicts(sources) == [(MAIN_OWNER, "Lock", True)]


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


class TestArtifact:
    def test_byte_identical_across_processes(self):
        """Two freshly started interpreters must print the same
        classification and findings: no dict-order, hash-seed, or id()
        dependence anywhere."""
        script = (
            "import dataclasses, json, sys\n"
            "from repro.analyze.flow.fixtures import FIXTURES\n"
            "from repro.analyze.flow.scenario import analyze\n"
            "for fx in FIXTURES.values():\n"
            "    got = analyze(fx.sources())\n"
            "    sys.stdout.write(json.dumps([\n"
            "        got.elide.confined, got.elide.immutable,\n"
            "        got.elide.shared,\n"
            "        [dataclasses.astuple(site)\n"
            "         for site in got.elide.lock_sites],\n"
            "        [f.render() for f in got.findings]]) + '\\n')\n")
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
        assert outs[0].count("\n") == len(FIXTURES)


class TestScenarioSuite:
    """``repro flow`` reports the classification beside its findings."""

    def test_fast_suite_passes(self):
        report = run_flow_scenarios(paths=["src/repro/apps", "examples"])
        assert report.ok, report.render()
        assert [o.name for o in report.outcomes] == [
            "deterministic-analysis", "diagnostics-catalog"]
        assert report.extras["lock_sites"] == []
        assert report.extras["confined"] == []
        assert "  lock sites: (none)" in report.render()

    def test_report_json_shape(self, tmp_path):
        fx = FIXTURES["scratch-workers"]
        path = tmp_path / "scratch.py"
        path.write_text(fx.source)
        report = run_flow_scenarios(paths=[str(path)])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["confined"] == list(fx.confined)
        assert payload["immutable"] == list(fx.immutable)
        assert [(site["owner"], site["cls"], site["elidable"])
                for site in payload["lock_sites"]] \
            == [("Cruncher", "Lock", True)]
        assert sorted(f["rule"] for f in payload["findings"][
            "findings"]) == list(fx.expected_rules)
        assert "Lock 'latch' (owner Cruncher): elidable" \
            in report.render()
