"""The ``repro elide`` self-check suite.

Four static scenarios check the pass itself:

* **deterministic-analysis** — the classification is deterministic
  (byte-identical ``amberelide/1`` artifact across reruns);
* **fixture-catalog** — the AMB301-AMB304 catalog fires exactly as
  specified on the bundled fixtures (including ``# repro:
  noqa[...]`` suppression);
* **artifact-roundtrip** — ``load_artifact`` keeps the fingerprint and
  never raises on truncated, malformed, or unknown-schema files;
* **hint-promotion** — classes AmberElide proves effectively immutable
  are promoted to ``replicate`` placement hints even when AmberFlow
  saw no foreign traffic.

Nothing here runs a program or reads a clock, so a run's report is the
same on any host.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analyze.elide.artifact import (
    ElideArtifact,
    build_artifact,
    load_artifact,
)
from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.fixtures import FIXTURES
from repro.analyze.elide.model import classify_sources
from repro.analyze.lint import (
    DEFAULT_PATHS,
    LintFinding,
    collect_sources,
)
from repro.selfcheck import OK_MARK, Outcome, Report, Suite, detailed


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


ELIDE_SUITE = Suite(
    key="outcomes", fields=("name", "ok", "details"),
    line="  " + OK_MARK,
    body=lambda outcome: [f"      {line}"
                          for line in outcome.fields["details"]],
    trailer="overall: {verdict} ({passed}/{total} scenarios)")


# ---------------------------------------------------------------------------
# Static scenarios
# ---------------------------------------------------------------------------


def _outcome_deterministic(
        sources: Sequence[Tuple[str, str]]) -> Outcome:
    """Scan everything twice; artifacts must be byte-identical."""
    corpora: List[Tuple[str, List[Tuple[str, str]]]] = [
        (fx.name, fx.sources()) for fx in FIXTURES.values()]
    corpora.append(("analyzed-paths", list(sources)))
    details: List[str] = []
    ok = True
    for name, corpus in corpora:
        first = build_artifact(classify_sources(corpus), corpus)
        second = build_artifact(classify_sources(corpus), corpus)
        if first.to_json() != second.to_json() or \
                first.fingerprint != second.fingerprint:
            ok = False
            details.append(f"{name}: rerun artifact differs")
    details.append(f"{len(corpora)} corpora scanned twice, "
                   f"byte-identical artifacts")
    return detailed("deterministic-analysis", ok, details)


def _outcome_fixture_catalog() -> Outcome:
    """Classification and AMB3xx findings match the catalog exactly."""
    details: List[str] = []
    ok = True
    for fx in FIXTURES.values():
        emodel = classify_sources(fx.sources())
        artifact = build_artifact(emodel, fx.sources())
        findings = diagnose(emodel, fx.sources())
        got_rules = tuple(sorted(f.rule for f in findings))
        checks = [
            ("rules", got_rules, tuple(sorted(fx.expected_rules))),
            ("confined", tuple(sorted(emodel.confined)),
             tuple(sorted(fx.confined))),
            ("immutable", tuple(sorted(emodel.immutable)),
             tuple(sorted(fx.immutable))),
            ("lock-owners", tuple(artifact.lock_owners),
             tuple(sorted(fx.elidable_owners))),
        ]
        bad = [f"{what}: got {got!r}, want {want!r}"
               for what, got, want in checks if got != want]
        if bad:
            ok = False
            details.append(f"{fx.name}: " + "; ".join(bad))
        else:
            details.append(f"{fx.name}: {len(findings)} finding(s), "
                           f"classification as expected")
    return detailed("fixture-catalog", ok, details)


def _outcome_artifact_roundtrip(artifact: ElideArtifact) -> Outcome:
    """Serialization invariants: a roundtrip keeps the fingerprint and
    a load never raises."""
    details: List[str] = []
    ok = True

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "elide.json"
        path.write_text(artifact.to_json())
        loaded = load_artifact(str(path))
        if not loaded.valid or \
                loaded.fingerprint != artifact.fingerprint:
            ok = False
            details.append("roundtrip changed the fingerprint")
        else:
            details.append("json roundtrip preserves the fingerprint")

        hostile = {
            "truncated": artifact.to_json()[:37],
            "malformed": "[1, 2, 3]\n",
            "binary": "\x00\x01\x02",
            "unknown-schema": json.dumps(
                {"schema": "amberelide/99", "confined": ["X"]}),
        }
        for name, text in hostile.items():
            path.write_text(text)
            try:
                bad = load_artifact(str(path))
            except Exception as error:   # pragma: no cover - the bug
                ok = False
                details.append(f"{name}: load raised {error!r}")
                continue
            if bad.valid:
                ok = False
                details.append(f"{name}: loaded as valid")
        path.unlink()
        missing = load_artifact(str(path))
        if missing.valid:
            ok = False
            details.append("missing file loaded as valid")
        details.append(f"{len(hostile) + 1} hostile loads, "
                       f"none raised, none valid")

    return detailed("artifact-roundtrip", ok, details)


#: Analysis-only source proving the hint promotion adds information:
#: ``Settings`` has no cross-object callers, so AmberFlow alone derives
#: no ``replicate`` hint — AmberElide's immutability proof does.
_PROMOTION_SOURCE = '''\
from repro.sim import SimObject
from repro.sim.syscalls import Charge, Invoke, New


class Settings(SimObject):
    def __init__(self, depth: int) -> None:
        self.depth = depth

    def limit(self, ctx):
        yield Charge(1.0)
        return self.depth * 2


def main(ctx):
    settings = yield New(Settings, 4)
    value = yield Invoke(settings, "limit")
    return value
'''


def _outcome_hint_promotion() -> Outcome:
    """AmberElide-immutable classes become ``replicate`` hints."""
    from repro.analyze.flow.hints import derive_hints
    from repro.analyze.flow.model import scan_sources

    details: List[str] = []
    ok = True
    sources = [("<fixture:promotion>", _PROMOTION_SOURCE)]
    flow = scan_sources(sources)
    emodel = classify_sources(sources)
    if "Settings" not in emodel.immutable:
        ok = False
        details.append("Settings not classified immutable")
    plain = {h.cls for h in derive_hints(flow).hints
             if h.kind == "replicate"}
    promoted = {h.cls for h in
                derive_hints(flow,
                             extra_immutable=emodel.immutable).hints
                if h.kind == "replicate"}
    if "Settings" in plain:
        ok = False
        details.append("flow alone already replicated Settings "
                       "(fixture lost its point)")
    if "Settings" not in promoted:
        ok = False
        details.append("promotion did not add the replicate hint")
    else:
        details.append("Settings: no flow hint -> replicate hint "
                       "via extra_immutable")

    # Promotion must respect spread: a fork-target class proven
    # immutable still must not be replicated.
    fx = FIXTURES["immutable-table"]
    tflow = scan_sources(fx.sources())
    tmodel = classify_sources(fx.sources())
    table_hints = derive_hints(
        tflow, extra_immutable=tmodel.immutable).hints
    if any(h.kind == "replicate" and h.cls == "TableReader"
           for h in table_hints):
        ok = False
        details.append("spread class TableReader was replicated")
    if not any(h.kind == "replicate" and h.cls == "SumTable"
               for h in table_hints):
        ok = False
        details.append("SumTable lost its replicate hint")
    else:
        details.append("SumTable replicated, spread TableReader not")
    return detailed("hint-promotion", ok, details)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_elide_scenarios(paths: Optional[Sequence[str]] = None) -> Report:
    """Analyze ``paths`` (the bundled apps and examples by default)
    and run the suite."""
    used_paths = [str(p) for p in (paths or DEFAULT_PATHS)]
    sources, _ = collect_sources(used_paths)
    emodel = classify_sources(sources)
    artifact = build_artifact(emodel, sources)
    findings = diagnose(emodel, sources)

    outcomes = [
        _outcome_deterministic(sources),
        _outcome_fixture_catalog(),
        _outcome_artifact_roundtrip(artifact),
        _outcome_hint_promotion(),
    ]
    return elide_report(outcomes, artifact, findings, used_paths)


def elide_report(outcomes: List[Outcome], artifact: ElideArtifact,
                 findings: List[LintFinding], paths: List[str]) -> Report:
    """The report of one ``repro elide`` invocation."""
    elidable = [f"{owner}/{cls}" for owner, cls in artifact.lock_owners]
    title = [f"AmberElide over {', '.join(paths)}:",
             f"  confined: {', '.join(artifact.confined) or '(none)'}",
             f"  immutable: {', '.join(artifact.immutable) or '(none)'}",
             f"  elidable lock owners: {', '.join(elidable) or '(none)'}"]
    title.extend(f"  {finding.path}:{finding.line} {finding.rule} "
                 f"{finding.message}" for finding in findings)
    title.append("scenarios:")
    return Report(
        ELIDE_SUITE, title=title,
        params={"schema": "amberelide-report/1", "paths": paths},
        outcomes=outcomes,
        extras={"artifact": artifact,
                "findings": [finding.as_dict() for finding in findings]})
