"""The ``repro elide`` verification suite.

An elision analysis that is wrong does not produce a bad report — it
produces a *differently scheduled simulation*, which is far worse.  So
the suite is built around one invariant: **elision must be
unobservable** except in host cost and event count.

* **static self-consistency** — the classification is deterministic
  (byte-identical ``amberelide/1`` artifact across reruns) and the
  AMB301-AMB304 catalog fires exactly as specified on the bundled
  fixtures (including ``# repro: noqa[...]`` suppression);
* **artifact hygiene** — ``load_artifact`` never raises on truncated,
  malformed, or unknown-schema files, and a stale artifact silently
  disables elision (counted, never half-applied);
* **hint promotion** — classes AmberElide proves effectively immutable
  are promoted to ``replicate`` placement hints even when AmberFlow
  saw no foreign traffic;
* **soundness audit** — every runnable fixture executes under the
  sanitizer of :mod:`.audit` with elision active in audit mode (interposition
  fully installed): any cross-thread touch of a claimed-confined
  object, any post-construction write to a claimed-immutable class,
  and any cross-thread acquire of an elision-marked lock is a hard
  ``AMBELIDE-UNSOUND`` finding; and no lock may be marked whose own
  creation site the analysis judged un-elidable (the static lock owner
  must be the one the kernel computes).  The bundled apps run under
  the same audit.  A deliberately unsound elision set is also run to
  prove the auditor has teeth;
* **``--verify``** adds: bounded AmberCheck exploration with elision
  active, bit-identical results/elapsed (fixtures and the bundled
  apps of ``repro.apps.WORKLOADS``) between elision on and off, and
  elision-effectiveness counters (``lock_elided_total`` > 0,
  ``lock_elide_bailout_total`` == 0).

Every verdict is a comparison of simulated observables: nothing here
reads a clock, so a run's report is the same on any host.  Whether
elision makes a run *faster* is AmberBench's question
(``sim.sync.lock_elided_total`` and the end-to-end metrics of
``python -m benchmarks.amberbench``), not this suite's.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.analyze.elide import runtime as _ert
from repro.analyze.elide.artifact import (
    ElideArtifact,
    build_artifact,
    load_artifact,
)
from repro.analyze.elide.audit import audit_run
from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.fixtures import FIXTURES, ElideFixture
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
# Running programs under (and without) elision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RunRecord:
    """The observables one program run is compared on."""

    value: str          # repr of the main thread's result
    elapsed_us: float
    events: int
    elided: int
    bailouts: int

    def core(self) -> Tuple[str, float]:
        """The bits elision must never change."""
        return (self.value, self.elapsed_us)

    @staticmethod
    def of(result: Any) -> "_RunRecord":
        counters = result.cluster.metrics.counters
        elided = counters.get("lock_elided_total")
        bailed = counters.get("lock_elide_bailout_total")
        return _RunRecord(
            value=repr(result.value),
            elapsed_us=result.elapsed_us,
            events=result.cluster.sim.events_run,
            elided=elided.value if elided else 0,
            bailouts=bailed.value if bailed else 0)


def _program(fx: ElideFixture) -> Any:
    """An ``AmberProgram`` on the cluster ``fx`` was written for."""
    from repro.sim.cluster import ClusterConfig
    from repro.sim.program import AmberProgram

    config = ClusterConfig(nodes=fx.nodes,
                           cpus_per_node=fx.cpus_per_node)
    return AmberProgram(config)


def _plain_run(fx: ElideFixture) -> _RunRecord:
    return _RunRecord.of(_program(fx).run(fx.load_main()))


def _activated(fx: ElideFixture, audit: bool = False) -> ElideArtifact:
    """Classify ``fx`` and activate its artifact (caller deactivates)."""
    emodel = classify_sources(fx.sources())
    artifact = build_artifact(emodel, fx.sources())
    if not artifact.activate(source_texts=dict(fx.sources()),
                             audit=audit):
        raise RuntimeError(f"fixture artifact unexpectedly stale: "
                           f"{fx.name}")
    return artifact


def _audit_fixture(fx: ElideFixture
                   ) -> Tuple[Any, List[Any], List[Tuple[str, str, int]]]:
    main = fx.load_main()
    return audit_run(lambda: _program(fx).run(main))


def _mismarked(artifact: ElideArtifact,
               marked: List[Tuple[str, str, int]]) -> List[str]:
    """The marked locks created at a site the analysis itself judged
    un-elidable: the runtime's ``(owner, class)`` pair then differs
    from the static one, and the all-sites rule protects nothing."""
    refused = {(str(lock["path"]), lock["line"])
               for lock in artifact.locks if not lock["elidable"]}
    return [f"{cls} created at {file}:{line} is marked, but its site "
            f"is un-elidable"
            for cls, file, line in marked if (file, line) in refused]


def _apps_artifact() -> ElideArtifact:
    """The artifact of the bundled apps, wherever the package is (the
    paths are the ones their code objects carry)."""
    import repro.apps

    sources, _ = collect_sources([os.path.dirname(repro.apps.__file__)])
    return build_artifact(classify_sources(sources), sources)


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
    """Serialization invariants: load never raises, stale never
    activates (and is counted)."""
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

    # Staleness: a changed source refuses activation and is counted.
    fx = FIXTURES["confined-counter"]
    art = build_artifact(classify_sources(fx.sources()), fx.sources())
    before = _ert.STALE_DISABLES
    activated = art.activate(
        source_texts={fx.path: fx.source + "\n# drifted\n"})
    if activated or _ert.active() is not None:
        ok = False
        details.append("stale artifact activated")
        _ert.deactivate()
    if _ert.STALE_DISABLES != before + 1:
        ok = False
        details.append("stale disable was not counted")
    else:
        details.append("stale artifact refused and counted "
                       f"(STALE_DISABLES={_ert.STALE_DISABLES})")
    invalid = ElideArtifact(schema="amberelide/99")
    if invalid.activate() or _ert.active() is not None:
        ok = False
        details.append("invalid-schema artifact activated")
        _ert.deactivate()
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
# Dynamic scenarios
# ---------------------------------------------------------------------------


def _outcome_soundness_audit() -> Outcome:
    """Audit-mode runs observe every access; claims must hold — and a
    deliberately unsound set must be *caught*."""
    from repro.apps import WORKLOADS

    details: List[str] = []
    ok = True
    runnable = [fx for fx in FIXTURES.values() if fx.runnable]
    for fx in runnable:
        artifact = _activated(fx, audit=True)
        try:
            result, findings, marked = _audit_fixture(fx)
        finally:
            _ert.deactivate()
        record = _RunRecord.of(result)
        unsound = [f for f in findings
                   if f.rule == "AMBELIDE-UNSOUND"]
        problems = _mismarked(artifact, marked)
        if findings:
            problems.append(
                f"{len(findings)} sanitizer finding(s), "
                f"{len(unsound)} unsound")
        if record.value != repr(fx.expect_result):
            problems.append(f"result {record.value}")
        if record.bailouts:
            problems.append(f"{record.bailouts} elision bailout(s)")
        if fx.expect_elided and record.elided == 0:
            problems.append("nothing elided")
        if not fx.expect_elided and record.elided != 0:
            problems.append(f"{record.elided} unexpected elisions")
        if problems:
            ok = False
            details.append(f"{fx.name}: " + "; ".join(problems))
        else:
            details.append(f"{fx.name}: clean audit, "
                           f"{record.elided} op(s) elided")

    apps_artifact = _apps_artifact()
    for name, run in WORKLOADS.items():
        if not apps_artifact.activate(audit=True):
            ok = False
            details.append(f"{name}: apps artifact stale on disk")
            continue
        try:
            # The fast sizes: what gets marked does not depend on it.
            _, findings, marked = audit_run(lambda: run(True))
        finally:
            _ert.deactivate()
        problems = _mismarked(apps_artifact, marked) + [
            f.message for f in findings if f.rule == "AMBELIDE-UNSOUND"]
        if problems:
            ok = False
            details.append(f"{name}: " + "; ".join(problems))
        else:
            details.append(f"{name}: clean audit, "
                           f"{len(marked)} lock(s) marked")

    # Teeth check: claim the shared pool confined and its gate
    # elidable; the audit must produce AMBELIDE-UNSOUND findings.
    fx = FIXTURES["shared-pool"]
    _ert.activate(_ert.ElideSet(
        skip_classes=frozenset({"JobPool"}),
        lock_owners=frozenset({(_ert.MAIN_OWNER, "Lock")}),
        confined=frozenset({"JobPool"}),
        immutable=frozenset(),
        fingerprint="deliberately-unsound"), audit=True)
    try:
        _, findings, _ = _audit_fixture(fx)
    finally:
        _ert.deactivate()
    caught = [f for f in findings if f.rule == "AMBELIDE-UNSOUND"]
    if not caught:
        ok = False
        details.append("unsound control set produced no "
                       "AMBELIDE-UNSOUND finding")
    else:
        details.append(f"unsound control set caught: "
                       f"{len(caught)} AMBELIDE-UNSOUND finding(s)")
    return detailed("soundness-audit", ok, details)


def _outcome_schedule_audit() -> Outcome:
    """Bounded AmberCheck exploration with elision active (audit
    mode): every explored schedule must stay clean and converge."""
    from repro.analyze.check import check_program

    details: List[str] = []
    ok = True
    for name in ("confined-counter", "scratch-workers"):
        fx = FIXTURES[name]
        main = fx.load_main()

        def program() -> Any:
            return _program(fx).run(main)

        _activated(fx, audit=True)
        try:
            report = check_program(program, name=f"elide:{name}",
                                   budget=64)
        finally:
            _ert.deactivate()
        if not report.ok:
            ok = False
            details.append(
                f"{name}: {len(report.findings)} finding(s) over "
                f"{report.schedules} schedule(s)")
        else:
            details.append(f"{name}: {report.schedules} schedule(s) "
                           f"explored, clean")
    return detailed("schedule-audit", ok, details)


def _outcome_bit_identical(fast: bool) -> Outcome:
    """Elision on vs. off: results and simulated elapsed bit-identical,
    runs deterministic per mode, and elision never adds events — on the
    fixtures and on the bundled apps."""
    from repro.apps import WORKLOADS, fingerprint

    details: List[str] = []
    ok = True
    for fx in (fx for fx in FIXTURES.values() if fx.runnable):
        off = [_plain_run(fx), _plain_run(fx)]
        _activated(fx)
        try:
            on = [_plain_run(fx), _plain_run(fx)]
        finally:
            _ert.deactivate()
        problems: List[str] = []
        if off[0] != off[1] or on[0] != on[1]:
            problems.append("nondeterministic")
        if off[0].core() != on[0].core():
            problems.append(
                f"off={off[0].core()} on={on[0].core()}")
        if on[0].events > off[0].events:
            problems.append(f"events grew {off[0].events} -> "
                            f"{on[0].events}")
        if fx.expect_elided and on[0].events >= off[0].events:
            problems.append("no event was elided")
        if on[0].bailouts:
            problems.append(f"{on[0].bailouts} bailout(s)")
        if problems:
            ok = False
            details.append(f"{fx.name}: " + "; ".join(problems))
        else:
            details.append(
                f"{fx.name}: bit-identical, events "
                f"{off[0].events} -> {on[0].events}, "
                f"{on[0].elided} op(s) elided")

    apps_artifact = _apps_artifact()
    for name, run in WORKLOADS.items():
        off_runs = [fingerprint(run(fast)) for _ in range(2)]
        if not apps_artifact.activate():
            ok = False
            details.append(f"{name}: apps artifact stale on disk")
            continue
        try:
            on_runs = [fingerprint(run(fast)) for _ in range(2)]
        finally:
            _ert.deactivate()
        if len(set(off_runs)) != 1 or len(set(on_runs)) != 1:
            ok = False
            details.append(f"{name}: nondeterministic fingerprints")
        elif off_runs[0] != on_runs[0]:
            ok = False
            details.append(f"{name}: fingerprint {off_runs[0]} -> "
                           f"{on_runs[0]}")
        else:
            details.append(f"{name}: fingerprint {on_runs[0]} "
                           f"identical with elision active")
    return detailed("bit-identical", ok, details)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_elide_scenarios(paths: Optional[Sequence[str]] = None,
                        fast: bool = False,
                        verify: bool = False) -> Report:
    """Run the (static, and with ``verify`` also dynamic) suite."""
    if _ert.active() is not None:   # hygiene: never run nested
        _ert.deactivate()
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
        _outcome_soundness_audit(),
    ]
    if verify:
        outcomes.append(_outcome_schedule_audit())
        outcomes.append(_outcome_bit_identical(fast))
    return elide_report(outcomes, artifact, findings, used_paths, verify)


def elide_report(outcomes: List[Outcome], artifact: ElideArtifact,
                 findings: List[LintFinding], paths: List[str],
                 verify: bool) -> Report:
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
        params={"schema": "amberelide-report/1", "paths": paths,
                "verify": verify},
        outcomes=outcomes,
        extras={"artifact": artifact,
                "findings": [finding.as_dict() for finding in findings]})
