"""The ``repro flow`` cross-validation suite.

Static analysis that nobody checks against reality drifts into
fiction.  This suite closes the loop in both directions:

* **static self-consistency** — the analysis is deterministic
  (byte-identical hints artifact and findings fingerprint across
  reruns) and the AMB201-AMB205 and AMB301-AMB304 catalog fires
  exactly as specified on the bundled fixtures (including noqa
  suppression), with AmberElide's classification where a fixture pins
  one;
* **expectation gate** — the finding set over the bundled apps and
  examples matches a committed expectation file, so a hint or
  diagnostic change shows up in review as a diff, not as silence;
* **prediction scoring** — the bundled apps run in the simulator under
  the knowledge-free static default (``SpreadPlacement``) and under
  ``HintedPlacement`` driven by the derived artifact, and every
  checkable hint is confirmed or refuted against the dynamic record
  (object locations, the kernel's access log, invocation metrics);
  per-hint verdicts and overall precision are reported;
* **ablation** — hint-driven placement must *reduce the remote
  invocation share* (``invoke_remote_us`` count fraction) versus the
  static default on the apps where locality is on the table (SOR's
  neighbor chatter, matmul's shared B), with the numbers printed.

The finding set is one reading of the sources (:func:`analyze`): an
AMB000 row per file that could not be read or parsed, the AMB2xx
diagnostics and AmberElide's AMB3xx over the same ``FlowModel``.  A
file that is not analyzed fails the run (``unreadable-sources``).

Custom ``--paths`` runs keep only the static scenarios: the dynamic
ones are meaningful only for the bundled apps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.model import ElideModel, classify
from repro.analyze.flow.diagnostics import flow_diagnostics
from repro.analyze.flow.fixtures import FIXTURES
from repro.analyze.flow.hints import PlacementHints, derive_hints
from repro.analyze.flow.model import scan_sources
from repro.analyze.lint import (
    DEFAULT_PATHS,
    LintFinding,
    collect_sources,
)
from repro.analyze.program import report
from repro.placement.policies import (
    HintedPlacement,
    PlacementPolicy,
    SpreadPlacement,
)
from repro.selfcheck import (OK_MARK, Outcome, Report, Suite,
                             canonical_sha256, detailed)

#: Schema tag of the committed findings expectation file.
EXPECT_SCHEMA = "amberflow-findings/1"

#: Minimum fraction of checkable hints that must be dynamically
#: confirmed.
PRECISION_FLOOR = 0.75


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


FLOW_SUITE = Suite(
    key="outcomes", fields=("name", "ok", "details"), line=OK_MARK,
    body=lambda outcome: [f"       {line}"
                          for line in outcome.fields["details"]],
    trailer="\n{verdict}: {passed}/{total} scenarios")


def findings_payload(findings: Sequence[LintFinding]) -> Dict[str, Any]:
    """The committed-expectation-file shape of a finding set."""
    return {"schema": EXPECT_SCHEMA,
            "findings": [f.as_dict() for f in findings]}


def expectation_json(payload: Dict[str, Any]) -> str:
    """The bytes of an expectation file (``--write-expect``)."""
    return json.dumps(payload, indent=2) + "\n"


def findings_fingerprint(findings: Sequence[LintFinding]) -> str:
    return canonical_sha256(
        [[f.path, f.line, f.rule, f.message] for f in findings])


# ---------------------------------------------------------------------------
# One reading of the sources
# ---------------------------------------------------------------------------


@dataclass
class Analysis:
    """Everything ``repro flow`` derives from one program (the
    ``FlowModel`` is ``elide.flow``)."""

    elide: ElideModel
    hints: PlacementHints
    #: AMB000, AMB2xx and AMB3xx, noqa-filtered and sorted.
    findings: List[LintFinding]


def analyze(sources: Sequence[Tuple[str, str]],
            unreadable: Optional[Mapping[str, str]] = None) -> Analysis:
    """Scan ``sources`` once and derive the hints, the classification
    and the finding set from that one model.  ``unreadable`` maps the
    files that could not be read to why (``collect_sources``); each is
    an AMB000 row, as is each file that does not parse — the rows
    ``repro lint`` prints for the same files."""
    model = scan_sources(sources)
    elide = classify(model, sources)
    texts = dict(sources)
    errors = [LintFinding(path, 0, "AMB000", message)
              for path, message in (unreadable or {}).items()]
    errors.extend(LintFinding(path, line, "AMB000", message)
                  for path, (line, message)
                  in model.program.errors.items())
    findings = report(errors + flow_diagnostics(model, texts)
                      + diagnose(elide, sources), texts)
    return Analysis(elide, derive_hints(model), findings)


# ---------------------------------------------------------------------------
# Static scenarios
# ---------------------------------------------------------------------------


def _determinism(sources: List[Tuple[str, str]],
                 unreadable: Mapping[str, str], first: Analysis) -> Outcome:
    """Scan everything a second time: the artifacts must be
    byte-identical."""
    second = analyze(sources, unreadable)
    same_hints = first.hints.to_json() == second.hints.to_json()
    fp1 = findings_fingerprint(first.findings)
    fp2 = findings_fingerprint(second.findings)
    details = [
        f"hints json: {'identical' if same_hints else 'DIFFERS'} "
        f"({first.hints.fingerprint[:16]})",
        f"findings fingerprint: "
        f"{'identical' if fp1 == fp2 else 'DIFFERS'} ({fp1[:16]})",
    ]
    return detailed("deterministic-analysis",
                    same_hints and fp1 == fp2, details)


def _fixture_catalog() -> Outcome:
    """Every rule fires on its fixture as often as the catalog says,
    its noqa twin is silent, the genuinely-fixed twin is clean, and
    the classification is the one pinned."""
    details: List[str] = []
    ok = True
    for name in sorted(FIXTURES):
        fx = FIXTURES[name]
        got = analyze(fx.sources())
        rules = tuple(sorted(f.rule for f in got.findings))
        checks = [("rules", rules, fx.expected_rules)]
        for what, pinned, derived in (
                ("confined", fx.confined, got.elide.confined),
                ("immutable", fx.immutable, got.elide.immutable)):
            if pinned is not None:
                checks.append((what, tuple(derived), pinned))
        bad = [f"{what}: want {','.join(want) or '-'}"
               for what, have, want in checks if have != want]
        ok = ok and not bad
        suffix = f"  MISMATCH ({'; '.join(bad)})" if bad else ""
        details.append(f"{name}: {','.join(rules) or '-'}{suffix}")
    return detailed("diagnostics-catalog", ok, details)


def _hint_content(hints: PlacementHints) -> Outcome:
    """The derived artifact must contain the hints the bundled apps
    were built to produce."""
    checks = [
        ("MatrixB replicate", "MatrixB" in hints.replicate_classes()),
        ("SorSection spread/block",
         hints.spread_strategy("SorSection") == "block"),
        ("QueensWorker spread",
         hints.kind_of("QueensWorker") == "spread"),
        ("RowBlockWorker spread",
         hints.kind_of("RowBlockWorker") == "spread"),
        ("WorkPool hub", hints.kind_of("WorkPool") == "hub"),
        ("SorMaster hub", hints.kind_of("SorMaster") == "hub"),
    ]
    details = [f"{name}: {'yes' if good else 'MISSING'}"
               for name, good in checks]
    return detailed("hints-content", all(good for _, good in checks),
                    details)


def _expectation(findings: List[LintFinding],
                 expect_path: str) -> Outcome:
    """The finding set must match the committed expectation file."""
    try:
        raw = json.loads(Path(expect_path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        return detailed("expected-findings", False,
                        [f"cannot read {expect_path}: {exc}",
                         "regenerate with: repro flow "
                         f"--write-expect {expect_path}"])
    if not isinstance(raw, dict) or raw.get("schema") != EXPECT_SCHEMA:
        return detailed("expected-findings", False,
                        [f"{expect_path}: wrong schema "
                         f"(want {EXPECT_SCHEMA})"])
    try:
        want = [(str(f.get("path")), int(f.get("line", 0)),
                 str(f.get("rule")), str(f.get("message")))
                for f in raw.get("findings", [])]
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        return detailed("expected-findings", False,
                        [f"{expect_path}: malformed findings: "
                         f"{type(exc).__name__}: {exc}",
                         "regenerate with: repro flow "
                         f"--write-expect {expect_path}"])
    got = [(f.path, f.line, f.rule, f.message) for f in findings]
    missing = [w for w in want if w not in got]
    unexpected = [g for g in got if g not in want]
    details = [f"expected {len(want)}, got {len(got)}"]
    for label, items in (("missing", missing),
                         ("unexpected", unexpected)):
        for path, line, rule, _ in items[:5]:
            details.append(f"{label}: {path}:{line} {rule}")
        if len(items) > 5:
            details.append(f"{label}: ... {len(items) - 5} more")
    ok = not missing and not unexpected
    if not ok:
        details.append(f"regenerate with: repro flow --write-expect "
                       f"{expect_path}")
    return detailed("expected-findings", ok, details)


# ---------------------------------------------------------------------------
# Dynamic scenarios: run the apps, score the hints
# ---------------------------------------------------------------------------


@dataclass
class _ClassDyn:
    """Per-class dynamic record of one run."""

    instances: int = 0
    locations: Set[int] = field(default_factory=set)
    origins: Set[int] = field(default_factory=set)
    total: int = 0
    foreign: int = 0


def _dynamics(cluster: Any) -> Dict[str, _ClassDyn]:
    out: Dict[str, _ClassDyn] = {}
    for vaddr, obj in cluster.objects.items():
        cls = type(obj).__name__
        dyn = out.setdefault(cls, _ClassDyn())
        dyn.instances += 1
        loc = getattr(obj, "_location", None)
        if loc is not None:
            dyn.locations.add(loc)
        for origin, count in cluster.access_log.get(vaddr,
                                                    {}).items():
            dyn.origins.add(origin)
            dyn.total += count
            if loc is not None and origin != loc:
                dyn.foreign += count
    return out


def _merge_dynamics(parts: Sequence[Dict[str, _ClassDyn]]
                    ) -> Dict[str, _ClassDyn]:
    merged: Dict[str, _ClassDyn] = {}
    for part in parts:
        for cls, dyn in part.items():
            into = merged.setdefault(cls, _ClassDyn())
            into.instances += dyn.instances
            into.locations |= dyn.locations
            into.origins |= dyn.origins
            into.total += dyn.total
            into.foreign += dyn.foreign
    return merged


def _remote_share(cluster: Any) -> Tuple[float, int, int]:
    remote = cluster.metrics.histograms.get("invoke_remote_us")
    local = cluster.metrics.histograms.get("invoke_local_us")
    r = remote.count if remote is not None else 0
    lo = local.count if local is not None else 0
    total = r + lo
    return ((r / total) if total else 0.0, r, lo)


@dataclass
class _AppRun:
    """One app executed under both policies."""

    name: str
    nodes: int
    static_cluster: Any
    hinted_cluster: Any


def _run_apps(hints: PlacementHints, fast: bool) -> List[_AppRun]:
    from repro.apps.matmul import run_matmul
    from repro.apps.queens import run_amber_queens
    from repro.apps.sor.amber_sor import run_amber_sor
    from repro.apps.sor.grid import SorProblem

    if fast:
        problem = SorProblem(rows=24, cols=64, iterations=3)
        mm_size, queens_n = 24, 6
    else:
        problem = SorProblem(rows=48, cols=96, iterations=4)
        mm_size, queens_n = 48, 8

    jobs: List[Tuple[str, int, Callable[[PlacementPolicy], Any]]] = [
        ("sor", 2, lambda placement: run_amber_sor(
            problem, nodes=2, cpus_per_node=2, placement=placement)),
        ("matmul", 4, lambda placement: run_matmul(
            m=mm_size, k=mm_size, n=mm_size, nodes=4, cpus_per_node=2,
            placement=placement)),
        ("queens", 2, lambda placement: run_amber_queens(
            n=queens_n, nodes=2, cpus_per_node=2, placement=placement)),
    ]
    return [_AppRun(name, nodes, run(SpreadPlacement(nodes)).cluster,
                    run(HintedPlacement(hints, nodes)).cluster)
            for name, nodes, run in jobs]


def _precision(hints: PlacementHints,
               runs: List[_AppRun]) -> Outcome:
    """Score every checkable hint against the dynamic record."""
    static_dyn = _merge_dynamics([_dynamics(r.static_cluster)
                                  for r in runs])
    hinted_dyn = _merge_dynamics([_dynamics(r.hinted_cluster)
                                  for r in runs])
    details: List[str] = []
    checked = confirmed = 0
    for hint in hints.hints:
        sdyn = static_dyn.get(hint.cls)
        hdyn = hinted_dyn.get(hint.cls)
        if sdyn is None or hdyn is None:
            continue    # class not exercised by the bundled apps
        verdict: Optional[bool] = None
        evidence = ""
        if hint.kind == "replicate":
            # Read from several nodes while unreplicated: replication
            # would have made those reads local.
            verdict = len(sdyn.origins) >= 2
            evidence = (f"static run reads from "
                        f"{len(sdyn.origins)} node(s)")
        elif hint.kind == "spread":
            verdict = len(hdyn.locations) >= 2
            evidence = (f"hinted run places {hdyn.instances} "
                        f"instance(s) on {len(hdyn.locations)} "
                        f"node(s)")
        elif hint.kind == "colocate":
            verdict = hdyn.foreign < sdyn.foreign
            evidence = (f"foreign accesses {sdyn.foreign} "
                        f"(round-robin) -> {hdyn.foreign} (block)")
        elif hint.kind == "hub":
            verdict = len(sdyn.origins) >= 2
            evidence = (f"invoked from {len(sdyn.origins)} node(s) "
                        f"while staying put")
        if verdict is None:
            continue    # move hints have no bundled-app instance
        checked += 1
        confirmed += 1 if verdict else 0
        mark = "confirmed" if verdict else "REFUTED"
        details.append(f"{hint.kind} {hint.cls}: {mark} "
                       f"({evidence})")
    precision = (confirmed / checked) if checked else 0.0
    details.append(f"precision: {confirmed}/{checked} "
                   f"= {precision:.2f} (floor {PRECISION_FLOOR})")
    ok = checked >= 4 and precision >= PRECISION_FLOOR
    return detailed("hint-precision", ok, details)


def _ablation(run: _AppRun) -> Outcome:
    """Hint-driven placement must reduce the remote-invocation share
    versus the static default."""
    s_share, s_remote, s_local = _remote_share(run.static_cluster)
    h_share, h_remote, h_local = _remote_share(run.hinted_cluster)
    details = [
        f"static default: {s_remote} remote / {s_local} local "
        f"invocations (remote share {s_share:.3f})",
        f"hint-driven:    {h_remote} remote / {h_local} local "
        f"invocations (remote share {h_share:.3f})",
        f"reduction: {s_share - h_share:+.3f}",
    ]
    return detailed(f"ablation-{run.name}", h_share < s_share, details)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_flow_scenarios(fast: bool = True,
                       paths: Optional[Sequence[str]] = None,
                       expect: Optional[str] = None) -> Report:
    """Run the suite.  ``paths`` overrides what gets analyzed (which
    also skips the app-specific dynamic scenarios); ``expect`` enables
    the expectation gate against a committed findings file."""
    bundled = paths is None
    scan = list(paths if paths is not None else DEFAULT_PATHS)
    sources, unreadable = collect_sources(scan)
    first = analyze(sources, unreadable)
    hints, findings, elide = first.hints, first.findings, first.elide

    outcomes = [
        _determinism(sources, unreadable, first),
        _fixture_catalog(),
    ]
    unread = [f.render() for f in findings if f.rule == "AMB000"]
    if unread:      # a file that was not analyzed must not read as clean
        outcomes.append(detailed("unreadable-sources", False, unread))
    if expect is not None:
        outcomes.append(_expectation(findings, expect))
    if bundled:
        outcomes.append(_hint_content(hints))
        runs = _run_apps(hints, fast)
        outcomes.append(_precision(hints, runs))
        for run in runs:
            if run.name in ("sor", "matmul"):
                outcomes.append(_ablation(run))

    fingerprint = findings_fingerprint(findings)
    locks = [f"    {site.path}:{site.line} {site.cls} {site.var!r} "
             f"(owner {site.owner}): "
             + ("elidable" if site.elidable else "kept")
             for site in elide.lock_sites]
    return Report(
        FLOW_SUITE,
        title=[f"AmberFlow cross-validation ({'fast' if fast else 'full'}"
               f") over {', '.join(scan)}",
               f"  hints: {len(hints.hints)} "
               f"(fingerprint {hints.fingerprint[:16]})",
               f"  findings: {len(findings)} "
               f"(fingerprint {fingerprint[:16]})",
               f"  confined: {', '.join(elide.confined) or '(none)'}",
               f"  immutable: {', '.join(elide.immutable) or '(none)'}",
               f"  lock sites: {len(locks) or '(none)'}",
               *locks,
               ""],
        params={"fast": fast, "paths": scan}, outcomes=outcomes,
        extras={"hints": hints, "findings": findings_payload(findings),
                "findings_fingerprint": fingerprint,
                "confined": elide.confined,
                "immutable": elide.immutable,
                "lock_sites": [asdict(site)
                               for site in elide.lock_sites]})
