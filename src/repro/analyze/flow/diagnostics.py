"""Whole-program locality diagnostics AMB201-AMB205.

These run over the interprocedural :class:`FlowModel` rather than a
single function, so they can see what the per-function lint
(AMB101-AMB108) cannot: which invocations cross an object boundary,
which classes got statically replicated, and which references escape
the thread that made them.

==========  ============================================================
AMB201      cross-boundary ``Invoke`` inside a loop — each iteration
            may pay a network round-trip (unless the receiver class is
            replicated or attached to the caller)
AMB202      write to a class that is statically replicated
            (``SetImmutable``) — replicas diverge or the write traps
AMB203      lock held across a cross-boundary ``Invoke`` — a remote
            round-trip silently extends the critical section
AMB204      ``MoveTo`` of an object whose reference fields stay behind
            — the moved object's invocations through them turn remote
AMB205      mutable plain-Python value escaping into forked threads —
            shared structure mutated without any sync object
==========  ============================================================

Findings reuse :class:`repro.analyze.lint.LintFinding` and the
``# repro: noqa[AMB201]`` suppression machinery.  All five rules are
*advisory*: the bundled apps deliberately trip AMB201 (work-pool take
loops, SOR edge exchanges) and ``repro flow`` gates the finding set
against a committed expectation file instead of requiring zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analyze.flow.model import FlowModel, InvokeSite
from repro.analyze.program import LintFinding, report

FLOW_RULES: Dict[str, str] = {
    "AMB201": "cross-boundary Invoke inside a loop",
    "AMB202": "write to a statically-replicated class",
    "AMB203": "lock held across a cross-boundary Invoke",
    "AMB204": "MoveTo leaves the object's reference graph behind",
    "AMB205": "mutable value escapes into forked threads without sync",
}

#: AMB201 only fires on loops expected to run at least this often.
HOT_LOOP_WEIGHT = 2


def _crosses_boundary(model: FlowModel, site: InvokeSite) -> bool:
    """Could this invocation leave the caller's object?"""
    if site.receiver == "self":
        return False
    if site.receiver_class is None:
        return False
    return True


def _attached(model: FlowModel, a: Optional[str],
              b: Optional[str]) -> bool:
    if a is None or b is None or not a or not b:
        return False
    return ((a, b) in model.attach_pairs
            or (b, a) in model.attach_pairs)


def _amb201(model: FlowModel) -> Iterable[LintFinding]:
    for site in model.invokes:
        if site.loop_depth < 1 or site.weight < HOT_LOOP_WEIGHT:
            continue
        if not _crosses_boundary(model, site):
            continue
        if site.receiver_class in model.immutable_classes:
            continue    # replicated: invocations resolve locally
        if _attached(model, site.caller_class, site.receiver_class):
            continue    # co-residency is enforced
        yield LintFinding(
            site.path, site.line, "AMB201",
            f"'{site.receiver}.{site.method}' invoked inside a loop "
            f"(est. x{site.weight}) from {site.caller}; each iteration "
            f"may pay a remote round-trip — consider replication, "
            f"MoveTo, or co-location")


def _amb202(model: FlowModel) -> Iterable[LintFinding]:
    for cls in sorted(model.immutable_classes):
        cm = model.classes.get(cls)
        if cm is None:
            continue
        for method in cm.writer_methods():
            for fld in sorted(method.writes):
                yield LintFinding(
                    method.path, method.writes[fld], "AMB202",
                    f"{cls}.{method.name} writes self.{fld}, but "
                    f"{cls} is statically replicated (SetImmutable); "
                    f"writes after replication diverge or trap")


def _amb203(model: FlowModel) -> Iterable[LintFinding]:
    for site in model.invokes:
        if not site.held:
            continue
        if not _crosses_boundary(model, site):
            continue
        yield LintFinding(
            site.path, site.line, "AMB203",
            f"'{site.receiver}.{site.method}' invoked while holding "
            f"{', '.join(repr(h) for h in site.held)}; a remote "
            f"round-trip extends the critical section across the "
            f"network")


def _amb204(model: FlowModel) -> Iterable[LintFinding]:
    for site in model.moves:
        cls = site.target_class
        if cls is None:
            continue
        cm = model.classes.get(cls)
        if cm is None:
            continue
        stranded = sorted(
            f"{fld}: {ref}"
            for fld, ref in cm.field_classes.items()
            if not _attached(model, cls, ref))
        if not stranded:
            continue
        yield LintFinding(
            site.path, site.line, "AMB204",
            f"MoveTo of '{site.target}' ({cls}) leaves its reference "
            f"graph behind ({'; '.join(stranded)}); invocations "
            f"through those fields turn remote — Attach them or move "
            f"the graph together")


def _amb205(model: FlowModel) -> Iterable[LintFinding]:
    for esc in model.escapes:
        if esc.kind == "refork":
            detail = (f"already passed to a thread forked at line "
                      f"{esc.first_line}; two threads now share it")
        else:
            detail = (f"mutated after escaping into a thread forked "
                      f"at line {esc.first_line}")
        yield LintFinding(
            esc.path, esc.line, "AMB205",
            f"mutable value '{esc.name}' in {esc.caller} {detail} "
            f"without any sync object; wrap it in an Amber object or "
            f"pass immutable snapshots")


def flow_diagnostics(model: FlowModel,
                     sources: Optional[Mapping[str, str]] = None
                     ) -> List[LintFinding]:
    """Run AMB201-AMB205 over a model.

    ``sources`` maps path -> source text and enables ``# repro: noqa``
    suppression; findings for paths without source text pass through
    unfiltered."""
    raw: List[LintFinding] = []
    seen: Set[Tuple[str, int, str, str]] = set()
    for gen in (_amb201, _amb202, _amb203, _amb204, _amb205):
        for finding in gen(model):
            key = (finding.path, finding.line, finding.rule,
                   finding.message)
            if key in seen:
                continue
            seen.add(key)
            raw.append(finding)
    return report(raw, sources or {})
