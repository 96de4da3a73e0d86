"""AMB3xx: advisory diagnostics derived from the classification.

Emitted as :class:`~repro.analyze.lint.LintFinding` instances so they
share the renderer, the JSON shape, and the ``# repro: noqa[...]``
suppression machinery with the AMB1xx lint and AMB2xx flow passes;
``repro flow`` reports them with its own.

``AMB301``
    An elidable lock site: the lock is only reachable from one thread,
    so its acquire/release pairs synchronise nothing.
``AMB302``
    An effectively-immutable class invoked across an object boundary
    that is never ``SetImmutable``-d: marking it unlocks replication
    (unless the class is spread, its placement hint is ``replicate``
    already).
``AMB303``
    An invocation performed while holding a lock whose receiver is
    proven confined or immutable — the guard is redundant.
``AMB304``
    A lock site the analysis could *not* elide, with the escape edge
    that defeated it (fork crossing, shared flow, untrackable
    binding).  Informational: it explains the verdict.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analyze.elide.model import ElideModel
from repro.analyze.program import (
    LOCK_CLASSES,
    SYNC_METHODS,
    LintFinding,
    report,
)

ELIDE_RULES: Dict[str, str] = {
    "AMB301": "lock only reachable from one thread (elidable)",
    "AMB302": "effectively-immutable class never marked SetImmutable",
    "AMB303": "lock-guarded invoke of confined/immutable receiver",
    "AMB304": "lock escapes its creating thread (kept un-elided)",
}


def diagnose(model: ElideModel,
             sources: Sequence[Tuple[str, str]]) -> List[LintFinding]:
    """Derive AMB301–AMB304 findings, noqa-filtered per source."""
    findings: List[LintFinding] = []
    flow = model.flow

    for site in model.lock_sites:
        if site.elidable:
            findings.append(LintFinding(
                site.path, site.line, "AMB301",
                f"{site.cls} {site.var!r} (owner {site.owner}) "
                f"{site.reason}; acquire/release synchronise nothing"))
        else:
            findings.append(LintFinding(
                site.path, site.line, "AMB304",
                f"{site.cls} {site.var!r} (owner {site.owner}) "
                f"kept un-elided: {site.reason}"))

    immutable = set(model.immutable)
    invoked = flow.invoked_by()
    for cls in sorted(immutable):
        if cls in flow.immutable_classes:
            continue   # already SetImmutable-d somewhere
        cm = flow.classes.get(cls)
        if cm is None:
            continue
        foreign = {c for c in invoked.get(cls, ()) if c != cls}
        if not foreign:
            continue
        findings.append(LintFinding(
            cm.path, cm.line, "AMB302",
            f"class {cls} is effectively immutable (no field writes "
            f"outside __init__) and is invoked from "
            f"{', '.join(sorted(foreign))}; mark it SetImmutable to "
            f"enable replica caching"))

    quiet = set(model.confined) | immutable
    for inv in flow.invokes:
        if not inv.held or inv.receiver_class not in quiet:
            continue
        if inv.receiver_class in LOCK_CLASSES or \
                inv.method in SYNC_METHODS:
            continue
        findings.append(LintFinding(
            inv.path, inv.line, "AMB303",
            f"invoke of {inv.receiver_class}.{inv.method} under held "
            f"lock ({', '.join(inv.held)}) is redundantly guarded: "
            f"the receiver is "
            + ("thread-confined" if inv.receiver_class
               in model.confined else "effectively immutable")))

    return report(findings, dict(sources))
