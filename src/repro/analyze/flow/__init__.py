"""AmberFlow: whole-program object-flow and locality analysis.

Amber's whole bet is that programmers place and move objects well.
Until now the repo could only discover *bad* placement dynamically —
PR 1's metrics and PR 4's sanitizer report the remote-invocation bill
after a run has paid it.  AmberFlow reasons about the same structure
statically, before a single event runs:

* :mod:`repro.analyze.flow.model` — an interprocedural scan over Amber
  program sources (apps, examples, fixtures) that builds a call graph
  and a lightweight object-flow/alias model from the AST: which classes
  exist, what their fields reference, which thread bodies touch which
  object classes, which invocations cross an object boundary (and how
  often, via loop-weight estimates), and which references escape into
  forked threads or moved objects.
* :mod:`repro.analyze.flow.hints` — derives a deterministic
  :class:`PlacementHints` artifact from the model: spread candidates
  (thread-anchor classes instantiated per node), co-location groups
  (index-adjacent chatty instances, exclusive cross-class pairs),
  replicate candidates (read-mostly classes invoked from many threads),
  MoveTo candidates (invocation-concentrated mutable objects), and hub
  classes that should stay put while threads come to them.  The
  hint-driven policy in :mod:`repro.placement.policies` consumes the
  artifact at run time.
* :mod:`repro.analyze.flow.diagnostics` — static diagnostics
  AMB201-AMB205 over the model (remote invoke in a hot loop, write to a
  statically-replicated class, lock held across a remote invoke, moved
  object leaving its reference graph behind, mutable value escaping
  into forked threads), suppressible with the existing
  ``# repro: noqa`` machinery.
* :mod:`repro.analyze.flow.scenario` — the ``repro flow``
  cross-validation suite.  Its finding set is one reading of the
  sources: AMB000 for a file it could not analyze, the AMB2xx
  diagnostics, and AmberElide's AMB301-AMB304
  (:mod:`repro.analyze.elide`) over the same model.  It checks the
  analysis against the fixture catalog
  (:mod:`repro.analyze.flow.fixtures`), replays the bundled apps in
  the simulator and scores the static predictions against the dynamic
  metrics (``invoke_remote_us``, access-log affinity, object
  locations), reporting per-hint precision and an ablation of
  hint-driven vs. static-default placement.

The first analysis in the repo that changes runtime behavior rather
than only reporting on it: hints feed placement, placement feeds the
kernel.  See ``docs/ANALYSIS.md`` (AmberFlow section).
"""

from __future__ import annotations

from repro.analyze.flow.diagnostics import FLOW_RULES, flow_diagnostics
from repro.analyze.flow.hints import (
    Hint,
    PlacementHints,
    derive_hints,
    load_hints,
)
from repro.analyze.flow.model import FlowModel, scan_paths, scan_sources

__all__ = [
    "FLOW_RULES",
    "FlowModel",
    "Hint",
    "PlacementHints",
    "derive_hints",
    "flow_diagnostics",
    "load_hints",
    "scan_paths",
    "scan_sources",
]

