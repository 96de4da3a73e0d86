"""AmberElide: static escape/confinement analysis.

The pass classifies, on top of the AmberFlow object-flow model
(:mod:`repro.analyze.flow`):

* **thread-confined classes** — every instance is only ever reachable
  from the thread that created it (references never cross a
  ``Fork``/ctor-argument/shared-field boundary),
* **effectively-immutable classes** — no field writes outside
  ``__init__``, and
* **elidable lock sites** — ``Lock``/``SpinLock``/``Monitor`` creations
  whose instances only guard confined or immutable state or are only
  reachable from one thread.

The result is reported as the advisory AMB301-AMB304 findings
(:mod:`repro.analyze.elide.diagnostics`) of ``repro flow``, which
classifies the same :class:`~repro.analyze.flow.model.FlowModel` it
derives its hints from, and prints the confined classes, immutable
classes and lock sites in its report.  No run reads them.  See
docs/ANALYSIS.md.
"""
