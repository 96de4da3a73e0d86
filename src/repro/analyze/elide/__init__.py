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

The result is reported as AMB301-AMB304 findings
(:mod:`repro.analyze.elide.diagnostics`) and as a deterministic,
sha256-fingerprinted ``amberelide/1`` artifact
(:mod:`repro.analyze.elide.artifact`).  Both are advisory: no run
reads them.  The one consumer that changes a run is hint promotion —
the placement hints promote effectively-immutable classes to
``replicate`` (``derive_hints(..., extra_immutable=)``).

``repro elide`` checks the pass itself: a byte-identical artifact
across reruns, the fixture catalog's expected findings, loads that
never raise, and hint promotion.  See docs/ANALYSIS.md.
"""
