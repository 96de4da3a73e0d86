"""Higher-level object placement software (the paper's stated future
direction).

Section 2.3 closes: "Our assumption is that the best policy for managing
location is application-specific and is best left to the program **or
higher-level object placement software**."  Amber itself never decides
placement — and neither does anything here: these are *advisors* that
programs consult and then act on with the ordinary ``MoveTo``/``New``
primitives, keeping location under explicit program control exactly as
the paper requires (contrast Sloop's overridable hints and Orca's fully
automatic placement, both discussed in §2.3).

* :class:`~repro.placement.policies.PlacementPolicy` and its two
  subclasses — class-level creation-time policies the bundled apps
  consult, the one way a new object is placed: the pass-through default
  (bit-identical to no policy),
  :class:`~repro.placement.policies.SpreadPlacement` (knowledge-free
  round-robin baseline), and
  :class:`~repro.placement.policies.HintedPlacement`, which places by
  the answers of an AmberFlow ``PlacementHints`` artifact (``repro
  flow``) — the artifact alone reads and interprets its format — and
  places round-robin where the artifact is not valid or does not name
  the class;
* :class:`~repro.placement.policies.AffinityRebalancer` — mine the
  kernel's access log for objects whose invocations mostly arrive from
  some other node and suggest moving them there (the "reorganize object
  locations following different computational phases" pattern of §2.3).
"""

from repro.placement.policies import (
    AffinityRebalancer,
    HintedPlacement,
    MoveSuggestion,
    PlacementPolicy,
    SpreadPlacement,
)

__all__ = [
    "AffinityRebalancer",
    "HintedPlacement",
    "MoveSuggestion",
    "PlacementPolicy",
    "SpreadPlacement",
]
