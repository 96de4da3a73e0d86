"""Placement hints derived from the static flow model.

The derivation maps structural facts to placement advice:

* **spread** — a Fork-target class instantiated per node (in a loop or
  repeatedly) wants its instances distributed.  Strategy ``block`` when
  instances of the class invoke *each other* (index-adjacent chatter,
  e.g. SOR sections trading edges: neighbors should share a node);
  ``round-robin`` otherwise.
* **replicate** — a read-mostly class (no method outside ``__init__``
  writes self state) invoked across an object boundary wants
  ``SetImmutable`` + replica fetch instead of remote invocations.
* **hub** — a mutable class invoked from spread threads (or from
  several classes) should stay put and let function shipping bring the
  threads to it; scattering it only adds forwarding.
* **move** — a mutable class with exactly one (non-spread) caller class
  concentrates its invocations there; ``MoveTo`` the instance next to
  its caller.
* **colocate** — self-affine spread classes: adjacent indices should
  land on the same node (this is what ``block`` implements).

The artifact is deterministic: hints are sorted, the fingerprint is a
sha256 over the canonical JSON encoding, and nothing time- or
path-order-dependent enters the payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.analyze.flow.model import FlowModel
from repro.selfcheck import canonical_sha256

#: Schema tag checked by :attr:`PlacementHints.valid`; bump on
#: incompatible change.
HINTS_SCHEMA = "amberflow-hints/1"

_KIND_ORDER = {"spread": 0, "colocate": 1, "replicate": 2,
               "hub": 3, "move": 4}


@dataclass(frozen=True)
class Hint:
    """One piece of placement advice for one class."""

    kind: str
    cls: str
    #: For spread: "block" or "round-robin".
    strategy: str = ""
    #: Partner class (colocate pairs, move destinations).
    with_cls: str = ""
    #: Human-readable justification from the model.
    evidence: str = ""
    #: Total static weight backing the hint (loop-weighted).
    weight: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "cls": self.cls,
            "strategy": self.strategy,
            "with": self.with_cls,
            "evidence": self.evidence,
            "weight": self.weight,
        }

    @staticmethod
    def from_dict(raw: Mapping[str, Any]) -> "Hint":
        return Hint(
            kind=str(raw.get("kind", "")),
            cls=str(raw.get("cls", "")),
            strategy=str(raw.get("strategy", "")),
            with_cls=str(raw.get("with", "")),
            evidence=str(raw.get("evidence", "")),
            weight=int(raw.get("weight", 0)),
        )


@dataclass
class PlacementHints:
    """The deterministic hint artifact, and the one reader and
    interpreter of its format: placement policies ask its lookups and
    never parse the payload.  A loaded artifact with a wrong ``schema``
    is not :attr:`valid`, and consumers treat it as stale."""

    schema: str
    sources: List[str]
    hints: List[Hint]

    # -- lookups ---------------------------------------------------------

    def for_class(self, cls: str) -> List[Hint]:
        return [h for h in self.hints if h.cls == cls]

    def kind_of(self, cls: str) -> Optional[str]:
        """Primary placement kind for a class (spread/hub/move wins
        over replicate/colocate annotations)."""
        kinds = {h.kind for h in self.for_class(cls)}
        for kind in ("spread", "hub", "move"):
            if kind in kinds:
                return kind
        for kind in ("replicate", "colocate"):
            if kind in kinds:
                return kind
        return None

    def spread_strategy(self, cls: str) -> Optional[str]:
        for h in self.for_class(cls):
            if h.kind == "spread":
                return h.strategy or "round-robin"
        return None

    def replicate_classes(self) -> List[str]:
        return sorted({h.cls for h in self.hints
                       if h.kind == "replicate"})

    # -- serialization ---------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Canonical content, *excluding* the fingerprint."""
        return {
            "schema": self.schema,
            "sources": list(self.sources),
            "hints": [h.as_dict() for h in self.hints],
        }

    @property
    def fingerprint(self) -> str:
        return canonical_sha256(self.payload())

    def as_dict(self) -> Dict[str, Any]:
        data = self.payload()
        data["fingerprint"] = self.fingerprint
        return data

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def valid(self) -> bool:
        return self.schema == HINTS_SCHEMA

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PlacementHints":
        hints_raw = raw.get("hints", [])
        hints = [Hint.from_dict(h) for h in hints_raw
                 if isinstance(h, Mapping)]
        sources = [str(s) for s in raw.get("sources", [])]
        return cls(schema=str(raw.get("schema", "")),
                   sources=sources, hints=hints)


def load_hints(source: Union[str, Path, Mapping[str, Any]]
               ) -> PlacementHints:
    """Load a hints artifact from a JSON file path or a parsed dict.

    Never raises on bad content: a truncated, malformed or mistyped
    file loads with a wrong ``schema`` and fails ``valid``."""
    raw: Any = source
    if not isinstance(source, Mapping):
        try:
            raw = json.loads(Path(source).read_text())
        except (OSError, ValueError, RecursionError):
            raw = {"schema": "unreadable"}
    if isinstance(raw, Mapping):
        try:
            return PlacementHints.from_dict(raw)
        except (TypeError, ValueError, OverflowError):
            pass        # right keys, hostile types (an infinite weight)
    return PlacementHints.from_dict({"schema": "malformed"})


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def derive_hints(model: FlowModel,
                 sources: Optional[Sequence[str]] = None
                 ) -> PlacementHints:
    """Derive the deterministic hint set from a flow model."""
    hints: List[Hint] = []
    spread = model.spread_classes()
    affine = model.self_affine_classes()
    invoked = model.invoked_by()
    instantiated = model.instantiated_classes()

    for cls in sorted(spread):
        block = cls in affine
        strategy = "block" if block else "round-robin"
        evidence = ("fork-target instantiated per node; "
                    + ("instances invoke peer instances"
                       if block else "no peer-instance chatter"))
        weight = sum(invoked.get(cls, {}).values())
        hints.append(Hint(kind="spread", cls=cls, strategy=strategy,
                          evidence=evidence, weight=weight))
        if block:
            hints.append(Hint(
                kind="colocate", cls=cls, with_cls=cls,
                evidence="index-adjacent instances exchange "
                         "invocations; block placement keeps "
                         "neighbors on one node",
                weight=invoked.get(cls, {}).get(cls, 0)))

    for cls in sorted(instantiated):
        if cls in spread:
            continue
        cm = model.classes.get(cls)
        if cm is None:
            continue
        callers = invoked.get(cls, {})
        foreign = {c: w for c, w in callers.items() if c != cls}
        if not foreign:
            continue
        total = sum(foreign.values())
        if cm.read_only or cls in model.immutable_classes:
            hints.append(Hint(
                kind="replicate", cls=cls,
                evidence="read-mostly (no writer methods outside "
                         "__init__); invoked from "
                         + ", ".join(sorted(foreign)),
                weight=total))
            continue
        writers = ", ".join(m.name for m in cm.writer_methods())
        if len(foreign) >= 2 or any(c in spread for c in foreign):
            hints.append(Hint(
                kind="hub", cls=cls,
                evidence="mutable (writers: " + writers + ") invoked "
                         "from " + ", ".join(sorted(foreign))
                         + "; keep resident, ship threads to it",
                weight=total))
        elif len(foreign) == 1:
            caller = next(iter(foreign))
            hints.append(Hint(
                kind="move", cls=cls, with_cls=caller,
                evidence="mutable (writers: " + writers
                         + ") invoked only by " + caller
                         + "; MoveTo its node",
                weight=total))

    hints.sort(key=lambda h: (_KIND_ORDER.get(h.kind, 9),
                              h.cls, h.with_cls))
    return PlacementHints(
        schema=HINTS_SCHEMA,
        sources=sorted(sources if sources is not None else model.paths),
        hints=hints)
