"""Placement advisors over the simulated cluster.

All advisors are pure policy: they read cluster state and *suggest*;
the program decides and moves.  See the package docstring for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.sim.cluster import SimCluster
from repro.sim.node import SimNode
from repro.sim.objects import SimObject
from repro.sim.thread import SimThread

#: Share of an object's invocations one other node must account for
#: before the object is suggested to move there.
MOVE_FRACTION = 0.5


class RoundRobinPlacer:
    """Spread new objects evenly: the classic static load-balancing
    choice for regular problems (it is exactly how the SOR program lays
    out its sections)."""

    def __init__(self, nodes: int, start: int = 0) -> None:
        self.nodes = nodes
        self._next = start % nodes

    def place(self) -> int:
        node = self._next
        self._next = (self._next + 1) % self.nodes
        return node


class LeastPopulatedPlacer:
    """Place where the fewest objects currently live — a cheap dynamic
    balance signal read from the per-node statistics."""

    def __init__(self, cluster: SimCluster) -> None:
        self._cluster = cluster

    def place(self) -> int:
        def population(node: SimNode) -> int:
            return (node.stats.objects_created + node.stats.objects_in
                    - node.stats.objects_out)

        best = min(self._cluster.nodes, key=lambda n: (population(n), n.id))
        return best.id


@dataclass(frozen=True)
class MoveSuggestion:
    """One recommended relocation, with the evidence behind it."""

    obj: SimObject
    dest: int
    #: Invocations that arrived from ``dest`` since tracking began.
    remote_count: int
    #: Invocations that were already local at the current location.
    local_count: int

    @property
    def gain(self) -> int:
        """Accesses that would have been local had the object lived at
        ``dest`` minus those that would have become remote."""
        return self.remote_count - self.local_count


class AffinityRebalancer:
    """Suggest moving objects toward the node that invokes them most.

    Reads the kernel's access log (``cluster.access_log``: per object,
    per origin node invocation counts).  An object is suggested for
    relocation when some other node accounts for at least
    :data:`MOVE_FRACTION` of its invocations and at least
    ``min_accesses`` were observed.  Threads and attachment non-roots
    are skipped — moving any group member moves the group, so one
    suggestion per group suffices.
    """

    def __init__(self, min_accesses: int = 4) -> None:
        self.min_accesses = min_accesses

    def suggest(self, cluster: SimCluster) -> List[MoveSuggestion]:
        suggestions: List[MoveSuggestion] = []
        seen_groups: Set[Tuple[int, ...]] = set()
        for vaddr, by_node in cluster.access_log.items():
            obj = cluster.objects.get(vaddr)
            if obj is None or isinstance(obj, SimThread):
                continue
            if getattr(obj, "_immutable", False):
                continue   # replicate instead of moving read-only data
            location = obj._location
            if location is None:
                continue
            group = tuple(sorted(cluster.attachments.group(vaddr)))
            if len(group) > 1:
                if group in seen_groups:
                    continue
                seen_groups.add(group)
            total = sum(by_node.values())
            if total < self.min_accesses:
                continue
            best_node, best_count = max(
                by_node.items(), key=lambda item: (item[1], -item[0]))
            if best_node == location:
                continue
            if best_count / total < MOVE_FRACTION:
                continue
            suggestions.append(MoveSuggestion(
                obj=obj, dest=best_node, remote_count=best_count,
                local_count=by_node.get(location, 0)))
        suggestions.sort(key=lambda s: -s.gain)
        return suggestions

    def reset_log(self, cluster: SimCluster) -> None:
        """Forget history — call at phase boundaries so stale affinity
        does not dominate the next phase."""
        cluster.access_log.clear()


# ---------------------------------------------------------------------------
# Class-level placement policies (consulted at object-creation time)
# ---------------------------------------------------------------------------


class PlacementPolicy:
    """Base policy: honor the program's own choices.

    Apps that opt in consult a policy for every creation-time decision:
    ``node_for`` maps (class name, instance index, the program's own
    default) to a node, and ``replicate`` decides whether a class's
    instances get ``SetImmutable`` treatment.  The base class passes
    every ``default`` through unchanged, so running an app with the
    default policy is bit-identical to running it without one —
    placement stays under explicit program control (§2.3) unless a
    policy deliberately overrides it."""

    def node_for(self, cls: str, index: int, default: Optional[int],
                 count: Optional[int] = None) -> Optional[int]:
        """Node for instance ``index`` of ``cls`` (``count`` instances
        total, when the program knows).  ``None`` means "wherever the
        creating thread runs"."""
        return default

    def replicate(self, cls: str, default: bool) -> bool:
        """Whether instances of ``cls`` should be made immutable and
        replicated on first remote use."""
        return default


class SpreadPlacement(PlacementPolicy):
    """The static default: round-robin every class, replicate nothing.

    This is the knowledge-free baseline the AmberFlow ablation compares
    against — reasonable load balance, zero locality insight."""

    def __init__(self, nodes: int) -> None:
        self.nodes = max(1, nodes)

    def node_for(self, cls: str, index: int, default: Optional[int],
                 count: Optional[int] = None) -> Optional[int]:
        return index % self.nodes

    def replicate(self, cls: str, default: bool) -> bool:
        return False


class HintedPlacement(PlacementPolicy):
    """Placement driven by an AmberFlow ``PlacementHints`` artifact.

    ``hints`` may be the artifact object itself (anything with an
    ``as_dict()``) or the parsed JSON dict; this module deliberately
    does not import :mod:`repro.analyze` — the artifact schema is the
    contract.  A missing, stale (wrong ``schema``), or malformed
    artifact disables the policy entirely: every decision goes to
    ``fallback`` (the base pass-through policy when not given).
    Classes the artifact does not mention also fall back.

    Hint kinds map to decisions:

    * ``spread``/``round-robin`` — instance ``index % nodes``;
    * ``spread``/``block`` — ``index * nodes // count`` (neighbors
      share a node; needs ``count``, else round-robin);
    * ``hub``/``move`` — the program's default (stay put, let function
      shipping or an explicit ``MoveTo`` do the work);
    * ``replicate`` — ``replicate()`` answers True.
    """

    SCHEMA = "amberflow-hints/1"

    def __init__(self, hints: Any, nodes: int,
                 fallback: Optional[PlacementPolicy] = None) -> None:
        self.nodes = max(1, nodes)
        self.fallback: PlacementPolicy = (
            fallback if fallback is not None else PlacementPolicy())
        self._spread: Dict[str, str] = {}
        self._stay: Set[str] = set()        # hub + move classes
        self._replicate: Set[str] = set()
        self.stale = True
        raw: Any = hints
        as_dict = getattr(raw, "as_dict", None)
        if callable(as_dict):
            raw = as_dict()
        if not isinstance(raw, Mapping) or \
                raw.get("schema") != self.SCHEMA:
            return
        self.stale = False
        for hint in raw.get("hints", ()):
            if not isinstance(hint, Mapping):
                continue
            kind = str(hint.get("kind", ""))
            cls = str(hint.get("cls", ""))
            if not cls:
                continue
            if kind == "spread":
                strategy = str(hint.get("strategy") or "round-robin")
                self._spread[cls] = strategy
            elif kind in ("hub", "move"):
                self._stay.add(cls)
            elif kind == "replicate":
                self._replicate.add(cls)

    def knows(self, cls: str) -> bool:
        """Whether the artifact says anything about ``cls``."""
        return (not self.stale
                and (cls in self._spread or cls in self._stay
                     or cls in self._replicate))

    def node_for(self, cls: str, index: int, default: Optional[int],
                 count: Optional[int] = None) -> Optional[int]:
        if self.stale:
            return self.fallback.node_for(cls, index, default, count)
        strategy = self._spread.get(cls)
        if strategy is not None:
            if strategy == "block" and count:
                return (index * self.nodes) // count
            return index % self.nodes
        if cls in self._stay or cls in self._replicate:
            return default
        return self.fallback.node_for(cls, index, default, count)

    def replicate(self, cls: str, default: bool) -> bool:
        if self.stale:
            return self.fallback.replicate(cls, default)
        if cls in self._replicate:
            return True
        if cls in self._spread or cls in self._stay:
            return False
        return self.fallback.replicate(cls, default)
