"""Placement advisors over the simulated cluster.

All advisors are pure policy: they read cluster state and *suggest*;
the program decides and moves.  See the package docstring for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.sim.cluster import SimCluster
from repro.sim.objects import SimObject
from repro.sim.thread import SimThread

#: Share of an object's invocations one other node must account for
#: before the object is suggested to move there.
MOVE_FRACTION = 0.5


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
    ``min_accesses`` were observed.  Threads are skipped, and an
    attachment group gets at most one suggestion (its first member that
    qualifies) — moving any group member moves the group.
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
            if group in seen_groups:
                continue
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
            seen_groups.add(group)
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


class HintedPlacement(SpreadPlacement):
    """Placement driven by an AmberFlow ``PlacementHints`` artifact.

    The artifact is the one reader and interpreter of its format:
    this policy asks it ``valid``, ``kind_of``, ``spread_strategy`` and
    ``replicate_classes`` and never looks at the payload, so this module
    imports nothing from :mod:`repro.analyze`.  An artifact that is not
    ``valid`` (missing, stale or malformed file), and a class it does
    not place, get the round-robin baseline of
    :class:`SpreadPlacement`.

    Hint kinds map to decisions:

    * ``spread``/``round-robin`` — instance ``index % nodes``;
    * ``spread``/``block`` — ``index * nodes // count`` (neighbors
      share a node; needs ``count``, else round-robin);
    * ``hub``/``move`` — the program's default (stay put, let function
      shipping or an explicit ``MoveTo`` do the work);
    * ``replicate`` — the program's default node, and ``replicate()``
      answers True.
    """

    def __init__(self, hints: Any, nodes: int) -> None:
        super().__init__(nodes)
        self.hints = hints

    def _kind(self, cls: str) -> Optional[str]:
        """The artifact's kind for ``cls``; ``None`` where this policy
        defers to round-robin."""
        if not self.hints.valid:
            return None
        kind = self.hints.kind_of(cls)
        return None if kind == "colocate" else kind

    def node_for(self, cls: str, index: int, default: Optional[int],
                 count: Optional[int] = None) -> Optional[int]:
        kind = self._kind(cls)
        if kind is None:
            return super().node_for(cls, index, default, count)
        if kind != "spread":
            return default
        if self.hints.spread_strategy(cls) == "block" and count:
            return (index * self.nodes) // count
        return index % self.nodes

    def replicate(self, cls: str, default: bool) -> bool:
        if self._kind(cls) is None:
            return super().replicate(cls, default)
        return cls in self.hints.replicate_classes()
