"""Per-process registry of the active elision set.

Imported by the simulator's hot paths (``sim.kernel``, ``sim.sync``)
and by the sanitizer's field interposition, so — like
:mod:`repro.analyze.runtime` — it imports nothing outside the standard
library.  The hooks read the module-level views (:data:`SKIP`,
:data:`LOCK_OWNERS`) and bail on the empty set, so an elision-free run
pays one frozenset membership test per hook site at most.

Activation is all-or-nothing per process: exactly one
:class:`ElideSet` (derived from a verified ``amberelide/1`` artifact)
is active at a time.  ``audit=True`` activates lock elision but keeps
the sanitizer interposition fully installed so the soundness
verification can watch every field access of the classes the analysis
claimed confined or immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

#: Runtime owner name for locks created outside any user class (the
#: program's main thread runs inside the synthetic ``_MainObject``).
MAIN_OWNER = "<main>"

_MAIN_CLASSES = frozenset({"_MainObject"})


@dataclass(frozen=True)
class ElideSet:
    """The runtime-consumable facts of one elide artifact."""

    #: Classes whose field interposition may be skipped (confined or
    #: effectively immutable).
    skip_classes: FrozenSet[str] = frozenset()
    #: ``(owner, lock_cls)`` pairs: every lock of ``lock_cls`` created
    #: by an activation of ``owner`` (class name, or ``<main>``) is
    #: proven single-thread and may use the elided fast path.
    lock_owners: FrozenSet[Tuple[str, str]] = frozenset()
    #: Thread-confined classes (subset of ``skip_classes``).
    confined: FrozenSet[str] = frozenset()
    #: Effectively-immutable classes (subset of ``skip_classes``).
    immutable: FrozenSet[str] = frozenset()
    #: Fingerprint of the artifact this set came from (diagnostics).
    fingerprint: str = ""


#: The active elision set, or None.
ACTIVE: Optional[ElideSet] = None

#: Hot-path views (empty when nothing is active).  An audit-mode
#: activation keeps lock elision on but leaves ``SKIP`` empty, so every
#: access is observed.
SKIP: FrozenSet[str] = frozenset()
LOCK_OWNERS: FrozenSet[Tuple[str, str]] = frozenset()

#: Times activation was refused because the artifact was stale
#: (fingerprint/source mismatch) — the "silently disabled" counter.
STALE_DISABLES = 0


def activate(elide_set: ElideSet, audit: bool = False) -> None:
    """Make ``elide_set`` the process-wide elision set."""
    global ACTIVE, SKIP, LOCK_OWNERS
    if ACTIVE is not None:
        raise RuntimeError("an elision set is already active")
    ACTIVE = elide_set
    SKIP = frozenset() if audit else elide_set.skip_classes
    LOCK_OWNERS = elide_set.lock_owners


def deactivate() -> None:
    global ACTIVE, SKIP, LOCK_OWNERS
    ACTIVE = None
    SKIP = frozenset()
    LOCK_OWNERS = frozenset()


def active() -> Optional[ElideSet]:
    return ACTIVE


def note_stale() -> None:
    """Record one silent elision-disable on a stale artifact."""
    global STALE_DISABLES
    STALE_DISABLES += 1


def lock_owner_name(creator_cls: str) -> str:
    """Map a creating activation's class name to the artifact's owner
    name (the synthetic main object counts as ``<main>``)."""
    if creator_cls in _MAIN_CLASSES:
        return MAIN_OWNER
    return creator_cls
