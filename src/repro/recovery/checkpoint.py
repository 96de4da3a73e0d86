"""Epoch-based object checkpoints and primary-backup promotion.

Mutable objects ship versioned snapshots of their state to a
deterministic backup node.  Snapshots are taken at two points:

* **birth** — a new object's construction-time state ships straight to
  its backup (through the faulty reliable layer, like any protocol
  message), so every object has an epoch to promote;
* **write-through** — when a migrated invocation completes, the
  *departing thread itself* carries the new epoch and flushes it from
  wherever it lands.  This couples checkpoint survival to thread
  survival: if the thread escapes the node, so does the checkpoint; if
  the node takes the thread down, the un-flushed epoch dies with it and
  the backup still holds the pre-invocation state — which is exactly
  the state the resurrected thread replays against.

Snapshots are *structural* copies: containers and numpy arrays are
copied, references to other Amber objects (including threads) are kept
by identity — object references are location-transparent names here, so
identity is the right serialization.  On restore, thread references are
purged from containers (a promoted lock's waiter queue must not point
at threads that are being resurrected elsewhere) while direct attribute
references such as a lock's owner are preserved: a live owner will
still release the promoted lock.

Torn snapshots are avoided, not repaired: the kernel skips the epoch of
any object another live thread is currently bound to (its state may be
mid-operation).  Consequently sync objects checkpoint only at
protocol-quiescent points — a barrier between cycles, a lock with no
enqueued waiters.

Consistency is per object.  Multi-object invariants that span a dead
node (a monitor held while waiting on its condition variable) recover
only as well as their quiescent checkpoints allow; see
``docs/RECOVERY.md`` for the exact guarantees.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from repro.sim.objects import SimObject
from repro.sim.thread import SimThread

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

#: Kernel-private ``SimObject`` fields: identity and placement, never
#: part of a snapshot (the promoted object keeps its own).
KERNEL_FIELDS = frozenset((
    "_vaddr", "_home_node", "_location", "_size_bytes", "_immutable",
    "_replica_nodes",
))


def _copy(value, purge_threads: bool):
    """Structural copy of one attribute value (see module docstring)."""
    if isinstance(value, SimObject):
        return value
    kind = type(value)
    if kind is dict:
        return {
            _copy(key, purge_threads): _copy(item, purge_threads)
            for key, item in value.items()
            if not (purge_threads and isinstance(item, SimThread))
        }
    if kind in (list, tuple, set, frozenset, deque):
        items = [_copy(item, purge_threads) for item in value
                 if not (purge_threads and isinstance(item, SimThread))]
        return kind(items)
    if _np is not None and isinstance(value, _np.ndarray):
        return value.copy()
    return value  # scalars, strings, and unknown types by reference


def _slot_fields(cls: type) -> Tuple[str, ...]:
    """Per-instance ``__slots__`` entries across the MRO.  Hot sim
    classes (sync objects, threads) declare slots; their state lives in
    slot descriptors, not ``__dict__``, so snapshots must walk both."""
    names = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(name for name in slots
                     if name not in ("__dict__", "__weakref__"))
    return tuple(names)


def snapshot_state(obj: SimObject) -> Dict[str, object]:
    """Capture the object's user-visible state (one checkpoint epoch).

    Includes the at-most-once completion log (``_amber_completed``), so
    promotion restores exactly the set of invocation outcomes the
    snapshot's state reflects — log and state stay atomic.
    """
    state = {name: _copy(value, purge_threads=False)
             for name, value in obj.__dict__.items()
             if name not in KERNEL_FIELDS}
    for name in _slot_fields(type(obj)):
        if name in KERNEL_FIELDS or name in state:
            continue
        try:
            value = getattr(obj, name)
        except AttributeError:
            continue            # slot never assigned
        state[name] = _copy(value, purge_threads=False)
    return state


def restore_state(obj: SimObject, state: Dict[str, object]) -> None:
    """Overwrite the object's state from a snapshot (promotion).

    The stored snapshot is itself left untouched (a second crash can
    promote it again); thread references inside containers are purged
    on the way in.
    """
    for name in list(obj.__dict__):
        if name not in KERNEL_FIELDS:
            del obj.__dict__[name]
    slots = set(_slot_fields(type(obj)))
    for name, value in state.items():
        copied = _copy(value, purge_threads=True)
        if name in slots:
            setattr(obj, name, copied)
        else:
            obj.__dict__[name] = copied


class CheckpointManager:
    """Epoch bookkeeping and the per-node backup stores.

    A backup store models battery-backed stable storage at the backup
    node: entries survive that node's own crash-and-restart, but are
    unreachable while it is down — promotion consults only stores on
    live nodes, so an object whose primary *and* backup are dead at
    confirmation time is lost.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self._epochs: Dict[int, int] = {}
        #: backup node id -> {vaddr -> (epoch, state)}
        self._stores: Dict[int, Dict[int, Tuple[int, dict]]] = {}

    # -- placement ----------------------------------------------------

    def backup_node(self, vaddr: int, primary: int) -> int:
        """Deterministic backup placement for ``vaddr`` held at
        ``primary``: the home node when the object lives away from home,
        else the hash-ring successor — always a node other than the
        primary, skipping nodes that are down (an epoch shipped at a
        corpse is an epoch lost)."""
        nodes = self.cluster.nodes
        nnodes = len(nodes)
        if nnodes < 2:
            return primary
        home = self.cluster.home_node(vaddr)
        if home != primary and not nodes[home].down:
            return home
        start = (primary + 1 + vaddr % (nnodes - 1)) % nnodes
        for step in range(nnodes):
            candidate = (start + step) % nnodes
            if candidate != primary and not nodes[candidate].down:
                return candidate
        return primary  # everything else is down: nowhere to ship

    def eligible(self, obj) -> bool:
        """Only mutable non-thread objects checkpoint: threads recover
        by resurrection, immutables by replication."""
        return (isinstance(obj, SimObject)
                and not isinstance(obj, SimThread)
                and not obj.immutable)

    # -- epochs and stores --------------------------------------------

    def next_epoch(self, vaddr: int) -> int:
        epoch = self._epochs.get(vaddr, 0) + 1
        self._epochs[vaddr] = epoch
        return epoch

    def store(self, backup_id: int, vaddr: int, epoch: int,
              state: dict) -> bool:
        """Install an epoch at ``backup_id``; stale epochs (late
        retransmissions, out-of-order carried flushes) are ignored."""
        shelf = self._stores.setdefault(backup_id, {})
        held = shelf.get(vaddr)
        if held is not None and held[0] >= epoch:
            return False
        shelf[vaddr] = (epoch, state)
        return True

    def latest(self, vaddr: int) -> Optional[Tuple[int, int, dict]]:
        """Newest epoch of ``vaddr`` held on any *live* node, as
        ``(backup node, epoch, state)`` — ``None`` if every copy is
        behind a dead node."""
        best = None
        for node in self.cluster.nodes:
            if node.down:
                continue
            held = self._stores.get(node.id, {}).get(vaddr)
            if held is not None and (best is None or held[0] > best[1]):
                best = (node.id, held[0], held[1])
        return best

    def drop(self, vaddr: int) -> None:
        """Forget an object entirely (deletion)."""
        self._epochs.pop(vaddr, None)
        for shelf in self._stores.values():
            shelf.pop(vaddr, None)
