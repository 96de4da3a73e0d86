"""The live Amber runtime: one OS process per node, pickle over sockets.

Where :mod:`repro.sim` reproduces the paper's *measurements*, this backend
demonstrates the programming model actually working on commodity
machines: a network-wide object space with function-shipping invocation,
forwarding-address chains with home-node fallback, explicit mobility
(``move``/``locate``/``attach``/immutable replication), threads with
Start/Join, and distributed synchronization objects — all running across
real processes connected by a localhost TCP mesh.

Usage::

    from repro.runtime import AmberObject, Cluster

    class Counter(AmberObject):
        def __init__(self):
            self.value = 0

        def add(self, n):
            self.value += n
            return self.value

    with Cluster(nodes=3) as cluster:
        counter = cluster.create(Counter, node=1)
        counter.add(5)                 # executes on node 1
        cluster.move(counter, 2)       # explicit mobility
        thread = cluster.fork(counter, "add", 7)
        print(thread.join())           # -> 12

Simulator program text runs here unchanged: ``cluster.run(main)``
(:mod:`repro.runtime.programtext`).  A *logical* Amber thread is a chain
of shipped activations, and ``move`` drains the moving group's running
operations instead of migrating their threads (DESIGN.md, substitutions).
``Lock``, ``Monitor``, ``Barrier`` and ``CondVar`` are the simulator's
(:mod:`repro.sim.sync`), run as program text; they load on first use, so
``import repro.runtime`` loads no simulator.
"""

from typing import Any

from repro.runtime.cluster import Cluster
from repro.runtime.handles import Handle
from repro.runtime.objects import AmberObject, current_node

_SYNC = ("Barrier", "CondVar", "Lock", "Monitor")

__all__ = sorted(("AmberObject", "Cluster", "Handle", "current_node")
                 + _SYNC)


def __getattr__(name: str) -> Any:
    if name not in _SYNC:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from repro.sim import sync

    return getattr(sync, name)
