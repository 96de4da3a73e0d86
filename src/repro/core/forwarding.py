"""Locating mobile objects via forwarding-address chains (section 3.3).

When an object moves it leaves a forwarding address in its descriptor on the
node it left.  A request arriving at a node where the object is not resident
follows the chain hop by hop; if the local descriptor is *uninitialized* the
request is routed to the object's home node (derived from its address), which
by construction has a descriptor for every object created there.

Following a chain is expensive but self-limiting: every node along the path
caches the object's final location, so subsequent requests take one hop
(Fowler's path compression).  Each hop is one
:meth:`~repro.core.descriptor.DescriptorTable.next_hop`, the rule both
kernels route by, one message at a time.  :func:`resolve` walks the whole
chain at once: it is the reference oracle that
``tests/test_kernel_properties.py`` holds the simulator's routing to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.descriptor import DescriptorTable
from repro.errors import ObjectNotFoundError


@dataclass
class Route:
    """The path a locate request takes through the cluster.

    ``path`` starts at the requesting node and ends at the node where the
    object was found resident.  ``hops`` is ``len(path) - 1`` — the number of
    network traversals.  ``via_home`` records whether the home-node fallback
    was needed (uninitialized descriptor somewhere along the way).
    """

    path: List[int]
    via_home: bool

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def destination(self) -> int:
        return self.path[-1]


def resolve(address: int, start_node: int,
            tables: Dict[int, DescriptorTable],
            home_node: Callable[[int], int],
            max_hops: int = 1024) -> Route:
    """Compute the route a request for ``address`` takes from ``start_node``.

    ``tables`` maps node id to that node's descriptor table; ``home_node``
    derives an address's home from the region map.  Raises
    :class:`ObjectNotFoundError` if the chain dead-ends (which indicates a
    corrupted descriptor graph — a deleted object, or a cycle).
    """
    path = [start_node]
    via_home = False
    node = start_node
    for _ in range(max_hops):
        table = tables[node]
        next_node = table.next_hop(address, home_node)
        if next_node == node:
            return Route(path, via_home)
        if next_node in path:
            # Every hop is a function of one node's table, so a node met
            # twice is a loop.  It can only arise from descriptor
            # corruption; the protocols in both backends update source and
            # destination descriptors atomically with respect to the move.
            raise ObjectNotFoundError(
                f"forwarding cycle for object {address:#x}: "
                f"{path + [next_node]}")
        # Uninitialized (a zero-filled page): the hop went to the home.
        via_home = via_home or address not in table.where
        node = next_node
        path.append(node)
    raise ObjectNotFoundError(
        f"forwarding chain for {address:#x} exceeded {max_hops} hops")


def compress_path(route: Route, address: int,
                  tables: Dict[int, DescriptorTable]) -> None:
    """Cache the object's final location on every node along the route.

    "the object's last known location is cached on all nodes along the chain
    so that the object can be located quickly on subsequent references."
    """
    destination = route.destination
    for node in route.path[:-1]:
        tables[node].update_hint(address, destination)
