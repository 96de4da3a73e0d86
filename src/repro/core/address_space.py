"""The global virtual address space (paper section 3.1).

Amber arranges the virtual address space of every participating task
identically, so that any address has the same meaning on every node.  Dynamic
objects are allocated from per-node *regions* of a shared address space: each
node receives a private region at startup and requests further regions from a
central *address-space server* as it exhausts its pool.  Because region
ownership is known everywhere, any node can derive an object's *home node*
from its virtual address alone (section 3.3) — this is what makes the
uninitialized-descriptor trick work.

Two rules from the paper are enforced here:

* regions are handed out whole (1 MiB by default) and never overlap;
* heap blocks are **never divided once they have been returned to the free
  pool** (section 3.2) — a freed block may only be reused at its original
  size, so a stale reference into a reused block still lands on a descriptor
  boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import AddressExhaustedError, AddressSpaceError, HeapError

#: Default size of a region granted by the address-space server (the paper
#: uses 1 MiB: "the regions are large enough (currently 1M bytes)").
DEFAULT_REGION_BYTES = 1 << 20

#: Lowest address handed out for dynamic objects.  Everything below is
#: modeled as the program image (code and static data), replicated on all
#: nodes by virtue of being the same image.
HEAP_BASE = 1 << 24

#: One past the highest usable address (a 40-bit space; the VAX had 32 bits
#: but nothing here depends on the exact width).
ADDRESS_LIMIT = 1 << 40

#: All heap allocations are rounded up to this many bytes.  Descriptors sit at
#: the front of an object, so alignment keeps descriptor addresses distinct.
ALLOC_ALIGN = 16


@dataclass(frozen=True)
class Region:
    """A contiguous slice of the global address space owned by one node."""

    base: int
    size: int
    owner_node: int

    @property
    def limit(self) -> int:
        """One past the last address in the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit


class AddressSpaceServer:
    """Hands out disjoint regions of the global address space to nodes.

    The server is the only authority for the region map; nodes keep local
    caches (a :class:`RegionMap`) that are filled on demand.  Grants are
    recorded so that ``home_node(address)`` can be answered for any address
    ever handed out.
    """

    def __init__(self, region_bytes: int = DEFAULT_REGION_BYTES,
                 base: int = HEAP_BASE,
                 limit: int = ADDRESS_LIMIT) -> None:
        if region_bytes <= 0 or region_bytes % ALLOC_ALIGN:
            raise AddressSpaceError(
                f"region size must be a positive multiple of {ALLOC_ALIGN}, "
                f"got {region_bytes}")
        self.region_bytes = region_bytes
        self._next_base = base
        self._limit = limit
        self._regions: List[Region] = []
        #: grants[node] -> list of regions granted to that node, in order
        self.grants: Dict[int, List[Region]] = {}

    def grant_region(self, node: int) -> Region:
        """Grant the next unused region to ``node``."""
        if self._next_base + self.region_bytes > self._limit:
            raise AddressExhaustedError(
                "global address space exhausted "
                f"(limit {self._limit:#x})")
        region = Region(self._next_base, self.region_bytes, node)
        self._next_base += self.region_bytes
        self._regions.append(region)
        self.grants.setdefault(node, []).append(region)
        return region

    def region_for(self, address: int) -> Region:
        """Return the region containing ``address``.

        Raises :class:`AddressSpaceError` for addresses that were never
        granted (references to such addresses are bugs, not remote objects).
        """
        index = self._find(address)
        if index is None:
            raise AddressSpaceError(f"address {address:#x} is in no region")
        return self._regions[index]

    def home_node(self, address: int) -> int:
        """The node whose heap contains ``address`` — its *home node*."""
        return self.region_for(address).owner_node

    def regions(self) -> Iterator[Region]:
        return iter(self._regions)

    def _find(self, address: int) -> Optional[int]:
        # Regions are granted with monotonically increasing bases, so a
        # binary search over the grant order is exact.
        lo, hi = 0, len(self._regions) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            region = self._regions[mid]
            if address < region.base:
                hi = mid - 1
            elif address >= region.limit:
                lo = mid + 1
            else:
                return mid
        return None


class RegionMap:
    """A node-local cache of region grants.

    Nodes learn about regions lazily (when the server grants them one, or
    when they first see an address in an unknown region and ask the server).
    """

    def __init__(self) -> None:
        self._regions: Dict[int, Region] = {}

    def add(self, region: Region) -> None:
        existing = self._regions.get(region.base)
        if existing is not None and existing != region:
            raise AddressSpaceError(
                f"conflicting grants for region base {region.base:#x}")
        self._regions[region.base] = region

    def lookup(self, address: int) -> Optional[Region]:
        """Region containing ``address`` if cached locally, else ``None``."""
        for region in self._regions.values():
            if region.contains(address):
                return region
        return None

    def __len__(self) -> int:
        return len(self._regions)


@dataclass
class _Block:
    """A heap block: address, size, and whether it is currently allocated."""

    address: int
    size: int
    allocated: bool = True


class NodeHeap:
    """Per-node allocator over regions granted by the address-space server.

    Fresh allocations are carved from the tail of the newest region (bump
    allocation).  Freed blocks are kept on per-size free lists and are only
    ever reused whole — never split, never coalesced — per section 3.2, so
    a dangling reference to a freed-and-reused address still denotes the
    start of some object's descriptor.
    """

    def __init__(self, node: int, server: AddressSpaceServer,
                 on_grant: Optional[Callable[[Region], None]] = None
                 ) -> None:
        """``on_grant`` is called with each new :class:`Region` granted; the
        backends use it to propagate grants into their region caches."""
        self.node = node
        self._server = server
        self._on_grant = on_grant
        self._regions: List[Region] = []
        self._bump = 0          # next free address in the newest region
        self._bump_limit = 0    # end of the newest region
        self._free: Dict[int, List[int]] = {}   # size -> [addresses]
        self._blocks: Dict[int, _Block] = {}    # address -> block
        self.regions_requested = 0
        self.bytes_allocated = 0

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the block's virtual address."""
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        size = _round_up(size, ALLOC_ALIGN)
        free_list = self._free.get(size)
        if free_list:
            address = free_list.pop()
            block = self._blocks[address]
            block.allocated = True
        else:
            address = self._bump_allocate(size)
            self._blocks[address] = _Block(address, size)
        self.bytes_allocated += size
        return address

    def free(self, address: int) -> None:
        """Return a block to the free pool (it will only be reused whole)."""
        block = self._blocks.get(address)
        if block is None:
            raise HeapError(f"free of unallocated address {address:#x}")
        if not block.allocated:
            raise HeapError(f"double free of address {address:#x}")
        block.allocated = False
        self._free.setdefault(block.size, []).append(address)
        self.bytes_allocated -= block.size

    def block_size(self, address: int) -> int:
        block = self._blocks.get(address)
        if block is None:
            raise HeapError(f"no block at address {address:#x}")
        return block.size

    def _bump_allocate(self, size: int) -> int:
        if size > self._server.region_bytes:
            raise HeapError(
                f"allocation of {size} bytes exceeds region size "
                f"{self._server.region_bytes}")
        if self._bump + size > self._bump_limit:
            self._extend()
        address = self._bump
        self._bump += size
        return address

    def _extend(self) -> None:
        """Request a fresh region from the address-space server.

        The paper notes this is rare in practice because regions are large;
        ``regions_requested`` lets tests and benchmarks confirm that.
        """
        region = self._server.grant_region(self.node)
        self._regions.append(region)
        self._bump = region.base
        self._bump_limit = region.limit
        self.regions_requested += 1
        if self._on_grant is not None:
            self._on_grant(region)


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align
