"""Backend-agnostic Amber object model.

This subpackage implements the machinery of the paper that is independent of
*how* programs execute: the global virtual address space (section 3.1), object
descriptors and the uninitialized-descriptor convention (3.2), forwarding
address chains with home-node fallback (3.3), attachment groups and
immutability (2.3), and the calibrated cost model behind Table 1.

Both execution backends build on these pieces: :mod:`repro.sim` (the
deterministic discrete-event cluster used for the performance figures) and
:mod:`repro.runtime` (the live multi-process runtime).
"""

from repro.core.address_space import (
    DEFAULT_REGION_BYTES,
    AddressSpaceServer,
    NodeHeap,
    Region,
)
from repro.core.attachment import AttachmentGraph
from repro.core.costs import CostModel
from repro.core.descriptor import DescriptorTable

__all__ = [
    "AddressSpaceServer",
    "AttachmentGraph",
    "CostModel",
    "DEFAULT_REGION_BYTES",
    "DescriptorTable",
    "NodeHeap",
    "Region",
]
