"""Entry point of a non-driver node process."""

from __future__ import annotations

from typing import Tuple

from repro.runtime.coordinator import CoordinatorClient
from repro.runtime.kernel import NodeKernel


def node_main(node_id: int, coordinator_address: Tuple[str, int],
              region_bytes: int, chaos=None) -> None:
    """Run one node until the coordinator says shutdown.

    ``chaos`` is an optional frozen :class:`~repro.faults.plan.FaultPlan`;
    when given, the node's outbound frames pass through a seeded
    :class:`~repro.faults.live.LiveFaultInjector` (docs/CHAOS.md).
    """
    client = CoordinatorClient(coordinator_address, region_bytes)
    kernel = NodeKernel(node_id, client, chaos=chaos)
    client.join(node_id, kernel.mesh)
    client.wait_directory()
    client.shutdown_event.wait()
    kernel.shutdown()
    client.close()
