"""The calibrated cost model behind every simulated charge (Table 1).

The paper measures five primitive latencies on 4-CPU CVAX Fireflies on a
10 Mbit/s Ethernet (Table 1):

====================== ============
object create           0.18 ms
local invoke/return     0.012 ms
remote invoke/return    8.32 ms
object move            12.43 ms
thread start/join       1.33 ms
====================== ============

:class:`CostModel` decomposes these into the lower-level charges the
simulated Amber kernel applies (trap handling, marshalling, wire time,
dispatch, preemption...).  The default values — :meth:`CostModel.firefly` —
are chosen so the microbenchmarks in ``repro.bench.table1`` land exactly on
the paper's numbers under the paper's stated conditions: light load, moving
objects and threads fit in one network packet, destination found via a
one-hop forwarding chain.

The decomposition (all values in microseconds):

* local invoke/return  = ``local_invoke_us + local_return_us``
  = 8 + 4 = **12**
* object create        = ``heap_alloc_us + descriptor_init_us``
  = 80 + 100 = **180**
* one-way thread migration (empty payload)
  = ``remote_trap_us + thread_marshal_us``  (source CPU)
  + ``net_latency_us + thread_packet_bytes * per_byte_us``  (wire)
  + ``thread_unmarshal_us + dispatch_us``  (destination CPU)
  = 150 + 900 + 800 + 800 + 900 + 604 = 4154
* remote invoke/return = local invoke/return + 2 × one-way migration
  = 12 + 8308 = **8320**
* thread start/join    = ``thread_start_us + dispatch_us + thread_exit_us +
  join_us`` = 400 + 604 + 200 + 126 = **1330**
  (creating the thread *object* is an ordinary object create, charged
  separately, as in the paper's benchmark.)
* object move (1000-byte object, 4-CPU source node, destination known)
  = ``move_setup_us`` + ``preempt_us × (cpus-1)`` + ``object_marshal_us``
  + wire(object) + ``object_install_us`` + wire(ack) + ``move_complete_us``
  = 1500 + 1200 + 2500 + 1600 + 2500 + 880 + 2250 = **12430**

The per-byte wire cost 0.8 us/byte is exactly 10 Mbit/s; ``net_latency_us``
stands in for controller + software latency per message.  Section 3.5's
observation that "the need to preempt all running threads causes the cost of
mobility to increase as processors are added to a node" falls out of the
``preempt_us × (cpus-1)`` term and is measured by ablation A4.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.errors import finite

#: Ceiling on any simulated duration a setting names (about 32 years):
#: every charge derived from such settings, wire time included, stays a
#: finite float and fits the integer-nanosecond clock.
MAX_DURATION_US = 1e15
#: Ceiling on a byte count a setting names (1 TiB).
MAX_BYTES = 1 << 40
#: Ceiling on a node count and on the processors of a node: a simulated
#: cluster builds every node and processor up front, and a live one
#: starts one OS process per node.
MAX_NODES_OR_CPUS = 1024


@dataclass(frozen=True)
class CostModel:
    """Primitive costs charged by the simulated cluster, in microseconds
    (except byte counts).  Instances are immutable; derive variants with
    :meth:`replace`."""

    # --- CPU: invocation path -------------------------------------------
    #: Entry cost of a local invocation: frame push + residency check + call.
    local_invoke_us: float = 8.0
    #: Return cost: frame pop + return-time residency check.
    local_return_us: float = 4.0
    #: Kernel trap when a residency check fails (branch to kernel, decode).
    remote_trap_us: float = 150.0
    #: A co-residency-optimized call (section 3.6: "fast inline function
    #: calls" when co-location is guaranteed): no residency check at all.
    inline_call_us: float = 1.0
    #: Residency check alone (one branch-on-bit instruction) — charged on
    #: context-switch-in checks during move protocols.
    residency_check_us: float = 0.3

    # --- CPU: object management -----------------------------------------
    heap_alloc_us: float = 80.0
    descriptor_init_us: float = 100.0
    #: Marshal / install an object's representation for a move.
    object_marshal_us: float = 2500.0
    object_install_us: float = 2500.0
    #: Initiating a move: mark descriptor non-resident, set forwarding addr.
    move_setup_us: float = 1500.0
    #: Handling the move acknowledgement and finishing source-side cleanup.
    move_complete_us: float = 2250.0
    #: Interrupting one running CPU so its thread makes a residency check.
    preempt_us: float = 400.0

    # --- CPU: threads and scheduling ------------------------------------
    #: Pack / unpack a thread (control state + active stack pieces).
    thread_marshal_us: float = 900.0
    thread_unmarshal_us: float = 900.0
    #: Making a thread runnable and switching a CPU to it.
    dispatch_us: float = 604.0
    #: Start(): stack setup and enqueue of a new thread.
    thread_start_us: float = 400.0
    #: Thread termination bookkeeping.
    thread_exit_us: float = 200.0
    #: Join(): synchronizing with and reaping a finished thread.
    join_us: float = 126.0
    #: Context switch between threads on one CPU.
    context_switch_us: float = 50.0
    #: Blocking a thread on a synchronization object / waking it.
    block_us: float = 40.0
    wakeup_us: float = 40.0
    #: Scheduler quantum (Presto-style timeslicing).
    timeslice_us: float = 100_000.0

    # --- Network ----------------------------------------------------------
    #: Fixed per-message latency: controller + protocol software, both ends.
    net_latency_us: float = 800.0
    #: Wire time per byte; 0.8 us/byte == 10 Mbit/s Ethernet.
    per_byte_us: float = 0.8
    #: Bytes of a thread-migration packet (control state, stack fragment).
    thread_packet_bytes: int = 1000
    #: Bytes of a small control message (move ack, locate, wakeup).
    control_bytes: int = 100
    #: Handling cost when a node forwards a misdelivered request one hop.
    forward_hop_us: float = 150.0

    # --- Page-based DSM baseline (Ivy, section 4) -----------------------
    page_bytes: int = 1024
    #: Page-fault trap and handler entry.
    page_fault_us: float = 300.0
    #: Packing / installing a page for transfer.
    page_pack_us: float = 300.0
    page_install_us: float = 300.0
    #: Processing an invalidation request for one copy.
    invalidate_us: float = 100.0
    #: Manager bookkeeping per ownership request.
    manager_us: float = 150.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            count = name in ("thread_packet_bytes", "control_bytes",
                             "page_bytes")
            # An infinite quantum is no preemption at all (free()); the
            # quantum only caps a compute charge, so it needs no ceiling.
            quantum = name == "timeslice_us"
            high = (math.inf if quantum else MAX_BYTES if count
                    else MAX_DURATION_US)
            finite(name, value, ValueError, int(count), high,
                   integral=count, open_low=quantum, allow_inf=quantum)

    # --- Derived quantities ----------------------------------------------

    def wire_us(self, nbytes: int) -> float:
        """Uncontended wire time for one message of ``nbytes`` bytes."""
        return self.net_latency_us + nbytes * self.per_byte_us

    def thread_send_cpu_us(self) -> float:
        """Source-CPU cost of launching a thread migration."""
        return self.remote_trap_us + self.thread_marshal_us

    def thread_recv_cpu_us(self) -> float:
        """Destination-CPU cost of accepting a migrated thread."""
        return self.thread_unmarshal_us + self.dispatch_us

    def one_way_thread_us(self, payload_bytes: int = 0) -> float:
        """End-to-end cost of one thread migration carrying ``payload_bytes``
        of invocation arguments, excluding queueing and contention."""
        return (self.thread_send_cpu_us()
                + self.wire_us(self.thread_packet_bytes + payload_bytes)
                + self.thread_recv_cpu_us())

    def remote_invoke_return_us(self, payload_bytes: int = 0) -> float:
        """Predicted cost of a remote invoke/return pair (Table 1 row 3)."""
        return (self.local_invoke_us + self.local_return_us
                + self.one_way_thread_us(payload_bytes)
                + self.one_way_thread_us(0))

    def object_create_us(self) -> float:
        return self.heap_alloc_us + self.descriptor_init_us

    def object_move_us(self, object_bytes: int, source_cpus: int) -> float:
        """Predicted cost of moving one object (Table 1 row 4)."""
        return (self.move_setup_us
                + self.preempt_us * max(0, source_cpus - 1)
                + self.object_marshal_us
                + self.wire_us(object_bytes)
                + self.object_install_us
                + self.wire_us(self.control_bytes)
                + self.move_complete_us)

    def thread_start_join_us(self) -> float:
        """Predicted cost of Start + Join of a trivial local thread."""
        return (self.thread_start_us + self.dispatch_us
                + self.thread_exit_us + self.join_us)

    def page_transfer_us(self) -> float:
        """Uncontended cost of one DSM page fault serviced by the owner."""
        return (self.page_fault_us + self.wire_us(self.control_bytes)
                + self.manager_us + self.page_pack_us
                + self.wire_us(self.page_bytes) + self.page_install_us)

    def replace(self, **changes: float) -> "CostModel":
        """A copy with some fields changed."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def firefly(cls) -> "CostModel":
        """The default model, calibrated to Table 1 (see module docstring)."""
        return cls()

    @classmethod
    def free(cls) -> "CostModel":
        """A zero-cost model: useful in unit tests that check semantics and
        event ordering without arithmetic noise."""
        default = cls()
        fields = {f.name: 0 if isinstance(getattr(default, f.name), int)
                  else 0.0 for f in dataclasses.fields(cls)}
        fields["timeslice_us"] = float("inf")
        fields["per_byte_us"] = 0.0
        # Byte counts stay positive (sizes, not costs); wire time is zero
        # anyway because per_byte_us is zero.
        fields["page_bytes"] = 1
        fields["thread_packet_bytes"] = 1
        fields["control_bytes"] = 1
        return cls(**fields)
