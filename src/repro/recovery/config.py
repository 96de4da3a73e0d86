"""Recovery configuration: the simulator's knobs and the process-wide
peer-timeout knob shared with the live runtime.

The simulator side is a frozen :class:`RecoveryConfig` passed to
:class:`~repro.sim.program.AmberProgram` (``recovery=``).  Recovery is
strictly opt-in: with no config attached, the kernel schedules no
heartbeats, takes no checkpoints, and behaves bit-identically to the
pre-recovery simulator.

The live runtime side is one environment knob, ``REPRO_PEER_TIMEOUT_S``,
from which every previously hard-coded peer-wait ceiling is derived:

* :func:`peer_timeout_s` — how long bootstrap waits for the rest of the
  cluster (``CoordinatorClient.wait_directory`` and coordinator request
  round-trips; previously a hard-coded 30 s).
* :func:`reply_timeout_s` — the lost-peer ceiling on any request reply
  (``NodeKernel``'s reply wait; previously a hard-coded 120 s), four
  peer-timeouts so a slow bootstrap can never outlive a reply wait.
* :func:`heartbeat_grace_s` — the live failure detector's suspicion
  window, one tenth of the peer timeout (3 s by default): a peer that
  misses that much heartbeat traffic is *suspected*, and one that misses
  twice that is *confirmed dead*.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.costs import MAX_DURATION_US
from repro.errors import SimulationError, finite

#: Environment variable holding the single tunable peer-wait budget
#: (seconds).  Everything else is derived from it.
PEER_TIMEOUT_ENV = "REPRO_PEER_TIMEOUT_S"

#: Default peer-wait budget when the environment does not override it.
DEFAULT_PEER_TIMEOUT_S = 30.0

#: Shortest checkpoint sweep period.  Each sweep ships one message per
#: quiescent mutable object, and one message holds the Ethernet for its
#: bytes times ``per_byte_us`` — 284.8 us at Firefly costs for a default
#: 256-byte object and the 100-byte header; ``net_latency_us`` overlaps
#: it: a much shorter period queues checkpoints faster than the wire
#: drains them, and the run's own messages wait behind a queue that
#: keeps growing.
MIN_CHECKPOINT_INTERVAL_US = 1_000.0


def peer_timeout_s() -> float:
    """The cluster-bootstrap wait budget, seconds."""
    raw = os.environ.get(PEER_TIMEOUT_ENV)
    if raw is None:
        return DEFAULT_PEER_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise SimulationError(
            f"{PEER_TIMEOUT_ENV} must be a number of seconds, "
            f"got {raw!r}") from None
    return finite(PEER_TIMEOUT_ENV, value, SimulationError, open_low=True)


def reply_timeout_s() -> float:
    """Ceiling on waiting for any reply in the live runtime (the
    lost-peer ceiling): four peer-timeouts."""
    return 4.0 * peer_timeout_s()


def heartbeat_grace_s() -> float:
    """The live failure detector's suspicion window: a tenth of the
    peer timeout."""
    return peer_timeout_s() / 10.0


@dataclass(frozen=True)
class RecoveryConfig:
    """Simulator-side recovery policy (pure configuration, hashable).

    The detector's cadence and windows are constants of
    :mod:`repro.recovery.detector`; backup placement is the one rule of
    :meth:`~repro.recovery.checkpoint.CheckpointManager.backup_node`.

    ``checkpointing``
        Master switch for checkpoint shipping and promotion.  With it
        off, the detector still runs, but a confirmed-dead node's
        objects are lost forever and its threads terminate with
        :class:`~repro.errors.NodeFailure` instead of hanging.
    ``checkpoint_interval_us``
        Period of the epoch checkpoint sweep (0 disables the sweep,
        leaving only the write-through checkpoint shipped whenever a
        remote invocation completes on a mutable object — what makes
        every effect a survivor has observed durable).  Any other
        period is at least :data:`MIN_CHECKPOINT_INTERVAL_US`.
    """

    checkpointing: bool = True
    checkpoint_interval_us: float = 25_000.0

    def __post_init__(self) -> None:
        interval = self.checkpoint_interval_us
        finite("checkpoint_interval_us", interval, SimulationError,
               0 if interval == 0 else MIN_CHECKPOINT_INTERVAL_US,
               MAX_DURATION_US)
