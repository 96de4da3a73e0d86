"""Recovery configuration: the simulator's checkpoint switch and the
process-wide peer-timeout knob shared with the live runtime.

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

from repro.errors import SimulationError, finite

#: Environment variable holding the single tunable peer-wait budget
#: (seconds).  Everything else is derived from it.
PEER_TIMEOUT_ENV = "REPRO_PEER_TIMEOUT_S"

#: Default peer-wait budget when the environment does not override it.
DEFAULT_PEER_TIMEOUT_S = 30.0


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
    Checkpoints are taken at two points only: an object's birth, and the
    return of a migrated invocation on it (the write-through epoch, see
    :mod:`repro.recovery.checkpoint`).

    ``checkpointing``
        Master switch for checkpoint shipping and promotion.  With it
        off, the detector still runs, but a confirmed-dead node's
        objects are lost forever and its threads terminate with
        :class:`~repro.errors.NodeFailure` instead of hanging.
    """

    checkpointing: bool = True
