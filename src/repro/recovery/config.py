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

from repro.errors import SimulationError

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
    if value <= 0:
        raise SimulationError(
            f"{PEER_TIMEOUT_ENV} must be positive, got {value}")
    return value


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

    ``heartbeat_interval_us``
        Every up node multicasts a heartbeat this often (heartbeats
        occupy the shared wire like any control message, but bypass the
        *random* fault injector so attaching a detector never perturbs
        the seeded fault stream — crash and partition silence still
        applies, deterministically).
    ``grace_us`` / ``confirm_us``
        A node unheard-from for ``grace_us`` is *suspected*; one silent
        for ``confirm_us`` is *confirmed dead*, which triggers backup
        promotion and orphan resurrection.  ``confirm_us`` defaults to
        twice ``grace_us`` (see ``__post_init__``).
    ``checkpointing``
        Master switch for checkpoint shipping and promotion.  With it
        off, the detector still runs, but a confirmed-dead node's
        objects are lost forever and its threads terminate with
        :class:`~repro.errors.NodeFailure` instead of hanging.
    ``checkpoint_interval_us``
        Period of the epoch checkpoint sweep (0 disables the sweep,
        leaving only the write-through checkpoint shipped whenever a
        remote invocation completes on a mutable object — what makes
        every effect a survivor has observed durable).
    ``backup_placement``
        ``"home"``: back up on the object's home node (falling back to
        the ring when the object is resident *at* home); ``"ring"``:
        always the deterministic hash-ring successor.
    """

    heartbeat_interval_us: float = 2_000.0
    grace_us: float = 8_000.0
    confirm_us: float = 0.0           # 0 -> 2 * grace_us
    checkpointing: bool = True
    checkpoint_interval_us: float = 25_000.0
    backup_placement: str = "home"

    def __post_init__(self) -> None:
        if self.heartbeat_interval_us <= 0:
            raise SimulationError(
                f"heartbeat interval must be positive: "
                f"{self.heartbeat_interval_us}")
        if self.grace_us < self.heartbeat_interval_us:
            raise SimulationError(
                "grace window shorter than the heartbeat interval would "
                f"suspect healthy nodes: grace={self.grace_us}, "
                f"interval={self.heartbeat_interval_us}")
        if self.confirm_us == 0.0:
            object.__setattr__(self, "confirm_us", 2.0 * self.grace_us)
        if self.confirm_us < self.grace_us:
            raise SimulationError(
                f"confirm window must be >= grace window: "
                f"confirm={self.confirm_us}, grace={self.grace_us}")
        if self.backup_placement not in ("home", "ring"):
            raise SimulationError(
                f"backup_placement must be 'home' or 'ring', "
                f"got {self.backup_placement!r}")
        if self.checkpoint_interval_us < 0:
            raise SimulationError(
                f"checkpoint interval must be >= 0: "
                f"{self.checkpoint_interval_us}")
