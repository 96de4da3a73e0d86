"""Crash recovery for the Amber reproduction.

The paper has no recovery story — a crashed node takes its resident
objects and visiting threads with it.  This package closes the loop
from *injecting* failures (:mod:`repro.faults`) to *surviving* them:

* :mod:`repro.recovery.config` — the :class:`RecoveryConfig` policy
  object (the checkpoint switch) and the
  ``REPRO_PEER_TIMEOUT_S`` knob every live-runtime peer-wait ceiling is
  derived from;
* :mod:`repro.recovery.detector` — heartbeat failure detection in the
  simulator, with its cadence and windows as constants (the live
  runtime's coordinator-mediated detection lives in
  :mod:`repro.runtime`);
* :mod:`repro.recovery.checkpoint` — epoch-based object snapshots and
  the primary-backup stores promotion draws from;
* :mod:`repro.recovery.replay` — the caller-side invocation log behind
  orphan-thread resurrection with at-most-once semantics;
* :mod:`repro.recovery.scenario` — the seeded pass/fail scenarios
  behind ``repro faults --recover``: ``queens_main`` and ``sor_main``
  losing a node for good.

Attach recovery to a simulated run with::

    from repro.recovery import RecoveryConfig
    from repro.sim import AmberProgram

    program = AmberProgram(config, faults=plan,
                           recovery=RecoveryConfig())
"""

from repro.recovery.config import (
    DEFAULT_PEER_TIMEOUT_S,
    PEER_TIMEOUT_ENV,
    RecoveryConfig,
    heartbeat_grace_s,
    peer_timeout_s,
    reply_timeout_s,
)

__all__ = [
    "DEFAULT_PEER_TIMEOUT_S",
    "PEER_TIMEOUT_ENV",
    "RecoveryConfig",
    "heartbeat_grace_s",
    "peer_timeout_s",
    "reply_timeout_s",
]
