"""Per-peer circuit breakers for the live runtime.

A breaker protects callers from burning a full retransmission/backoff
ladder against a peer that is known to be down.  State machine, per
peer:

``closed``
    Normal operation.  ``consecutive send failures >= FAILURE_THRESHOLD``
    (or a failure-detector verdict) opens the breaker.
``open``
    Every send attempt fails fast with a typed
    :class:`~repro.errors.NodeFailure` (or is rerouted via the object's
    home node by the kernel) until ``COOLDOWN_S`` has elapsed.
``half-open``
    After the cooldown one *probe* send is let through; its outcome
    decides: success closes the breaker, failure re-opens it (and
    restarts the cooldown).

The kernel feeds the breaker two signals: its own send/reply outcomes
(:meth:`record_failure` / :meth:`record_success`) and the coordinator's
failure-detector verdicts (the ``suspected`` flag of :meth:`check`,
driven by ``CoordinatorClient.failed_peers()``).  A suspected peer is
treated as open regardless of local history — heartbeat silence is
stronger evidence than one healthy TCP accept — and a retracted
suspicion (the peer rejoined) lets probes close the breaker again.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

#: Consecutive send failures that trip a closed breaker.
FAILURE_THRESHOLD = 3
#: Seconds an open breaker fails fast before allowing a half-open probe.
COOLDOWN_S = 1.0

#: ``check`` verdicts.
CLOSED = "closed"
OPEN = "open"
PROBE = "probe"


class _Peer:
    __slots__ = ("failures", "opened_at", "probe_at")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at = 0.0      # 0.0 = not open
        self.probe_at = 0.0       # 0.0 = no probe in flight

    @property
    def probing(self) -> bool:
        return bool(self.probe_at)


class PeerCircuits:
    """Breaker state for every peer of one node."""

    def __init__(self) -> None:
        self._peers: Dict[int, _Peer] = {}
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "circuit_opens": 0,
            "circuit_probes": 0,
            "circuit_closes": 0,
        }

    def _peer(self, node: int) -> _Peer:
        peer = self._peers.get(node)
        if peer is None:
            peer = self._peers[node] = _Peer()
        return peer

    # -- queries -----------------------------------------------------------

    def check(self, node: int, suspected: bool = False) -> str:
        """Current verdict for sending to ``node``: ``closed``, ``open``
        (fail fast / reroute), or ``probe`` (one half-open attempt is
        allowed — the caller should send and report the outcome)."""
        now = time.monotonic()
        with self._lock:
            peer = self._peer(node)
            if suspected and not peer.opened_at:
                peer.opened_at = now
                peer.probe_at = 0.0
                self.stats["circuit_opens"] += 1
            if not peer.opened_at:
                return CLOSED
            # While the failure detector still suspects the peer, probes
            # are pointless: stay open and keep failing fast.  A later
            # retraction allows a probe immediately (the cooldown is
            # considered served during the suspicion window).
            if suspected:
                peer.probe_at = 0.0
                peer.opened_at = min(peer.opened_at, now - COOLDOWN_S)
                return OPEN
            if peer.probing:
                # One probe is in flight; if its outcome was never
                # reported (the prober died), release the slot after a
                # generous multiple of the cooldown.
                if now - peer.probe_at < 3.0 * COOLDOWN_S:
                    return OPEN
            elif now - peer.opened_at < COOLDOWN_S:
                return OPEN
            peer.probe_at = now
            self.stats["circuit_probes"] += 1
            return PROBE

    # -- outcome feedback --------------------------------------------------

    def record_failure(self, node: int) -> None:
        """A send to (or reply wait on) ``node`` failed."""
        now = time.monotonic()
        with self._lock:
            peer = self._peer(node)
            peer.failures += 1
            if peer.opened_at:
                # A failed probe re-opens and restarts the cooldown.
                peer.opened_at = now
                peer.probe_at = 0.0
            elif peer.failures >= FAILURE_THRESHOLD:
                peer.opened_at = now
                peer.probe_at = 0.0
                self.stats["circuit_opens"] += 1

    def record_success(self, node: int) -> None:
        """A reply arrived from ``node``: close its breaker."""
        with self._lock:
            peer = self._peers.get(node)
            if peer is None:
                return
            if peer.opened_at:
                self.stats["circuit_closes"] += 1
            peer.failures = 0
            peer.opened_at = 0.0
            peer.probe_at = 0.0

    def open_peers(self) -> set:
        """Peers whose breaker is currently open (tests/diagnostics)."""
        with self._lock:
            return {node for node, peer in self._peers.items()
                    if peer.opened_at}
