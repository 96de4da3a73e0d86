"""The live request lifecycle, with no I/O (docs/CHAOS.md): replies a
node remembers (:class:`Dedup`), re-sends it makes (:class:`Pending`),
peers it stops sending to (:class:`PeerCircuits`).  Time comes in as
``now``, randomness as a jitter draw, the failure detector's opinion as
a suspected set."""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import AmberError, NodeFailure
from repro.recovery.config import reply_timeout_s

#: Receive-side at-most-once window: how many of an origin's most recent
#: requests have their reply remembered (and re-sent to a duplicate).
DEDUP_CAPACITY = 8192

#: A kernel numbers its requests ``base, base + 1, base + 2, ...`` from a
#: base of this many random bits, drawn when it starts.  Consecutive ids
#: are what lets :class:`Dedup` keep an origin's replies in a ring
#: (slot = id mod capacity); the random base is what keeps a restarted
#: node's ids clear of its predecessor's, whose replies the survivors
#: still cache.  62 bits: ids stay machine integers in a pickle.
REQUEST_ID_BASE_BITS = 62

#: Retransmission-timeout bounds for one request, seconds.  The base
#: scales with the reply deadline so a tightened REPRO_PEER_TIMEOUT_S
#: tightens the whole ladder.
RTO_MIN_S = 0.05
RTO_MAX_S = 2.0
RTO_CAP_FACTOR = 4.0

#: Consecutive send failures that trip a closed breaker.
FAILURE_THRESHOLD = 3
#: Seconds an open breaker fails fast before allowing a half-open probe.
COOLDOWN_S = 1.0

#: :meth:`PeerCircuits.check` verdicts.
CLOSED = "closed"
OPEN = "open"
PROBE = "probe"

#: What a request is held by before its first transmission.
_NOWHERE: Set[int] = set()


class Dedup:
    """Receive-side at-most-once table: ``(origin, request_id)`` ->
    executing, or the cached :class:`~repro.runtime.messages.ResultMsg`.
    The reply cache is one fixed ring per origin, indexed by request id
    (an origin's ids are consecutive, see :data:`REQUEST_ID_BASE_BITS`):
    slot ``id mod capacity`` holds the id it was last filled for and
    that request's reply, a hit only when the id matches.  A ring so
    remembers the replies to its origin's last ``capacity`` requests, a
    newer one overwriting the one ``capacity`` before it, and allocates
    nothing once it exists.  A request still executing is never evicted
    (its re-sent twin would run a second time): it leaves by
    completing."""

    def __init__(self, capacity: int = DEDUP_CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._executing: set = set()
        #: origin -> (request id per slot, cached reply per slot).
        self._rings: Dict[Any, Tuple[List[Optional[int]], List[Any]]] = {}
        self._cached = 0

    def claim(self, key, take: bool = True) -> Tuple[str, Any]:
        """Atomically claim ``key`` for execution.  Returns one of
        ``("new", None)`` (execute it), ``("in_progress", None)`` (a
        twin is executing; drop this copy — its reply is coming), or
        ``("replay", cached_result)`` (already executed; re-send the
        cached reply).  Without ``take`` it only looks: ``("absent",
        None)`` in place of ``("new", None)``."""
        origin, request_id = key
        with self._lock:
            ring = self._rings.get(origin)
            if ring is not None:
                slot = request_id % self.capacity
                if ring[0][slot] == request_id:
                    return "replay", ring[1][slot]
            if key in self._executing:
                return "in_progress", None
            if not take:
                return "absent", None
            self._executing.add(key)
            return "new", None

    def complete(self, key, result: Any) -> None:
        origin, request_id = key
        with self._lock:
            self._executing.discard(key)
            ring = self._rings.get(origin)
            if ring is None:
                ring = self._rings[origin] = ([None] * self.capacity,
                                              [None] * self.capacity)
            ids, replies = ring
            slot = request_id % self.capacity
            if ids[slot] is None:
                self._cached += 1
            ids[slot] = request_id
            replies[slot] = result

    def __len__(self) -> int:
        with self._lock:
            return len(self._executing) + self._cached


class Pending:
    """One outstanding request, joined or not: where its outcome ``(ok,
    value, error)`` goes (:meth:`deliver`: into the slot a joiner reads
    by :meth:`wait`, or to the continuation ``on_reply``), where it is
    sent — ``node``, or with a ``vaddr`` the next hop toward the object
    (this node while it is resident here) — and its place on the
    resend ladder: re-sent at ``resend_at``, ``rto_s`` later each time,
    until ``give_up_at``.  The reply ceiling comes from
    REPRO_PEER_TIMEOUT_S (repro.recovery.config), read per request."""

    __slots__ = ("on_reply", "outcome", "waiter", "joined", "message",
                 "node", "vaddr", "last_target", "held", "reply_s",
                 "rto_base_s", "rto_s", "resend_at", "give_up_at")

    def __init__(self, message: Any, node: Optional[int],
                 vaddr: Optional[int],
                 on_reply: Optional[Callable[[Tuple], None]], now: float):
        self.on_reply = on_reply
        #: The slot: the outcome, once delivered to a joinable entry.
        self.outcome: Optional[Tuple] = None
        #: The lock a joiner parked on, held until the outcome comes.
        self.waiter: Any = None
        self.joined = False
        self.message = message
        self.node = node
        self.vaddr = vaddr
        self.last_target: Optional[int] = None
        #: The kernel's set of requests unanswered by the peer this one
        #: was last sent to, while it counts as unanswered there.
        self.held: Set[int] = _NOWHERE
        self.reply_s = reply_timeout_s()
        self.rto_base_s = self.rto_s = max(
            RTO_MIN_S, min(RTO_MAX_S, self.reply_s / 24.0))
        self.resend_at = now + self.rto_s
        self.give_up_at = now + self.reply_s

    def deliver(self, outcome: Tuple) -> None:
        """Hand over the outcome (the kernel delivers one per entry): to
        the continuation, or into the slot, waking a parked joiner.  The
        slot is written before the waiter is read, and :meth:`wait`
        publishes its waiter before it reads the slot again, so one of
        the two sees the other."""
        if self.on_reply is not None:
            self.on_reply(outcome)
            return
        self.outcome = outcome
        waiter = self.waiter
        if waiter is not None:
            waiter.release()

    def wait(self, timeout_s: float) -> Optional[Tuple]:
        """The outcome, at once if it is in the slot; else after parking
        at most ``timeout_s`` on a lock of the joiner's own.  None: no
        outcome came within it."""
        if self.outcome is None:
            waiter = threading.Lock()
            waiter.acquire()
            self.waiter = waiter
            if self.outcome is None and \
                    not waiter.acquire(timeout=timeout_s):
                return None
        return self.outcome

    def join(self, now: float, timeout: Optional[float] = None) -> float:
        """The one join: returns its deadline, seconds, and moves
        ``give_up_at`` on to it, so the ladder resumes if it had
        stopped."""
        if self.joined:
            raise AmberError(
                f"request {self.message.request_id} was already joined")
        self.joined = True
        deadline_s = max(0.0, self.reply_s if timeout is None else timeout)
        self.give_up_at = max(self.give_up_at, now + deadline_s)
        return deadline_s

    def take_due(self, now: float) -> bool:
        """Whether it is due a re-send — or, past ``give_up_at`` with
        nobody to join it, its verdict (a slot waits for a join instead).
        A due request is off the ladder until :meth:`backoff`."""
        if self.resend_at <= now and (now < self.give_up_at
                                      or self.on_reply is not None):
            self.resend_at = math.inf
            return True
        return False

    def expired(self, now: float) -> bool:
        """A continuation's deadline has passed: it is due its verdict,
        not another re-send."""
        return self.on_reply is not None and now >= self.give_up_at

    def backoff(self, now: float, jitter: float) -> None:
        """Back on the ladder after a re-send: the timeout doubles up to
        its cap, then grows by up to a quarter (``jitter`` in [0, 1))."""
        self.rto_s = min(self.rto_s * 2.0, self.rto_base_s * RTO_CAP_FACTOR) \
            * (1.0 + 0.25 * jitter)
        self.resend_at = now + self.rto_s


class _Peer:
    __slots__ = ("failures", "opened_at", "probe_at")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at = 0.0      # 0.0 = not open
        self.probe_at = 0.0       # 0.0 = no probe in flight


class PeerCircuits:
    """One node's circuit breakers, one per peer, so a caller does not
    burn a whole resend ladder against a peer known to be down.
    ``closed``: ``FAILURE_THRESHOLD`` consecutive failures, or a
    failure-detector suspicion, open it.  ``open``: sends fail fast with
    :class:`~repro.errors.NodeFailure` (or go to the object's home node)
    for ``COOLDOWN_S``; then one half-open *probe* goes through.  A
    failure re-opens it; any reply from the peer closes it.  A suspected
    peer stays open whatever its history, and a retracted suspicion
    lets a probe through at once."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._peers: Dict[int, _Peer] = {}
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = dict.fromkeys((
            "circuit_opens", "circuit_probes", "circuit_closes",
            "circuit_fast_fails", "circuit_reroutes"), 0)

    def check(self, node: int, suspected: bool, now: float) -> str:
        """The verdict for sending to ``node``: ``closed``, ``open``
        (fail fast / reroute), or ``probe`` (the one half-open attempt;
        its reply or failure settles the breaker).  A send that
        :meth:`lets_through` passes never needs to ask."""
        with self._lock:
            peer = self._peers.setdefault(node, _Peer())
            if suspected and not peer.opened_at:
                peer.opened_at = now
                peer.probe_at = 0.0
                self.stats["circuit_opens"] += 1
            if not peer.opened_at:
                return CLOSED
            if suspected:
                # Probes are pointless while the detector suspects the
                # peer; the cooldown counts as served once it stops.
                peer.probe_at = 0.0
                peer.opened_at = min(peer.opened_at, now - COOLDOWN_S)
                return OPEN
            if peer.probe_at:
                # One probe is in flight; if its outcome never comes
                # (the prober died), free the slot after a while.
                if now - peer.probe_at < 3.0 * COOLDOWN_S:
                    return OPEN
            elif now - peer.opened_at < COOLDOWN_S:
                return OPEN
            peer.probe_at = now
            self.stats["circuit_probes"] += 1
            return PROBE

    def lets_through(self, node: int, suspected: Set[int]) -> bool:
        """Whether a send to ``node`` goes straight there: not suspected,
        breaker closed.  No lock; anything else is :meth:`route`'s."""
        if node in suspected:
            return False
        peer = self._peers.get(node)
        return peer is None or not peer.opened_at

    def route(self, target: int, suspected: Set[int], now: float,
              home: Optional[Callable[[], int]] = None) -> int:
        """Where a transmission meant for peer ``target`` goes: there,
        unless its breaker is open; then to ``home()``, the home node of
        the object it is about (if any), when that is another peer whose
        breaker is not; else nowhere — :class:`NodeFailure`, at once."""
        if self.check(target, target in suspected, now) != OPEN:
            return target
        if home is not None:
            home = home()
            if home not in (target, self.node_id) and \
                    self.check(home, home in suspected, now) != OPEN:
                self.stats["circuit_reroutes"] += 1
                return home
        self.stats["circuit_fast_fails"] += 1
        raise NodeFailure(
            f"node {self.node_id}: node {target} is unavailable (circuit "
            f"open{', suspected dead' if target in suspected else ''})")

    def record_failure(self, node: int, now: float) -> None:
        """A send to (or reply wait on) ``node`` failed."""
        with self._lock:
            peer = self._peers.setdefault(node, _Peer())
            peer.failures += 1
            if peer.opened_at or peer.failures >= FAILURE_THRESHOLD:
                if not peer.opened_at:
                    self.stats["circuit_opens"] += 1
                # A failed probe re-opens and restarts the cooldown.
                peer.opened_at = now
                peer.probe_at = 0.0

    def record_success(self, node: int) -> None:
        """A reply came from ``node``, whatever its outcome: close its
        breaker.  No lock while it is closed."""
        peer = self._peers.get(node)
        if peer is None:
            return
        if not peer.opened_at:
            # Racing a failure only orders the two: either may land last.
            peer.failures = 0
            return
        with self._lock:
            if peer.opened_at:
                self.stats["circuit_closes"] += 1
            peer.failures = 0
            peer.opened_at = peer.probe_at = 0.0

    def deadline_verdict(self, entry: Pending, deadline_s: float,
                         suspected: Set[int], now: float) -> Exception:
        """The typed verdict of a request with no reply within
        ``deadline_s``: a breaker failure for the peer it was last sent
        to, and NodeFailure when the failure detector suspects that
        peer, TimeoutError otherwise."""
        target, kind = entry.last_target, type(entry.message).__name__
        if target is not None and target != self.node_id:
            self.record_failure(target, now)
            if target in suspected:
                return NodeFailure(
                    f"node {self.node_id}: no reply to {kind} from node "
                    f"{target} within {deadline_s:.1f}s and the failure "
                    f"detector suspects it dead")
        return TimeoutError(f"node {self.node_id}: no reply to {kind} "
                            f"within {deadline_s:.1f}s")
