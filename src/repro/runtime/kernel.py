"""The per-node kernel of the live runtime.

Each OS process runs exactly one :class:`NodeKernel`.  It owns the node's
slice of the global object space: the object table, the descriptor table
(resident / forwarding / uninitialized — reusing the core model), the
attachment graph for resident groups, and a heap fed by region grants
from the coordinator (the address-space server of section 3.1).

Invocation is function shipping: a non-resident target sends the
activation to the believed holder, chasing forwarding chains hop by hop
with home-node fallback; the node that finally executes sends
:class:`LocationHint` messages back along the chase path (path caching)
— but for the last forwarder, which sent the request straight there, and
the origin, which reads the location off the reply's sender.
Every executing invocation holds a *bind count* on its object; ``move``
drains the group's bind counts before shipping state (see the package
docstring for why this stands in for §3.5's bound-thread migration).
"""

from __future__ import annotations

import itertools
import logging
import math
import queue
import random
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.address_space import NodeHeap, RegionMap
from repro.core.attachment import AttachmentGraph
from repro.core.descriptor import DescriptorTable
from repro.errors import (
    AmberError,
    AttachmentError,
    FrameSizeError,
    ImmutabilityError,
    MobilityError,
    NodeFailure,
    ObjectNotFoundError,
    RemoteInvocationError,
    RuntimeTransportError,
)
from repro.recovery.config import reply_timeout_s
from repro.runtime import messages as m
from repro.runtime.circuit import OPEN, PeerCircuits
from repro.runtime.handles import Handle, ThreadHandle
from repro.runtime.objects import AmberObject, set_process_kernel
from repro.runtime.transport import Mesh

#: Forwarding-chase guard (generous: chains are short, but a move's
#: install window can bounce a request a few times).
MAX_TRACE = 256

#: Seconds a move waits for active invocations of the group to drain.
MOVE_DRAIN_TIMEOUT = 30.0

#: Receive-side at-most-once window: how many of an origin's most recent
#: requests have their reply remembered (and re-sent to a duplicate).
DEDUP_CAPACITY = 8192

#: A kernel numbers its requests ``base, base + 1, base + 2, ...`` from a
#: base of this many random bits, drawn when it starts.  Consecutive ids
#: are what lets :class:`_Dedup` keep an origin's replies in a ring
#: (slot = id mod capacity); the random base is what keeps a restarted
#: node's ids clear of its predecessor's, whose replies the survivors
#: still cache.  62 bits: ids stay machine integers in a pickle.
REQUEST_ID_BASE_BITS = 62

#: Retransmission-timeout bounds for one hardened request, seconds.
#: The base scales with the reply deadline so a tightened
#: REPRO_PEER_TIMEOUT_S tightens the whole ladder.
RTO_MIN_S = 0.05
RTO_MAX_S = 2.0
RTO_CAP_FACTOR = 4.0

#: Period of worker retirement, seconds: a worker nothing needed for
#: one whole period retires at its end (see :class:`_WorkerPool`).
WORKER_IDLE_S = 1.0

log = logging.getLogger(__name__)


#: What a request is held by before its first transmission.
_NOWHERE: Set[int] = set()


class _Pending:
    """One outstanding request, joined or not: where its outcome ``(ok,
    value, error)`` goes (``deliver``: into the reply box a joiner
    reads, or to the continuation ``on_reply``, run by the thread that
    learns the outcome), everything needed to re-send it
    (lost-request/lost-reply recovery), and its place on the ladder.

    The reply ceiling is read from REPRO_PEER_TIMEOUT_S (default 30 s ->
    120 s; see repro.recovery.config) once, here: every request is
    guaranteed an answer, so exhausting it indicates a lost peer, and
    tests and chaos scenarios tighten the knob between requests."""

    __slots__ = ("box", "deliver", "joined", "message", "route",
                 "last_target", "held", "reply_s", "rto_base_s", "rto_s",
                 "resend_at", "give_up_at")

    def __init__(self, message: Any, route: Callable[[], int],
                 on_reply: Optional[Callable[[Tuple], None]] = None):
        #: None: nobody joins this request, it has a continuation.
        self.box = None if on_reply else queue.SimpleQueue()
        self.deliver = on_reply or self.box.put
        self.joined = False
        self.message = message
        self.route = route
        self.last_target: Optional[int] = None
        #: The ``_unanswered`` set of the peer this request was last
        #: sent to, while it counts as unanswered there.
        self.held: Set[int] = _NOWHERE
        self.reply_s = reply_timeout_s()
        self.rto_base_s = max(RTO_MIN_S,
                              min(RTO_MAX_S, self.reply_s / 24.0))
        #: The ladder: retransmit at ``resend_at`` (``rto_s`` later each
        #: time) while unanswered, until ``give_up_at``.
        now = time.monotonic()
        self.rto_s = self.rto_base_s
        self.resend_at = now + self.rto_s
        self.give_up_at = now + self.reply_s


class _Flush(tuple):
    """The peers whose outboxes a pool worker is asked to write."""


class _Claimed(tuple):
    """``(message, body, obj)``: a request a mesh reader claimed and then
    found it must wait for (a move that has to drain); a pool worker
    takes it from there."""


class _MustWait(Exception):
    """Going on would mean waiting, which a mesh reader never does."""


#: What a body returns when a continuation will send the reply.
_LATER = object()


class _Dedup:
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

    def _replay(self, key) -> Any:
        origin, request_id = key
        ring = self._rings.get(origin)
        if ring is not None:
            ids, replies = ring
            slot = request_id % self.capacity
            if ids[slot] == request_id:
                return replies[slot]
        return None

    def claim(self, key, take: bool = True) -> Tuple[str, Any]:
        """Atomically claim ``key`` for execution.  Returns one of
        ``("new", None)`` (execute it), ``("in_progress", None)`` (a
        twin is executing; drop this copy — its reply is coming), or
        ``("replay", cached_result)`` (already executed; re-send the
        cached reply).  Without ``take`` it only looks: ``("absent",
        None)`` in place of ``("new", None)``."""
        with self._lock:
            cached = self._replay(key)
            if cached is not None:
                return "replay", cached
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


class _WorkerPool:
    """The kernel's elastic worker threads: handlers may block (move
    drains, nested requests, the bounce sleep in ``_forward``, live
    ``Lock``/``CondVar`` waits), so a message must never wait behind a
    running one.  Invariant: :meth:`submit` hands the message to a
    worker that is parked idle — claimed under the lock, so the queue
    never holds more messages than there are claimed workers — and
    otherwise starts a new thread.  The pool is therefore unbounded.
    (Claims are not addressed: a worker that finishes while messages
    wait takes one without sleeping, and the worker woken for it parks
    again.)  :meth:`retire_spare`, called once per
    :data:`WORKER_IDLE_S`, retires the workers nothing claimed since
    the call before."""

    _RETIRE = object()

    def __init__(self, run: Callable[[Any], None], name: str,
                 stats: Dict[str, int]):
        self._run = run
        self._name = name
        self._stats = stats
        self._lock = threading.Lock()
        #: Parked workers no submit has claimed yet, and the fewest
        #: there have been since the last retire_spare.
        self._idle = 0
        self._spare = 0
        self._closed = False
        self._handoff: "queue.SimpleQueue" = queue.SimpleQueue()

    def submit(self, message: Any) -> None:
        with self._lock:
            reuse = self._idle > 0
            if reuse:
                self._idle -= 1
                self._stats["worker_handoffs"] += 1
            else:
                self._stats["workers_started"] += 1
            if self._idle < self._spare:
                self._spare = self._idle
        if reuse:
            self._handoff.put(message)
        else:
            threading.Thread(target=self._work, args=(message,),
                             name=self._name, daemon=True).start()

    def retire_spare(self) -> None:
        with self._lock:
            spare = self._spare
            self._idle -= spare
            self._spare = self._idle
        for _ in range(spare):
            self._handoff.put(self._RETIRE)

    def close(self) -> None:
        """Retire every parked worker now, and the running ones as they
        finish."""
        with self._lock:
            self._closed = True
            self._spare = self._idle
        self.retire_spare()

    def _work(self, message: Any) -> None:
        while message is not self._RETIRE:
            self._run(message)
            with self._lock:
                if self._closed:
                    return
                self._idle += 1
            # No timeout: with several consumers CPython's
            # SimpleQueue.get can outstay one.
            message = self._handoff.get()


class NodeKernel:
    def __init__(self, node_id: int, coordinator_client, chaos=None):
        self.node_id = node_id
        self._coord = coordinator_client
        self.chaos = None
        if chaos is not None:
            from repro.faults.live import LiveFaultInjector
            self.chaos = LiveFaultInjector(chaos, node_id)
        self.mesh = Mesh(node_id, self._on_message, chaos=self.chaos)
        # What a mesh reader could not write without waiting.
        self.mesh.on_unwritten = \
            lambda node: self._workers.submit(_Flush((node,)))
        #: Idents of the mesh's reader threads: what would make one wait
        #: looks its own up here first.
        self._readers = self.mesh.reader_ids
        self._circuits = PeerCircuits()
        self._dedup = _Dedup()
        self._state = threading.RLock()
        self._drained = threading.Condition(self._state)
        self._objects: Dict[int, AmberObject] = {}
        self._descriptors = DescriptorTable(node_id)
        self._attachments = AttachmentGraph()
        self._bind: Dict[int, int] = {}
        self._regions = RegionMap()
        self._heap = NodeHeap(node_id, coordinator_client,
                              on_grant=self._regions.add)
        #: Every request without an outcome yet, joined or not; the
        #: resender thread walks it (a dropped fork frame must not wait
        #: for a join).
        self._pending: Dict[int, _Pending] = {}
        #: Per peer, the requests sent there and not answered yet: a
        #: peer with none is idle as far as this node knows.
        self._unanswered: Dict[int, Set[int]] = {}
        #: Peers a frame was posted for and no flush has been started
        #: since (:meth:`_flush` takes a peer out before it writes, so
        #: a mark set after a post is never lost).
        self._posted: Set[int] = set()
        self._resender_stop = threading.Event()
        self._request_ids = itertools.count(
            random.SystemRandom().getrandbits(REQUEST_ID_BASE_BITS))
        #: Jitter source for the resend ladder (seeded per node so test
        #: runs are reproducible).
        self._rng = random.Random(node_id ^ 0x5EED)
        self.stats: Dict[str, int] = dict.fromkeys((
            "local_invocations", "remote_invocations",
            "invocations_executed", "forwards", "moves_in", "moves_out",
            "replicas_installed", "hints",
            # Request-lifecycle hardening (docs/CHAOS.md).
            "resends", "dedup_in_flight", "dedup_replayed",
            "circuit_fast_fails", "circuit_reroutes",
            # Worker pool: threads created, messages given to a parked one.
            "workers_started", "worker_handoffs"), 0)
        self._workers = _WorkerPool(self._dispatch,
                                    f"amber-worker-{node_id}", self.stats)
        set_process_kernel(self)
        threading.Thread(target=self._resend_loop, daemon=True,
                         name=f"amber-resender-{node_id}").start()

    # -- Public API (used by Cluster and by code inside operations) ----

    def create(self, cls: type, args: Tuple, kwargs: dict,
               node: Optional[int] = None) -> Handle:
        """Create an object (locally, or on ``node``)."""
        if node is None or node == self.node_id:
            return Handle(self._create_local(cls, args, kwargs))
        return Handle(self._request(self._fixed_router(node), m.CreateMsg,
                                    cls, args, kwargs))

    def invoke(self, vaddr: int, method: str, args: Tuple,
               kwargs: dict) -> Any:
        """Invoke ``method`` on the object at ``vaddr`` (synchronously,
        wherever it lives)."""
        obj = self._resident_object(vaddr)
        if obj is not None:
            self.stats["local_invocations"] += 1
            return self._execute(obj, method, args, kwargs)
        self.stats["remote_invocations"] += 1
        return self._request(self._router(vaddr), m.InvokeMsg, vaddr,
                             method, args, kwargs, (self.node_id,))

    def fork(self, vaddr: int, method: str, args: Tuple,
             kwargs: dict) -> ThreadHandle:
        """Start an Amber thread running ``method`` on the object; it
        executes at the object's node."""
        entry = self._start(self._router(vaddr, here=True), m.InvokeMsg,
                            vaddr, method, args, kwargs,
                            (self.node_id,), post=True)
        return ThreadHandle(self, entry, f"{method}@{vaddr:#x}")

    def move(self, vaddr: int, dest: int) -> None:
        """MoveTo: relocate the object (and its attachment group)."""
        self._request(self._router(vaddr, here=True), m.MoveMsg, vaddr, dest)

    def locate(self, vaddr: int) -> int:
        """Locate: the node where the object currently resides."""
        if self._resident_object(vaddr) is not None:
            return self.node_id
        return self._request(self._router(vaddr), m.LocateMsg, vaddr,
                             (self.node_id,))

    def control(self, vaddr: int, op: str, extra: Any = None) -> Any:
        """Routed kernel operation on an object: ``set_immutable``,
        ``attach``, ``unattach``, ``delete``."""
        return self._request(self._router(vaddr, here=True), m.ControlMsg,
                             vaddr, op, extra)

    def node_stats(self, node: int) -> Dict[str, int]:
        if node == self.node_id:
            return self._stats_snapshot()
        return self._request(self._fixed_router(node), m.ControlMsg, -1,
                             "stats")

    def _stats_snapshot(self) -> Dict[str, int]:
        """Kernel counters plus the mesh's (as ``transport_*`` keys),
        the circuit breakers', and the chaos layer's."""
        snapshot = dict(self.stats)
        for key, value in self.mesh.stats.items():
            snapshot[f"transport_{key}"] = value
        snapshot.update(self._circuits.stats)
        if self.chaos is not None:
            snapshot.update(self.chaos.stats)
        return snapshot

    def wait_reply(self, entry: _Pending,
                   timeout: Optional[float] = None) -> Any:
        """Wait (once) for the reply to a started request.  The caller
        is guaranteed a typed outcome within the deadline: the reply,
        the remote error, :class:`NodeFailure` (peer suspected dead /
        circuit open), or :class:`TimeoutError`."""
        if entry.joined:
            raise AmberError(
                f"request {entry.message.request_id} was already joined")
        entry.joined = True
        deadline_s = max(0.0, entry.reply_s if timeout is None else timeout)
        # The waiter only waits; the resender thread owns the ladder and
        # keeps (or resumes) re-sending for as long as someone waits.
        entry.give_up_at = max(entry.give_up_at,
                               time.monotonic() + deadline_s)
        if self._posted:
            # What this thread is about to wait for may still sit in an
            # outbox (its own fork, or the one the target waits on).
            self._flush(list(self._posted))
        try:
            ok, value, error = entry.box.get(timeout=deadline_s)
        except queue.Empty:
            self._forget(entry)     # a late reply finds no entry
            raise self._deadline_error(entry, deadline_s) from None
        if ok:
            self._circuits.record_success(entry.last_target)
            return value
        raise error

    def shutdown(self) -> None:
        self._resender_stop.set()
        self._workers.close()
        self.mesh.close()

    # -- Request plumbing: start, re-send with backoff, bounded wait ---

    def _start(self, route: Callable[[], int], kind: type, *fields: Any,
               post: bool = False,
               on_reply: Optional[Callable[[Tuple], None]] = None
               ) -> _Pending:
        """Send the request ``kind(request_id, this node, *fields)`` and
        return its entry for :meth:`wait_reply`.  ``route()`` names the
        current target node and is re-evaluated on every (re)send, so a
        re-send follows fresh location hints and circuit reroutes.
        ``post``: nobody waits on this request yet (a ``fork``), so its
        frame need not be written by the time this returns.
        ``on_reply``: nobody joins it; reply, verdict or deadline goes
        to this continuation.  Raises, leaving nothing behind, when the
        request was never accepted for transmission: a typed routing
        verdict (``NodeFailure`` from an open circuit,
        ``ObjectNotFoundError``), an encode error, an unknown peer."""
        request_id = next(self._request_ids)
        entry = _Pending(kind(request_id, self.node_id, *fields), route,
                         on_reply)
        self._pending[request_id] = entry
        try:
            self._send_request(entry, post)
        except BaseException:
            self._forget(entry)
            raise
        return entry

    def _request(self, route: Callable[[], int], kind: type,
                 *fields: Any) -> Any:
        return self.wait_reply(self._start(route, kind, *fields))

    def _send_request(self, entry: _Pending, post: bool = False) -> None:
        """One transmission of a pending request; routing and circuit
        decisions happen here.  What raises is definitive: the frame
        was not accepted.  A write that fails afterwards is the
        breaker's and the resend ladder's business (:meth:`_flush`).
        A frame that may be posted is written now when its target is
        idle as far as this node knows — it holds no unanswered request
        of ours, so nothing else would carry the frame there — and only
        joins the target's outbox when it is not: the frame then leaves
        with the next write to that peer (any send; a ``wait_reply``;
        the outbox reaching its byte bound) or, should none come first,
        by the pool worker woken for the first frame into an empty
        outbox."""
        target = entry.route()
        unanswered = self._unanswered.get(target)
        if unanswered is None:
            unanswered = self._unanswered.setdefault(target, set())
        busy = bool(unanswered)
        if entry.held is not unanswered:
            # The first transmission, or a re-send that is re-routed.
            request_id = entry.message.request_id
            entry.held.discard(request_id)
            entry.held = unanswered
            unanswered.add(request_id)
            if request_id not in self._pending:
                # Answered while it was being re-routed: the reply
                # cleared the set it was held in then, not this one.
                unanswered.discard(request_id)
                return
        entry.last_target = target
        first = self.mesh.post(target, entry.message)
        if post and busy:
            self._posted.add(target)
            if first:
                self._workers.submit(_Flush((target,)))
        elif target != self.node_id:
            try:
                self.mesh.flush(target)
            except (RuntimeTransportError, OSError):
                self._circuits.record_failure(target)

    def _flush(self, nodes) -> None:
        """Write what is queued for ``nodes``.  The frames are on their
        senders' resend ladders (or are replies, replayed on demand), so
        a batch that cannot be delivered is only the breaker's
        business."""
        for node in nodes:
            self._posted.discard(node)
            try:
                self.mesh.flush(node)
            except (RuntimeTransportError, OSError):
                self._circuits.record_failure(node)

    def _resend_loop(self) -> None:
        """The one resend ladder: retransmit every request that is due
        and unanswered, joined or not, until it is answered, fails
        typed, or passes ``give_up_at`` (a later ``wait_reply`` moves
        that on, and the ladder resumes).  The node's one periodic
        thread, so it also ticks the worker pool's retirement."""
        retire_at = time.monotonic() + WORKER_IDLE_S
        while not self._resender_stop.wait(0.05):
            now = time.monotonic()
            if now >= retire_at:
                self._workers.retire_spare()
                retire_at = now + WORKER_IDLE_S
            for entry in list(self._pending.values()):
                # Past ``give_up_at`` a continuation is due its verdict;
                # a box waits for a join to move the deadline on.
                if entry.resend_at <= now and (
                        now < entry.give_up_at or entry.box is None):
                    # Sent from a pool worker: one re-send stuck
                    # redialling a dead peer must not delay another
                    # request's.  Not due again until that one is done.
                    entry.resend_at = math.inf
                    self._workers.submit(entry)

    def _resend(self, entry: _Pending) -> None:
        """One due retransmission (the request or its reply may be
        lost), or the deadline verdict of a request nobody joins.  The
        receive side's at-most-once dedup makes a re-send safe — an
        in-flight twin is dropped, a completed one gets its cached reply
        replayed."""
        if entry.box is None and time.monotonic() >= entry.give_up_at:
            return self._complete(entry, (
                False, None, self._deadline_error(entry, entry.reply_s)))
        self.stats["resends"] += 1
        try:
            self._send_request(entry)
        except Exception as error:
            # Definitive (typed NodeFailure / ObjectNotFoundError from
            # routing, a closing mesh, or unexpected): its verdict.
            self._complete(entry, (False, None, error))
        entry.rto_s = min(entry.rto_s * 2.0,
                          entry.rto_base_s * RTO_CAP_FACTOR) \
            * (1.0 + 0.25 * self._rng.random())
        entry.resend_at = time.monotonic() + entry.rto_s

    def _forget(self, entry: _Pending) -> bool:
        """Out of ``_pending`` (false: another thread took it), and no
        longer work its target holds for us."""
        request_id = entry.message.request_id
        entry.held.discard(request_id)
        return self._pending.pop(request_id, None) is not None

    def _complete(self, entry: _Pending, outcome: Tuple) -> None:
        """The one way a request gets its outcome ``(ok, value, error)``:
        of a reply, a verdict and a deadline that race, the one that
        takes the entry delivers."""
        if self._forget(entry):
            entry.deliver(outcome)

    def _deadline_error(self, entry: _Pending,
                        deadline_s: float) -> Exception:
        """The typed verdict for a request that exhausted its deadline:
        NodeFailure when the peer is known-bad, TimeoutError otherwise."""
        target = entry.last_target
        if target is not None and target != self.node_id:
            self._circuits.record_failure(target)
            if target in self._suspected_peers():
                return NodeFailure(
                    f"node {self.node_id}: no reply to "
                    f"{type(entry.message).__name__} from node {target} "
                    f"within {deadline_s:.1f}s and the failure detector "
                    f"suspects it dead")
        return TimeoutError(
            f"node {self.node_id}: no reply to "
            f"{type(entry.message).__name__} within {deadline_s:.1f}s")

    # -- routing + circuit breaking ------------------------------------

    def _suspected_peers(self) -> set:
        failed = getattr(self._coord, "failed_peers", None)
        if failed is None:
            return set()
        try:
            return failed()
        except Exception:      # pragma: no cover - defensive
            return set()

    def _router(self, vaddr: int, here: bool = False) -> Callable[[], int]:
        """Routes to the believed holder of ``vaddr`` — or, with
        ``here``, to this node while the object is resident."""
        def route() -> int:
            if here and self._resident_object(vaddr) is not None:
                return self.node_id
            return self._check_circuit(self._believed(vaddr), vaddr)
        return route

    def _fixed_router(self, node: int) -> Callable[[], int]:
        def route() -> int:
            return self._check_circuit(node, None)
        return route

    def _check_circuit(self, target: int,
                       vaddr: Optional[int]) -> int:
        """Fail fast (or reroute via the home node) instead of burning
        the full backoff ladder against a peer known to be down."""
        if target == self.node_id:
            return target
        suspected = self._suspected_peers()
        if self._circuits.check(target, target in suspected) != OPEN:
            return target
        if vaddr is not None:
            home = self._home_node(vaddr)
            if home not in (target, self.node_id) and \
                    self._circuits.check(home,
                                         home in suspected) != OPEN:
                self.stats["circuit_reroutes"] += 1
                return home
        self.stats["circuit_fast_fails"] += 1
        raise NodeFailure(
            f"node {self.node_id}: node {target} is unavailable "
            f"(circuit open{', suspected dead' if target in suspected else ''})")

    # -- at-most-once execution (receive side) -------------------------

    def _duplicate(self, message, claim: bool) -> bool:
        """The at-most-once gate, asked twice per request: a peek before
        any routing (``claim=False``) and the atomic claim at the point
        of execution.  True when this copy must not execute: it was
        answered from the reply cache, or dropped as the twin of one
        still executing (whose reply is coming)."""
        status, cached = self._dedup.claim(
            (message.reply_to, message.request_id), claim)
        if status in ("new", "absent"):
            return False
        if status == "replay":
            self.stats["dedup_replayed"] += 1
            self._send_quiet(message.reply_to, cached)
        else:
            self.stats["dedup_in_flight"] += 1
        return True

    def _send_quiet(self, node: int, message: Any) -> None:
        """Best-effort send (replayed replies, location hints): losing
        one is recovered by the sender's own resend ladder."""
        try:
            self.mesh.send(node, message)
        except Exception:
            pass

    def _answer(self, message, outcome: Tuple) -> None:
        """The one way a served request is answered: its outcome ``(ok,
        value, error)`` is cached, then posted to the origin.  Only an
        outcome that cannot be framed (it does not pickle, or its frame
        is over the size limit) is replaced by a
        :class:`RemoteInvocationError` stand-in, in the cache too.  A
        framed reply that cannot be delivered raises and stays cached as
        it is, for the origin's resend ladder to replay."""
        to, request_id = message.reply_to, message.request_id
        reply = m.ResultMsg(request_id, *outcome)
        # Cached first: a post the mesh refuses (unknown peer, closing)
        # must not leave the request executing for ever.
        self._dedup.complete((to, request_id), reply)
        try:
            self.mesh.post(to, reply)
        except FrameSizeError as failure:
            unframable = failure
        except (RuntimeTransportError, OSError):
            raise
        except Exception as failure:    # pickling refused the outcome
            unframable = failure
        else:
            if to != self.node_id:
                self.mesh.flush(to)
            return
        ok, _, error = outcome
        what = "result" if ok else f"{type(error).__name__}: {error}"
        # Said out loud: silently swapped exception types have burned
        # enough debugging hours already.
        log.warning("node %d: %s for request %d cannot be framed (%s: %s); "
                    "answering with a RemoteInvocationError stand-in",
                    self.node_id, what, request_id,
                    type(unframable).__name__, unframable)
        self._answer(message, (False, None, RemoteInvocationError(
            f"{what} could not be framed: {type(unframable).__name__}: "
            f"{unframable}", remote_traceback="" if ok else "".join(
                traceback.format_exception(type(error), error,
                                           error.__traceback__)))))

    # -- Routing helpers -----------------------------------------------

    def _resident_object(self, vaddr: int) -> Optional[AmberObject]:
        with self._state:
            if self._descriptors.is_resident(vaddr):
                return self._objects.get(vaddr)
        return None

    def _believed(self, vaddr: int) -> int:
        """Where to send a request for a non-resident object."""
        with self._state:
            descriptor = self._descriptors.lookup(vaddr)
        if descriptor is not None and not descriptor.resident:
            return descriptor.forward_to
        home = self._home_node(vaddr)
        if home == self.node_id:
            raise ObjectNotFoundError(
                f"object {vaddr:#x} unknown at its home node "
                f"{self.node_id}")
        return home

    def _home_node(self, vaddr: int) -> int:
        region = self._regions.lookup(vaddr)
        if region is None:
            if threading.get_ident() in self._readers:
                raise _MustWait()       # for the coordinator's answer
            region = self._coord.query_region(vaddr)
            if region is None:
                raise ObjectNotFoundError(
                    f"address {vaddr:#x} lies in no granted region")
            self._regions.add(region)
        return region.owner_node

    # -- Object management ---------------------------------------------

    def _create_local(self, cls: type, args: Tuple, kwargs: dict) -> int:
        obj = cls(*args, **kwargs)
        if not isinstance(obj, AmberObject):
            raise AmberError(
                f"{cls.__name__} does not derive from AmberObject")
        with self._state:
            vaddr = self._heap.allocate(64)
            obj._amber_vaddr = vaddr
            obj._amber_home = self.node_id
            self._objects[vaddr] = obj
            self._descriptors.set_resident(vaddr)
        return vaddr

    def _execute(self, obj: AmberObject, method: str, args: Tuple,
                 kwargs: dict) -> Any:
        fn = getattr(obj, method, None)
        if fn is None or not callable(fn):
            raise AmberError(
                f"{type(obj).__name__} has no operation {method!r}")
        vaddr = obj._amber_vaddr
        with self._state:
            self._bind[vaddr] = self._bind.get(vaddr, 0) + 1
        try:
            self.stats["invocations_executed"] += 1
            return fn(*args, **kwargs)
        finally:
            with self._state:
                self._bind[vaddr] -= 1
                if self._bind[vaddr] == 0:
                    del self._bind[vaddr]
                    self._drained.notify_all()

    # -- Message handling ----------------------------------------------

    def _on_message(self, peer: int, message: Any) -> None:
        """A mesh reader calls this and must get back to its socket: on
        it nothing runs user code, sleeps, waits on a condition or for
        a reply, or waits in a write (what would, looks in
        ``_readers``) — that goes to the pool, which never queues a
        message behind a running handler."""
        kind = type(message)
        if kind is m.ResultMsg:
            # _complete, in line.  A duplicate/replayed reply finds no
            # entry; request ids are never reused (a counter), so
            # mis-delivery cannot happen.
            entry = self._pending.pop(message.request_id, None)
            if entry is not None:
                entry.held.discard(message.request_id)
                if peer != entry.last_target \
                        and type(entry.message) in _LOCATING:
                    # Served by a node we did not send it to: there the
                    # object is (the origin's location hint).
                    self._hinted(entry.message.vaddr, peer)
                entry.deliver(message[1:])
        elif kind is m.LocationHint:
            self._hinted(*message)
        elif peer != self.node_id and not (
                kind is m.InvokeMsg and message.vaddr in self._objects):
            self._dispatch(message)  # the probe is advisory: _serve decides
        else:
            self._workers.submit(message)

    def _hinted(self, vaddr: int, node: int) -> None:
        with self._state:
            self._descriptors.update_hint(vaddr, node)
        self.stats["hints"] += 1

    def _dispatch(self, message: Any) -> None:
        kind = type(message)
        try:
            row = self._HANDLERS.get(kind)
            if row is not None:
                self._serve(message, *row)
            elif kind is _Claimed:
                self._finish(*message)
            elif kind is _Pending:
                self._resend(message)
            elif kind is _Flush:
                self._flush(message)
            # Anything else is dropped (forward compatibility).
        except _MustWait:
            # A reader's, not claimed yet: a worker starts it over.
            self._workers.submit(message)
        except (NodeFailure, RuntimeTransportError, OSError) as error:
            # Expected under chaos (peer gone mid-reply, mesh closing):
            # the requester's resend ladder / deadline (or the failure
            # detector) owns recovery.
            log.debug(
                "node %d: transport error dispatching %s: %s",
                self.node_id, type(message).__name__, error)
        except Exception as error:  # pragma: no cover - diagnostics
            # A handler bug on a worker thread must not kill the node
            # silently: every request path above replies to its caller
            # before raising, so whatever reaches here is unexpected.
            log.error(
                "node %d: unhandled %s while dispatching %s: %s",
                self.node_id, type(error).__name__,
                type(message).__name__, error)
            log.debug("dispatch traceback:\n%s", traceback.format_exc())

    def _serve(self, message, body: Callable, on_reader: bool) -> None:
        """The gate of every request: replay or drop a duplicate, forward
        it if the object it names is not here, claim it, refresh the
        chase path — then :meth:`_finish` runs it.  A mesh reader routes
        any request but runs a body only if it may (``on_reader``):
        :class:`_MustWait` leaves here only while nothing is claimed."""
        if self._duplicate(message, claim=False):
            return
        obj = None
        try:
            vaddr = message.vaddr
        except AttributeError:      # a create or an install names none
            vaddr = -1
        if vaddr != -1:             # a "stats" control names none either
            obj = self._resident_object(vaddr)
            if obj is None:
                self._forward(message)
                return
        if not on_reader and threading.get_ident() in self._readers:
            raise _MustWait()
        if self._duplicate(message, claim=True):
            return
        if type(message) in _LOCATING and len(message.trace) > 2:
            # Forwarded more than once: refresh the descriptors between
            # the origin and the last forwarder (an unreachable node
            # must not abort the request served).
            for node in message.trace[1:-1]:
                if node != self.node_id:
                    self._send_quiet(node, m.LocationHint(vaddr, self.node_id))
        self._finish(message, body, obj)

    def _finish(self, message, body: Callable, obj: Any) -> None:
        """The tail of a claimed request: run ``body(self, message,
        obj)`` and answer with its value or its exception."""
        try:
            value = body(self, message, obj)
        except _MustWait:
            # A reader's move: claimed, so it goes to the pool as that.
            self._workers.submit(_Claimed((message, body, obj)))
        except BaseException as error:
            # Even a SystemExit out of user code is the caller's answer:
            # swallowed here it would only end this worker, silently.
            self._answer(message, (False, None, error))
        else:
            if value is not _LATER:
                self._answer(message, (True, value, None))

    def _forward(self, message) -> None:
        """Forward a routed message one hop along the chain, or reply
        with a typed error when the chase is hopeless."""
        vaddr = message.vaddr
        trace = message.trace + (self.node_id,)
        try:
            if len(trace) > MAX_TRACE:
                raise ObjectNotFoundError(
                    f"object {vaddr:#x}: chase exceeded {MAX_TRACE} hops")
            target = self._believed(vaddr)
        except ObjectNotFoundError as error:
            self._answer(message, (False, None, error))
            return
        bounce = bool(message.trace) and target == message.trace[-1]
        if (bounce or not self.mesh.connected(target)) \
                and threading.get_ident() in self._readers:
            # A reader neither sleeps nor dials, and a forward that
            # fails must fail on a thread that can tell the origin.
            raise _MustWait()
        if bounce:
            # Immediate bounce: the object is probably mid-move; let the
            # install land before chasing again.
            time.sleep(0.005)
        self.stats["forwards"] += 1
        try:
            self.mesh.send(target, message._replace(trace=trace))
        except (RuntimeTransportError, OSError) as error:
            # The next hop is unreachable: tell the breaker and give the
            # origin a typed verdict instead of letting it time out.
            self._circuits.record_failure(target)
            self._answer(message, (False, None, NodeFailure(
                f"node {self.node_id}: forwarding "
                f"{type(message).__name__} for {vaddr:#x} to node "
                f"{target} failed: {error}")))

    def _invoke(self, message: m.InvokeMsg, obj: AmberObject) -> Any:
        value = self._execute(obj, message.method, message.args,
                              message.kwargs)
        if obj._amber_immutable and message.reply_to != self.node_id:
            # Read-only object invoked remotely: a replica, ahead of the
            # reply, makes the caller's next reads local (section 2.3).
            # Losing it only means the caller keeps invoking remotely.
            self._send_quiet(message.reply_to, m.InstallMsg(
                next(self._request_ids), self.node_id,
                {obj._amber_vaddr: obj}, (), replica=True))
        return value

    def _create(self, message: m.CreateMsg, _obj: None) -> int:
        return self._create_local(message.cls, message.args, message.kwargs)

    def _located(self, _message: m.LocateMsg, _obj: AmberObject) -> int:
        return self.node_id

    # -- moves and replication ------------------------------------------

    def _move_out(self, message: m.MoveMsg, obj: AmberObject) -> Any:
        """Ship the group (of an immutable, a replica) and return: the
        move's second half — counting it, answering the mover — is the
        continuation of the install, a hardened request of its own:
        re-sent on silence (the receiver's dedup makes a duplicate a
        cached-reply replay), typed failure on a dead destination."""
        dest = message.dest
        if dest == self.node_id:
            return None
        replica = obj._amber_immutable
        if replica:
            shipment, edges = {message.vaddr: obj}, ()
        else:
            shipment, edges = self._take_group(message.vaddr, dest)

        def installed(outcome: Tuple) -> None:
            # Not ok: transmitted, then failed or timed out.  The group
            # stays forwarded, the destination may hold it.
            if outcome[0]:
                self._circuits.record_success(dest)
                if not replica:
                    self.stats["moves_out"] += 1
            try:
                self._answer(message, outcome)
            except (RuntimeTransportError, OSError) as failure:
                # On a reader, perhaps.  The reply is cached: replayed.
                log.debug("node %d: reply to the mover: %s", self.node_id,
                          failure)

        try:
            self._start(self._fixed_router(dest), m.InstallMsg, shipment,
                        edges, replica, on_reply=installed)
        except BaseException:
            # Never transmitted, so the destination cannot hold it: a
            # refused move leaves the group where it was.
            self._adopt(shipment, edges, replica)
            raise
        return _LATER

    def _take_group(self, vaddr: int, dest: int) -> Tuple[dict, tuple]:
        """Drain the attachment group of ``vaddr``, take it out of this
        node and leave forwarding addresses to ``dest``."""
        deadline = time.monotonic() + MOVE_DRAIN_TIMEOUT
        with self._state:
            group = self._attachments.group(vaddr)
            # Wait for active invocations of every member to drain.
            while any(self._bind.get(member, 0) for member in group):
                if threading.get_ident() in self._readers:
                    raise _MustWait()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MobilityError(
                        f"move of {vaddr:#x}: active invocations did not "
                        f"drain within {MOVE_DRAIN_TIMEOUT}s")
                self._drained.wait(remaining)
            if any(member not in self._objects for member in group):
                raise MobilityError(
                    f"attachment group of {vaddr:#x} is not fully "
                    f"resident here")
            shipment = {member: self._objects.pop(member)
                        for member in group}
            edges = tuple((member, target) for member in group
                          for target in
                          self._attachments.attachments_of(member))
            for member in group:
                self._attachments.drop(member)
                self._descriptors.set_forwarding(member, dest)
        return shipment, edges

    def _adopt(self, objects: Dict[int, AmberObject], edges,
               replica: bool = False) -> None:
        """Make ``objects`` resident here, attached by ``edges``."""
        with self._state:
            for vaddr, obj in objects.items():
                if replica and self._descriptors.is_resident(vaddr):
                    continue   # already have a replica
                self._objects[vaddr] = obj
                self._descriptors.set_resident(vaddr)
            for source, target in edges:
                self._attachments.attach(source, target)

    def _install(self, message: m.InstallMsg, _obj: None) -> None:
        self._adopt(message.objects, message.attach_edges, message.replica)
        if message.replica:
            self.stats["replicas_installed"] += len(message.objects)
        else:
            self.stats["moves_in"] += len(message.objects)

    # -- control operations ---------------------------------------------

    def _control(self, message: m.ControlMsg,
                 obj: Optional[AmberObject]) -> Any:
        op = message.op
        if op == "stats":
            return self._stats_snapshot()
        vaddr = obj._amber_vaddr
        if op == "set_immutable":
            with self._state:
                if self._attachments.group(vaddr) != [vaddr]:
                    raise ImmutabilityError(
                        "detach objects before marking them immutable")
                obj._amber_immutable = True
            return None
        if op == "attach":
            other = message.extra
            with self._state:
                if not self._descriptors.is_resident(other):
                    raise AttachmentError(
                        "Attach requires co-located objects; "
                        f"{other:#x} is not resident here")
                if obj._amber_immutable or \
                        self._objects[other]._amber_immutable:
                    raise AttachmentError(
                        "immutable (replicated) objects cannot be attached")
                self._attachments.attach(vaddr, other)
            return None
        if op == "unattach":
            with self._state:
                self._attachments.unattach(vaddr)
            return None
        if op == "delete":
            with self._state:
                if self._bind.get(vaddr, 0):
                    raise MobilityError(
                        f"cannot delete {vaddr:#x} during an invocation")
                self._objects.pop(vaddr, None)
                self._descriptors.clear(vaddr)
                self._attachments.drop(vaddr)
            return None
        raise AmberError(f"unknown control op {op!r}")

    #: Each kind of request: its body, and whether a mesh reader may run
    #: it (user code never runs on a reader).
    _HANDLERS = {
        m.InvokeMsg: (_invoke, False),
        m.CreateMsg: (_create, False),
        m.MoveMsg: (_move_out, True),
        m.InstallMsg: (_install, True),
        m.LocateMsg: (_located, True),
        m.ControlMsg: (_control, True),
    }


#: The requests that leave location hints: their reply tells the origin
#: where the object is, their chase path is told by ``LocationHint``.
_LOCATING = frozenset((m.InvokeMsg, m.LocateMsg))
