"""The per-node kernel of the live runtime: threads, frames, the clock.

Each OS process runs one :class:`NodeKernel`.  Its
:class:`~repro.runtime.objtable.ObjectTable` holds the node's share of
the object space, :mod:`repro.runtime.lifecycle` decides each request's
fate at a ``now`` read here, and this module moves the frames; its
requests run on a :mod:`~repro.runtime.workers` pool, and their bodies
but ``invoke``'s are in :mod:`repro.runtime.bodies`.
Invocation is function shipping: a request for a non-resident object
chases the forwarding chain hop by hop (home-node fallback); the node
that executes it sends :class:`LocationHint` messages back along the
chase path — but to the last forwarder, which sent it there, and the
origin, which reads the reply's sender.  An executing invocation holds
a *bind count* on its object, which a ``move`` drains first (see the
package docstring for why this stands in for §3.5).
"""

from __future__ import annotations

import itertools
import logging
import random
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import (
    FrameSizeError,
    NodeFailure,
    ObjectNotFoundError,
    RemoteInvocationError,
    RuntimeTransportError,
)
from repro.runtime import bodies
from repro.runtime import messages as m
from repro.runtime.bodies import _LATER
from repro.runtime.handles import Handle, ThreadHandle
from repro.runtime.lifecycle import (
    REQUEST_ID_BASE_BITS,
    Dedup,
    Pending,
    PeerCircuits,
)
from repro.runtime.objects import current_thread, set_process_kernel
from repro.runtime.objtable import MustWait, ObjectTable
from repro.runtime.transport import Mesh
from repro.runtime.workers import WORKER_IDLE_S, _WorkerPool

#: Forwarding-chase guard against the cycles a crash can leave (a
#: move's source holds what would cycle while its install is out).
MAX_TRACE = 256

log = logging.getLogger(__name__)


class _Flush(tuple):
    """The peers whose outboxes a pool worker is asked to write."""


class _Claimed(tuple):
    """``(message, body, obj)``: a request a mesh reader claimed, then
    found it must wait for (a move that has to drain)."""


class NodeKernel:
    def __init__(self, node_id: int, coordinator_client, chaos=None):
        self.node_id = node_id
        #: The failure detector's suspects (none without a detector).
        self._suspected_peers = getattr(coordinator_client, "failed_peers",
                                        frozenset)
        self.chaos = None
        if chaos is not None:
            from repro.faults.live import LiveFaultInjector
            self.chaos = LiveFaultInjector(chaos, node_id)
        self.mesh = Mesh(node_id, self._on_message, chaos=self.chaos)
        # What a mesh reader could not write without waiting.
        self.mesh.on_unwritten = \
            lambda node: self._workers.submit(_Flush((node,)))
        self._circuits = PeerCircuits(node_id)
        self._dedup = Dedup()
        #: Every request without an outcome yet, joined or not: the
        #: resender walks it (a lost fork frame must not wait for a join).
        self._pending: Dict[int, Pending] = {}
        #: Per peer, the requests sent there and not answered yet: a
        #: peer with none is idle as far as this node knows.
        self._unanswered: Dict[int, Set[int]] = {}
        #: Peers a frame was posted for and no flush started since
        #: (:meth:`_flush` takes a peer out before it writes).
        self._posted: Set[int] = set()
        self._resender_stop = threading.Event()
        self.request_ids = itertools.count(
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
            # Worker pool: threads created, messages given to a parked one.
            "workers_started", "worker_handoffs"), 0)
        self.table = ObjectTable(node_id, coordinator_client, self.stats)
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
            return Handle(self.table.create(cls, args, kwargs))
        return Handle(self._request(node, None, m.CreateMsg, cls, args,
                                    kwargs))

    def invoke(self, vaddr: int, method: str, args: Tuple,
               kwargs: dict) -> Any:
        """Invoke ``method`` on the object at ``vaddr`` (synchronously,
        wherever it lives)."""
        obj = self.table.resident(vaddr)
        if obj is not None:
            self.stats["local_invocations"] += 1
            return self.table.execute(obj, method, args, kwargs)
        self.stats["remote_invocations"] += 1
        return self._request(None, vaddr, m.InvokeMsg, vaddr, method, args,
                             kwargs, (self.node_id,), current_thread())

    def fork(self, vaddr: int, method: str, args: Tuple,
             kwargs: dict) -> ThreadHandle:
        """Start an Amber thread running ``method`` on the object; it
        executes at the object's node."""
        entry = self.start(None, vaddr, m.InvokeMsg, vaddr, method, args,
                           kwargs, (self.node_id,), post=True)
        return ThreadHandle(self, entry, method, vaddr)

    def move(self, vaddr: int, dest: int) -> None:
        """MoveTo: relocate the object (and its attachment group).  The
        reply comes once the install landed: the mover now hints ``dest``."""
        self._request(None, vaddr, m.MoveMsg, vaddr, dest)
        self.table.hint(vaddr, dest)

    def locate(self, vaddr: int) -> int:
        """Locate: the node where the object currently resides."""
        if self.table.resident(vaddr) is not None:
            return self.node_id
        return self._request(None, vaddr, m.LocateMsg, vaddr,
                             (self.node_id,))

    def control(self, vaddr: int, op: str, extra: Any = None) -> Any:
        """Routed kernel operation on an object: ``set_immutable``,
        ``attach``, ``unattach``, ``delete``."""
        return self._request(None, vaddr, m.ControlMsg, vaddr, op, extra)

    def node_stats(self, node: int) -> Dict[str, int]:
        if node == self.node_id:
            return self.stats_snapshot()
        return self._request(node, None, m.ControlMsg, -1, "stats")

    def stats_snapshot(self) -> Dict[str, int]:
        """Kernel counters plus the mesh's (as ``transport_*`` keys),
        the circuit breakers', and the chaos layer's."""
        snapshot = dict(self.stats)
        for key, value in self.mesh.stats.items():
            snapshot[f"transport_{key}"] = value
        snapshot.update(self._circuits.stats)
        if self.chaos is not None:
            snapshot.update(self.chaos.stats)
        return snapshot

    def wait_reply(self, entry: Pending,
                   timeout: Optional[float] = None) -> Any:
        """Wait (once) for the reply to a started request: the reply,
        the remote error, :class:`NodeFailure` or :class:`TimeoutError`
        within the deadline.  The resender thread owns the ladder."""
        deadline_s = entry.join(time.monotonic(), timeout)
        if self._posted:
            # What this thread waits for may still sit in an outbox.
            self._flush(list(self._posted))
        outcome = entry.wait(deadline_s)
        if outcome is None:
            self._forget(entry)     # a late reply finds no entry
            raise self._deadline_verdict(entry, deadline_s)
        ok, value, error = outcome
        if ok:
            return value
        raise error

    def release(self, held) -> None:
        """Serve again, on pool workers, the requests a move from here
        held (:meth:`ObjectTable.take_group`) now it has its outcome."""
        for message in self.table.release(held):
            self._workers.submit(message)

    def shutdown(self) -> None:
        self._resender_stop.set()
        self._workers.close()
        self.mesh.close()

    # -- Request plumbing: start, re-send with backoff, bounded wait ---

    def start(self, node: Optional[int], vaddr: Optional[int],
              kind: type, *fields: Any, post: bool = False,
              on_reply: Optional[Callable[[Tuple], None]] = None
              ) -> Pending:
        """Send ``kind(request_id, this node, *fields)`` to ``node`` —
        or, with a ``vaddr``, as :class:`Pending` says — and return its
        entry for :meth:`wait_reply`.  Every (re)send routes afresh
        (:meth:`_route`).  ``post``: nobody waits on it yet (a ``fork``),
        so its frame need not be written by the time this returns.
        ``on_reply``: nobody joins it; its outcome goes to this
        continuation.  Raises, leaving nothing behind, when the request
        was never accepted for transmission (a routing verdict, an
        encode error, an unknown peer)."""
        request_id = next(self.request_ids)
        entry = Pending(kind(request_id, self.node_id, *fields), node,
                        vaddr, on_reply, time.monotonic())
        self._pending[request_id] = entry
        try:
            self._send_request(entry, post)
        except BaseException:
            self._forget(entry)
            raise
        return entry

    def _request(self, node, vaddr, kind, *fields) -> Any:
        return self.wait_reply(self.start(node, vaddr, kind, *fields))

    def _route(self, entry: Pending) -> int:
        """The target of the next transmission of ``entry``: this node,
        or a peer the breakers let through (:meth:`PeerCircuits.route`,
        asked only when one is not closed; its fast ``NodeFailure``
        leaves here)."""
        target, vaddr = entry.node, entry.vaddr
        if vaddr is not None:
            target = self.table.descriptors.next_hop(
                vaddr, self.table.home_node)
        if target == self.node_id:
            return target
        suspected = self._suspected_peers()
        if self._circuits.lets_through(target, suspected):
            return target
        return self._circuits.route(
            target, suspected, time.monotonic(),
            None if vaddr is None else lambda: self.table.home_node(vaddr))

    def _send_request(self, entry: Pending, post: bool = False) -> None:
        """One transmission of a pending request: what raises is
        definitive (the frame was not accepted); a write that fails
        later is the breaker's and the ladder's business.  A frame that
        may be posted is written now if its target holds no unanswered
        request of ours (nothing else would carry it there); else it
        joins the target's outbox and leaves with the next write to that
        peer or, failing one, by the worker woken for the outbox's first
        frame."""
        target = self._route(entry)
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
                self._circuits.record_failure(target, time.monotonic())

    def _flush(self, nodes) -> None:
        """Write what is queued for ``nodes``; a batch that cannot be
        delivered is the breaker's business (the ladders re-send it)."""
        for node in nodes:
            self._posted.discard(node)
            try:
                self.mesh.flush(node)
            except (RuntimeTransportError, OSError):
                self._circuits.record_failure(node, time.monotonic())

    def _resend_loop(self) -> None:
        """The one resend ladder, for every request, joined or not (see
        :meth:`Pending.take_due`).  The node's one periodic thread, so it
        also ticks the worker pool's retirement."""
        retire_at = time.monotonic() + WORKER_IDLE_S
        while not self._resender_stop.wait(0.05):
            now = time.monotonic()
            if now >= retire_at:
                self._workers.retire_spare()
                retire_at = now + WORKER_IDLE_S
            for entry in list(self._pending.values()):
                if entry.take_due(now):
                    # From a pool worker: a re-send stuck redialling a
                    # dead peer must not delay another request's.
                    self._workers.submit(entry)

    def _resend(self, entry: Pending) -> None:
        """One due retransmission — safe, the receiver's dedup drops or
        answers a twin — or the verdict of a request nobody joins."""
        if entry.expired(time.monotonic()):
            return self._complete(entry, (
                False, None, self._deadline_verdict(entry, entry.reply_s)))
        self.stats["resends"] += 1
        try:
            self._send_request(entry)
        except Exception as error:
            # Definitive (a routing verdict, a closing mesh): its verdict.
            self._complete(entry, (False, None, error))
        entry.backoff(time.monotonic(), self._rng.random())

    def _forget(self, entry: Pending) -> bool:
        """Out of ``_pending`` (false: another thread took it), and no
        longer work its target holds for us."""
        request_id = entry.message.request_id
        entry.held.discard(request_id)
        return self._pending.pop(request_id, None) is not None

    def _complete(self, entry: Pending, outcome: Tuple) -> None:
        """The one way a request gets its outcome ``(ok, value, error)``:
        of a reply, verdict and deadline that race, the first delivers."""
        if self._forget(entry):
            entry.deliver(outcome)

    def _deadline_verdict(self, entry, deadline_s) -> Exception:
        return self._circuits.deadline_verdict(
            entry, deadline_s, self._suspected_peers(), time.monotonic())

    # -- at-most-once execution (receive side) -------------------------

    def _duplicate(self, message, claim: bool) -> bool:
        """The at-most-once gate, asked once per request: the atomic
        claim before execution, or a peek (``claim=False``) before a
        forward or a reader's :class:`MustWait`.  True when this copy
        must not execute: it was answered from the reply cache, or
        dropped as the twin of one still executing."""
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

    def answer(self, message, outcome: Tuple) -> None:
        """The one way a served request is answered: its outcome ``(ok,
        value, error)`` is cached, then posted to the origin.  Only an
        outcome that cannot be framed (does not pickle, or is too big)
        becomes a :class:`RemoteInvocationError` stand-in, in the cache
        too; a reply that cannot be delivered raises, cached as is."""
        to, request_id = message.reply_to, message.request_id
        reply = m.ResultMsg(request_id, *outcome)
        # Cached first: a refused post must not leave it executing.
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
        # Said out loud: a silently swapped exception type misleads.
        log.warning("node %d: %s for request %d cannot be framed (%s: %s); "
                    "answering with a RemoteInvocationError stand-in",
                    self.node_id, what, request_id,
                    type(unframable).__name__, unframable)
        self.answer(message, (False, None, RemoteInvocationError(
            f"{what} could not be framed: {type(unframable).__name__}: "
            f"{unframable}", remote_traceback="" if ok else "".join(
                traceback.format_exception(type(error), error,
                                           error.__traceback__)))))

    # -- Message handling ----------------------------------------------

    def _on_message(self, peer: int, message: Any) -> None:
        """A mesh reader calls this and must get back to its socket: on
        it nothing runs user code or waits (what would, raises
        :class:`MustWait` with ``may_wait`` false) — that goes to the
        pool, which never queues a message behind a running handler."""
        kind = type(message)
        if kind is m.ResultMsg:
            # Any reply, whatever its outcome, closes the breaker.
            self._circuits.record_success(peer)
            # _complete, in line.  A duplicate reply finds no entry; ids
            # are never reused (a counter), so none is mis-delivered.
            entry = self._pending.pop(message.request_id, None)
            if entry is not None:
                entry.held.discard(message.request_id)
                if peer != entry.last_target:
                    # Relayed there: the relay is up; the object is at peer.
                    self._circuits.record_success(entry.last_target)
                    if type(entry.message) in _LOCATING:
                        self.table.hint(entry.message.vaddr, peer)
                entry.deliver(message[1:])
        elif kind is m.LocationHint:
            self.table.hint(*message)
        elif peer != self.node_id and not (
                kind is m.InvokeMsg and message.vaddr in self.table.objects):
            # The probe is advisory: _serve decides.
            self._dispatch(message, False)
        else:
            self._workers.submit(message)

    def _dispatch(self, message: Any, may_wait: bool = True) -> None:
        kind = type(message)
        try:
            row = self._HANDLERS.get(kind)
            if row is not None:
                self._serve(message, *row, may_wait)
            elif kind is _Claimed:
                self._finish(*message)
            elif kind is Pending:
                self._resend(message)
            elif kind is _Flush:
                self._flush(message)
            # Anything else is dropped (forward compatibility).
        except MustWait:
            # A reader's, not claimed yet: a worker starts it over.
            self._workers.submit(message)
        except (NodeFailure, RuntimeTransportError, OSError) as error:
            # Expected under chaos (peer gone mid-reply, mesh closing):
            # the requester's ladder, deadline or detector recovers.
            log.debug(
                "node %d: transport error dispatching %s: %s",
                self.node_id, type(message).__name__, error)
        except Exception as error:  # pragma: no cover - diagnostics
            # A handler bug must not kill a worker silently: every
            # request path replies before raising, so this is unexpected.
            log.error(
                "node %d: unhandled %s while dispatching %s: %s",
                self.node_id, type(error).__name__,
                type(message).__name__, error)
            log.debug("dispatch traceback:\n%s", traceback.format_exc())

    def _serve(self, message, body, on_reader, may_wait) -> None:
        """The gate of every request: forward it if its object is not
        here, else claim it (a duplicate is replayed or dropped), refresh
        the chase path, then :meth:`_finish` it.  A mesh reader
        (``may_wait`` false) runs a body only if it may (``on_reader``):
        :class:`MustWait` leaves here only while nothing is claimed."""
        obj = None
        try:
            vaddr = message.vaddr
        except AttributeError:      # a create or an install names none
            vaddr = -1
        if vaddr != -1:             # a "stats" control names none either
            obj = self.table.resident(vaddr)
            if obj is None:
                if not self._duplicate(message, claim=False):
                    self._forward(message, may_wait)
                return
        if not (on_reader or may_wait):
            if self._duplicate(message, claim=False):
                return
            raise MustWait()
        if self._duplicate(message, claim=True):
            return
        if type(message) in _LOCATING and len(message.trace) > 2:
            # Forwarded more than once: refresh the descriptors between
            # the origin and the last forwarder, best effort.
            for node in message.trace[1:-1]:
                if node != self.node_id:
                    self._send_quiet(node, m.LocationHint(vaddr, self.node_id))
        self._finish(message, body, obj, may_wait)

    def _finish(self, message, body, obj, may_wait=True) -> None:
        """The tail of a claimed request: run ``body(self, message, obj,
        may_wait)`` and answer with its value or its exception."""
        try:
            value = body(self, message, obj, may_wait)
        except MustWait:
            # A reader's move: claimed, so it goes to the pool as that.
            self._workers.submit(_Claimed((message, body, obj)))
        except BaseException as error:
            # Even a SystemExit out of user code is the caller's answer:
            # swallowed here it would only end this worker, silently.
            self.answer(message, (False, None, error))
        else:
            if value is not _LATER:
                self.answer(message, (True, value, None))

    def _forward(self, message, may_wait: bool) -> None:
        """Forward a routed message one hop along the chain, or reply
        with a typed error when the chase is hopeless."""
        vaddr = message.vaddr
        trace = message.trace + (self.node_id,)
        try:
            if len(trace) > MAX_TRACE:
                raise ObjectNotFoundError(
                    f"object {vaddr:#x}: chase exceeded {MAX_TRACE} hops")
            target = self.table.descriptors.next_hop(
                vaddr, lambda _: self.table.home_node(vaddr, may_wait))
        except ObjectNotFoundError as error:
            self.answer(message, (False, None, error))
            return
        if target in message.trace and self.table.hold(vaddr, message):
            # Been to the destination and came back: the install has
            # not landed.  Sent on when the move gets its outcome.
            return
        if not may_wait and not self.mesh.connected(target):
            # A reader does not dial, and a forward that fails must
            # fail on a thread that can tell the origin.
            raise MustWait()
        self.stats["forwards"] += 1
        try:
            self.mesh.send(target, message._replace(trace=trace))
        except (RuntimeTransportError, OSError) as error:
            # The next hop is unreachable: tell the breaker and give the
            # origin a typed verdict instead of letting it time out.
            self._circuits.record_failure(target, time.monotonic())
            self.answer(message, (False, None, NodeFailure(
                f"node {self.node_id}: forwarding "
                f"{type(message).__name__} for {vaddr:#x} to node "
                f"{target} failed: {error}")))

    # -- Request bodies: body(self, message, obj, may_wait) -------------

    def _invoke(self, message: m.InvokeMsg, obj, _may_wait) -> Any:
        value = self.table.execute(obj, message.method, message.args,
                                    message.kwargs, message.logical_thread)
        if obj._immutable and message.reply_to != self.node_id:
            # Read-only object invoked remotely: a replica, ahead of the
            # reply, makes the caller's next reads local (§2.3); best effort.
            self._send_quiet(message.reply_to, m.InstallMsg(
                next(self.request_ids), self.node_id,
                {obj._vaddr: obj}, (), replica=True))
        return value

    #: Each kind of request: its body (all but ``_invoke`` are in
    #: :mod:`repro.runtime.bodies`), and whether a mesh reader may run
    #: it (user code never runs on a reader).
    _HANDLERS = {
        m.InvokeMsg: (_invoke, False),
        m.CreateMsg: (bodies.create, False),
        m.MoveMsg: (bodies.move_out, True),
        m.InstallMsg: (bodies.install, True),
        m.LocateMsg: (bodies.located, True),
        m.ControlMsg: (bodies.control, True),
    }


#: The requests that leave location hints: their reply tells the origin
#: where the object is, their chase path is told by ``LocationHint``.
_LOCATING = frozenset((m.InvokeMsg, m.LocateMsg))
