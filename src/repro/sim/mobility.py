"""Location and mobility for the simulated Amber kernel.

Reached as ``kernel.mobility``; its request rows (``MoveTo``, ``Locate``,
``Refresh``) sit in the kernel's one handler table.

* **Locating** (section 3.3): migrating threads and control messages follow
  forwarding chains hop by hop, each hop the node's ``next_hop`` rule
  (its hint, else the home node derived from the address).  On arrival
  the final location is cached along the visited path (path compression).
  Both kinds of request are one :class:`Chase` followed by one routine
  (:meth:`Mobility._arrived` / ``_forward`` / ``_unreachable``).
* **Moves** (section 3.5): a move first marks the descriptor non-resident,
  then briefly interrupts every other processor on the node so running
  threads make a context-switch-time residency check; bound threads migrate
  themselves when next scheduled, and suspended bound threads stay until
  rescheduled — both exactly the paper's stated policy (including the lost
  concurrency it admits to).  Because mutable objects are never copied
  while resident state diverges (there is a single authoritative instance),
  the multiprocessor races of section 3.5 affect *timing*, never state.
* **Immutables** (section 2.3): ``MoveTo`` on an immutable copies it;
  invoking a non-resident immutable fetches a local replica.

One simplification is calibrated away rather than modeled: install work for
arriving objects is a pure delay at the destination instead of occupying a
destination CPU (moves are rare by the paper's own assumption 1 in §3.5);
thread arrivals *do* occupy the destination CPU via the dispatch surcharge.
A thread performing ``MoveTo``/``Locate`` holds its CPU for the duration of
the synchronous protocol, matching the kernel-mediated move of the paper.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.analyze import runtime as _analysis
from repro.errors import MobilityError, NodeFailure, ObjectNotFoundError
from repro.obs.metrics import Held
from repro.sim import syscalls as sc
from repro.sim.engine import NS_PER_US
from repro.sim.node import SimNode
from repro.sim.objects import SimObject
from repro.sim.thread import (
    BLOCKED, DONE, READY, RUNNING, TRANSIT, SimThread)

#: Safety bound on forwarding-chain chasing for one request.
MAX_CHASE_HOPS = 1000

#: With faults enabled: bounded patience with an unreachable home node.
#: Each probe re-runs a full reliable send (all retransmissions), spaced
#: by the capped RTO — graceful degradation while the home is down, a
#: clean ObjectNotFoundError once it is evidently never coming back.
MAX_HOME_PROBES = 16


class Chase:
    """One request following the forwarding chain of ``vaddr``.

    ``thread`` is the migrating thread itself (``on_found`` is ``None``:
    finding the object lands the thread there) or the thread a control
    message travels for (``on_found(holder)`` continues its ``Locate`` /
    ``MoveTo``).  Everything else the two differ in follows from that:
    wire size and message kind here, what *found* and *lost* mean in
    :meth:`Mobility._arrived` and :meth:`Mobility._lost`.
    """

    __slots__ = ("thread", "token", "vaddr", "path", "hop", "probes",
                 "nbytes", "kind", "on_found")

    def __init__(self, thread: SimThread, vaddr: int, origin: int,
                 nbytes: int,
                 on_found: Optional[Callable[[SimNode], None]]):
        self.thread = thread
        #: The thread's run token when the chase began: a crash sweep
        #: that resurrects or fails the thread bumps it, which strands
        #: every message of this chase still in flight.
        self.token = thread.run_token
        self.vaddr = vaddr
        #: Nodes visited so far, origin first (path compression, cycle
        #: detection, hop limit).
        self.path: List[int] = [origin]
        #: Destination of the hop currently in flight (lets the crash
        #: sweep catch threads migrating *toward* a confirmed-dead node
        #: without waiting out the reliable layer's give-up budget).
        self.hop: Optional[int] = None
        #: Consecutive probes of an unreachable node; reset on arrival.
        self.probes = 0
        self.nbytes = nbytes
        self.kind = "thread" if on_found is None else "message"
        self.on_found = on_found

    def who(self) -> str:
        return (f"thread {self.thread.name}" if self.on_found is None
                else "control message")


class Mobility:
    """Where objects are, and how threads and objects get there."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cluster = kernel.cluster
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.net = kernel.net
        self.metrics = kernel.metrics
        #: Histograms fed once per migration or chase are held.
        self._hists = Held(kernel.metrics.histogram)
        self._home_of = kernel.cluster.home_node
        #: A migration's CPU costs at either end (the cost model is
        #: frozen, so they are summed once).
        self._send_cpu_us = kernel.costs.thread_send_cpu_us()
        self._recv_cpu_us = kernel.costs.thread_recv_cpu_us()

    # ------------------------------------------------------------------
    # Thread migration (function shipping)
    # ------------------------------------------------------------------

    def migrate(self, thread: SimThread, vaddr: int, payload: int = 0,
                on_arrival=None) -> None:
        """The residency check failed: trap to the kernel and move the
        thread toward the target object."""
        if on_arrival is not None:
            thread.on_arrival = on_arrival
        self.kernel.charge(thread, self._send_cpu_us,
                           partial(self._depart, thread, vaddr, payload))

    def _depart(self, thread: SimThread, vaddr: int, payload: int) -> None:
        """The send cost has elapsed: put the thread on the wire."""
        kernel = self.kernel
        node = self.cluster.nodes[thread.location]
        node.stats.threads_out += 1
        thread.migrations += 1
        thread.transit_start_us = self.sim.now_ns / NS_PER_US
        if self.cluster.tracer is not None:
            kernel.trace("migrate-out", node.id, thread.name, vaddr)
        thread.state = TRANSIT
        thread.run_token += 1
        rec = kernel.recovery
        if rec is not None:
            rec.log_departure(thread, node.id)
        next_node = node.descriptors.next_hop(vaddr, self._home_of)
        kernel.release_cpu(thread)
        thread.location = None
        self.send_thread(thread, node.id, next_node, vaddr, payload)

    def send_thread(self, thread: SimThread, src: int, dst: int,
                    vaddr: int, payload: int) -> None:
        """Put ``thread`` (TRANSIT, off every CPU) on the wire at ``src``,
        chasing ``vaddr`` toward ``dst``."""
        chase = thread.chase = Chase(
            thread, vaddr, src, self.costs.thread_packet_bytes + payload,
            None)
        self._hop(chase, src, dst)

    def _relocate_thread_object(self, thread: SimThread,
                                node_id: int) -> None:
        """Keep the thread object's descriptors consistent as it moves.
        Once per arrival, so both entries are written in place."""
        nodes = self.cluster.nodes
        vaddr = thread._vaddr
        previous = thread._location
        if previous is not None and previous != node_id:
            nodes[previous].descriptors.where[vaddr] = node_id
        nodes[node_id].descriptors.where[vaddr] = node_id
        thread._location = node_id

    # ------------------------------------------------------------------
    # The location chase (migrating threads and control messages)
    # ------------------------------------------------------------------

    def route(self, requester: SimThread, origin: SimNode, vaddr: int,
              on_found: Callable[[SimNode], None]) -> None:
        """Send a control message chasing ``vaddr`` on ``requester``'s
        behalf; call ``on_found`` with the holder node.  Charges wire time
        per hop plus forwarding cost at intermediate nodes, and compresses
        the path when found."""
        self._forward(Chase(requester, vaddr, origin.id,
                            self.costs.control_bytes, on_found), origin)

    def _hop(self, chase: Chase, src: int, dst: int) -> None:
        chase.hop = dst
        net = self.net
        # Without an injector no send gives up: build nothing for it.
        net.send_reliable(
            src, dst, chase.nbytes, partial(self._arrived, chase, dst),
            None if net.faults is None
            else partial(self._unreachable, chase, src, dst), chase.kind)

    def _arrived(self, chase: Chase, node_id: int) -> None:
        thread = chase.thread
        if thread.run_token != chase.token \
                or thread._state is DONE:
            return  # resurrected or failed while in flight
        kernel = self.kernel
        nodes = self.cluster.nodes
        node = nodes[node_id]
        path = chase.path
        rec = kernel.recovery
        if rec is not None:
            if node.down:
                # Delivery raced the crash: landed on a corpse.  Bounce
                # from the last live hop as if the send had given up.
                self._unreachable(chase, path[-1], node_id)
                return
            if thread.carried_checkpoints and chase.on_found is None:
                rec.flush_carried(thread, node_id)
        chase.probes = 0
        path.append(node_id)
        vaddr = chase.vaddr
        if len(path) > MAX_CHASE_HOPS:
            raise ObjectNotFoundError(
                f"{chase.who()} chased object {vaddr:#x} for more than "
                f"{MAX_CHASE_HOPS} hops")
        if node.descriptors.where.get(vaddr) != node_id:
            # Not here: follow the chain one more hop, after the
            # forwarding cost.  A migrating thread's next hop is read on
            # arrival, a control message's when the cost has elapsed (a
            # hint can change in between; every fixed point pins both).
            node.stats.forward_hops += 1
            next_node = (node.descriptors.next_hop(vaddr, self._home_of)
                         if chase.on_found is None else None)
            self.sim.schedule_us(
                self.costs.forward_hop_us,
                partial(self._forward, chase, node, next_node))
            return
        # Found it: cache the location along the path we took.
        for visited in path[:-1]:
            nodes[visited].descriptors.update_hint(vaddr, node_id)
        hists = self._hists
        hops = len(path) - 2
        hists["forward_chain_hops"].observe(hops if hops > 0 else 0)
        if chase.on_found is not None:
            chase.on_found(node)
            return
        # The thread object itself now resides here.
        self._relocate_thread_object(thread, node_id)
        if self.cluster.tracer is not None:
            kernel.trace("migrate-in", node_id, thread.name, vaddr)
        now_us = self.sim.now_ns / NS_PER_US
        san = _analysis.ACTIVE
        if san is not None:
            san.on_migrate(thread, node_id, now_us)
        hists["migration_us"].observe(now_us - thread.transit_start_us)
        thread.chase = None
        kernel.ready(thread, node_id, self._recv_cpu_us)

    def _forward(self, chase: Chase, node: SimNode,
                 next_node: Optional[int] = None) -> None:
        """Send the chase on from ``node`` to ``next_node`` — by default
        wherever ``node`` now believes the object is."""
        vaddr = chase.vaddr
        if next_node is None:
            next_node = node.descriptors.next_hop(vaddr, self._home_of)
        if chase.path.count(next_node) < 2:
            self._hop(chase, node.id, next_node)
            return
        # We have been to next_node before and come back: the chain is
        # cyclic (a restart shed a link the remaining hints still route
        # through).  Chasing cannot terminate; locate the object by
        # broadcast, repair the chain and restart the chase there.
        def repaired(where: int) -> None:
            # Point this node's and the home's hints at the located
            # holder so the repaired chain is immediately usable.
            home = self.cluster.nodes[self.cluster.home_node(vaddr)]
            node.descriptors.update_hint(vaddr, where)
            home.descriptors.update_hint(vaddr, where)
            self.metrics.inc("hints_repaired")
            chase.path = [node.id]
            self._hop(chase, node.id, where)

        self._chain_repair_locate(node.id, vaddr, repaired)

    def _unreachable(self, chase: Chase, src: int, dead: int) -> None:
        """The reliable layer exhausted its retries sending the chase to
        ``dead``: that hop is dead.  Shed the stale hint that led there
        and reroute via the object's home node — unless the dead node is
        where the home itself points (or *is* the home), in which case the
        object is behind the crash and all we can do is probe on a slow
        timer until it restarts or the budget runs out."""
        thread = chase.thread
        if thread.run_token != chase.token or thread.done:
            return
        kernel = self.kernel
        vaddr = chase.vaddr
        name = thread.name if chase.on_found is None else ""
        rec = kernel.recovery
        if rec is not None:
            if rec.is_lost(vaddr):
                self._lost(chase, dead, NodeFailure(
                    f"{chase.who()} cannot reach object {vaddr:#x}: it "
                    f"was lost with node {dead}"))
                return
            where = rec.live_copy(vaddr, dead)
            if where is not None:
                # The object escaped the crash (a promoted backup, or a
                # live holder): go straight there, not via a corpse.
                self.metrics.inc("home_fallbacks")
                kernel.trace("home-fallback", src, name, vaddr,
                             f"node {dead} unreachable; live copy at "
                             f"node {where}")
                self._hop(chase, src, where)
                return
        home = self.cluster.home_node(vaddr)
        if dead != home and src != home:
            source = self.cluster.node(src)
            if source.descriptors.next_hop(vaddr, self._home_of) == dead:
                source.descriptors.clear(vaddr)   # the hint that led there
                self.metrics.inc("hints_repaired")
            self.metrics.inc("home_fallbacks")
            kernel.trace("home-fallback", src, name, vaddr,
                         f"node {dead} unreachable; rerouting via home "
                         f"{home}")
            self._hop(chase, src, home)
            return
        if chase.probes >= MAX_HOME_PROBES:
            self._lost(chase, dead, ObjectNotFoundError(
                f"{chase.who()} cannot reach object {vaddr:#x}: node "
                f"{dead} stayed unreachable through "
                f"{MAX_HOME_PROBES} probes"))
            return
        chase.probes += 1
        self.metrics.inc("home_probes")
        kernel.trace("home-probe", src, name, vaddr,
                     f"probe {chase.probes} of node {dead}")
        self.sim.schedule_us(
            self._probe_interval_us(),
            lambda: None if thread.run_token != chase.token or thread.done
            else self._hop(chase, src, dead))

    def _lost(self, chase: Chase, dead: int, error: Exception) -> None:
        """The chase cannot end.  Without crash recovery that is fatal to
        the run; with it, a typed failure instead of an exception out of
        the event loop: a migrating thread terminates and its joiners
        learn, a ``Locate`` / ``MoveTo`` raises inside its operation."""
        rec = self.kernel.recovery
        if rec is None:
            raise error
        if chase.on_found is None:
            rec.fail_thread(chase.thread, dead)
        else:
            chase.thread.send_exc = error
            self.kernel.advance(chase.thread)

    def _probe_interval_us(self) -> float:
        """Spacing between probes of an unreachable node: the retry
        layer's backoff cap, so probes are strictly slower than the
        in-protocol retransmissions that already failed."""
        plan = self.cluster.faults
        return plan.rto_cap_us if plan is not None else 1_000.0

    def _chain_repair_locate(self, origin_id: int, vaddr: int,
                             on_found, probes: int = 0) -> None:
        """Broadcast locate of last resort (the Emerald lineage's
        unreachable-object search).  A restart can shed a forwarding
        link whose upstream hints still point into the broken chain,
        leaving a cycle no amount of chasing escapes — e.g. the home's
        stale hint aims at the restarted node, which knows nothing and
        bounces requests back to the home.  When a chase detects such a
        cycle, ask every node directly whether the object is resident
        there and repair the chain from the answer.

        If no node holds the object (it may be in transit, or behind a
        crashed node that dropped the query), the broadcast is retried
        on the probe timer up to :data:`MAX_HOME_PROBES` times before
        the object is declared lost.  Queries go out in node-id order
        and replies are collected by counting, so the broadcast is
        deterministic."""
        if self.cluster.node(origin_id).descriptors.is_resident(vaddr):
            on_found(origin_id)  # arrived here while we were looping
            return
        self.metrics.inc("location_broadcasts")
        self.kernel.trace("locate-broadcast", origin_id, "", vaddr,
                          f"round {probes + 1}")
        peers = [node for node in self.cluster.nodes
                 if node.id != origin_id]
        outstanding = [len(peers)]
        found: List[int] = []

        def finish() -> None:
            if found:
                on_found(min(found))
                return
            if probes >= MAX_HOME_PROBES:
                raise ObjectNotFoundError(
                    f"object {vaddr:#x} not resident on any node after "
                    f"{MAX_HOME_PROBES} broadcast rounds: lost")
            self.metrics.inc("home_probes")
            self.sim.schedule_us(
                self._probe_interval_us(),
                lambda: self._chain_repair_locate(origin_id, vaddr,
                                                  on_found, probes + 1))

        def account() -> None:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                finish()

        for peer in peers:
            def check(peer=peer) -> None:
                if peer.descriptors.is_resident(vaddr):
                    found.append(peer.id)
                self.net.send_reliable(peer.id, origin_id,
                                       self.costs.control_bytes,
                                       account, on_give_up=account)

            self.net.send_reliable(origin_id, peer.id,
                                   self.costs.control_bytes, check,
                                   on_give_up=account)

    # ------------------------------------------------------------------
    # MoveTo
    # ------------------------------------------------------------------

    def _handle_moveto(self, thread: SimThread, request: sc.MoveTo) -> None:
        self.kernel.validate_target(request.target)
        dest = request.node
        self.cluster.node(dest)  # validates the node id
        target = request.target
        t0 = self.sim.now_ns / NS_PER_US
        if isinstance(target, SimThread):
            self._move_thread_object(thread, target, dest)
            return
        if target.immutable:
            self._replicate(thread, target, dest, partial(
                self._finish_move, thread, "replicate_us", t0))
            return
        node = self.cluster.nodes[thread.location]
        if node.descriptors.is_resident(target._vaddr):
            self._move_group_local(
                thread, True, node, target._vaddr, dest,
                partial(self._finish_move, thread, "move_us", t0))
        else:
            self._move_remote(thread, target._vaddr, dest, t0)

    def _finish_move(self, thread: SimThread, metric: str,
                     t0: float) -> None:
        """After a move completes, the mover itself may now be standing on
        the wrong node (it was bound to the moved group)."""
        self.metrics.observe(metric, self.sim.now_ns / NS_PER_US - t0)
        node = self.cluster.nodes[thread.location]
        if thread.stack and not node.descriptors.is_resident(
                thread.stack[-1].obj._vaddr):
            self.migrate(thread, thread.stack[-1].obj._vaddr,
                         on_arrival=("deliver", None, None))
        else:
            self._resume(thread)

    def _resume(self, thread: SimThread) -> None:
        thread.send_value = None
        self.kernel.advance(thread)

    def _move_group_local(self, requester: SimThread, local: bool,
                          node: SimNode, vaddr: int, dest: int,
                          on_done) -> None:
        """Execute the move protocol with the object resident on ``node``.

        A ``local`` requester holds a CPU on ``node`` for the CPU-bound
        phases; a move request that arrived from another node charges
        the same costs as pure delays.
        """
        mover = requester if local else None
        if dest != node.id:
            on_done = partial(self._move_marked, requester, mover, node,
                              vaddr, dest, on_done)
        self._after(mover, node, self.costs.move_setup_us, on_done)

    def _move_marked(self, requester: SimThread, mover: Optional[SimThread],
                     node: SimNode, vaddr: int, dest: int, on_done) -> None:
        """Set-up done: mark the group away and interrupt the CPUs."""
        costs = self.costs
        cluster = self.cluster
        if not node.descriptors.is_resident(vaddr):
            # Lost a race with a concurrent move: the object left while
            # we were setting up.  Chase it and run the protocol where it
            # actually lives.
            self.route(requester, node, vaddr, partial(
                self._move_group_local, requester, False, vaddr=vaddr,
                dest=dest, on_done=on_done))
            return
        # 1. Mark every member non-resident, leaving forwarding addresses
        #    (before the copy, per section 3.5).  The group is read now,
        #    under the same event as the marking.
        group = [cluster.objects[member]
                 for member in cluster.attachments.group(vaddr)]
        for member in group:
            node.descriptors.set_forwarding(member._vaddr, dest)
            member._location = None
        # 2. Briefly interrupt every other processor so running threads
        #    make residency checks when rescheduled.
        for cpu in node.cpus:
            if mover is not None and cpu.index == mover.cpu:
                continue
            self.kernel.preempt_cpu(node, cpu)
        preempt_cost = costs.preempt_us * max(0, node.ncpus - 1)
        marshal_cost = costs.object_marshal_us * len(group)
        install = partial(self._move_install, mover, node, vaddr, dest,
                          group, on_done)
        self._after(mover, node, preempt_cost + marshal_cost, partial(
            self.net.send_reliable, node.id, dest,
            sum(member.size_bytes for member in group),
            partial(self.sim.schedule_us,
                    costs.object_install_us * len(group), install)))

    def _move_install(self, mover: Optional[SimThread], node: SimNode,
                      vaddr: int, dest: int, group: List[SimObject],
                      on_done) -> None:
        """The group has arrived and installed at ``dest``: acknowledge."""
        cluster = self.cluster
        dest_node = cluster.node(dest)
        for member in group:
            dest_node.descriptors.set_resident(member._vaddr)
            member._location = dest
        dest_node.stats.objects_in += len(group)
        node.stats.objects_out += len(group)
        cluster.stats.object_moves += 1
        self.kernel.trace("move", dest, "", vaddr,
                          f"group of {len(group)} from node {node.id}")
        self.net.send_reliable(dest, node.id, self.costs.control_bytes,
                               partial(self._after, mover, node,
                                       self.costs.move_complete_us, on_done))

    def _after(self, mover: Optional[SimThread], node: SimNode,
               us: float, then) -> None:
        """Charge ``us`` to the mover's CPU if there is a local mover,
        otherwise let it elapse as kernel time at ``node``."""
        if mover is not None and mover.location == node.id and \
                mover.cpu is not None:
            self.kernel.charge(mover, us, then)
        else:
            node.stats.cpu_busy_us += us
            self.sim.schedule_us(us, then)

    def _move_remote(self, thread: SimThread, vaddr: int, dest: int,
                     t0: float) -> None:
        """MoveTo on a non-resident object: route the request to wherever
        the object lives and run the protocol there."""
        origin = self.cluster.nodes[thread.location]
        self.kernel.charge(thread, self.costs.remote_trap_us, partial(
            self.route, thread, origin, vaddr,
            partial(self._move_found, thread, origin, vaddr, dest, t0)))

    def _move_found(self, thread: SimThread, origin: SimNode, vaddr: int,
                    dest: int, t0: float, holder: SimNode) -> None:
        """Run the protocol at ``holder``, then resume the mover."""
        resume = partial(self.kernel.charge, thread,
                         self.costs.move_complete_us,
                         partial(self._finish_move, thread, "move_us", t0))
        self._move_group_local(thread, False, holder, vaddr, dest, partial(
            self.net.send_reliable, holder.id, origin.id,
            self.costs.control_bytes, resume))

    def _move_thread_object(self, mover: SimThread, target: SimThread,
                            dest: int) -> None:
        """Moving a thread object relocates the thread itself.  Only
        unstarted, queued, or blocked threads may be moved explicitly;
        running threads move via the invocation mechanism."""
        if target is mover or target.state in (RUNNING, TRANSIT):
            raise MobilityError(
                f"cannot explicitly move {target!r} while it is "
                f"{target.state.value}; threads migrate via invocation")
        if target.done:
            raise MobilityError(f"cannot move finished thread {target!r}")
        self.kernel.charge(mover, self.costs.thread_marshal_us, partial(
            self._thread_object_departs, mover, target,
            self.cluster.node(target.location), dest))

    def _thread_object_departs(self, mover: SimThread, target: SimThread,
                               source: SimNode, dest: int) -> None:
        """Marshalled: ship the thread object and resume the mover."""
        was_ready = target.state is READY
        if was_ready:
            source.scheduler.remove(target)
            target.state = TRANSIT
        source.descriptors.set_forwarding(target._vaddr, dest)
        source.stats.threads_out += 1
        target.migrations += 1
        self.net.send_reliable(
            source.id, dest, self.costs.thread_packet_bytes,
            partial(self._thread_object_arrives, target, dest, was_ready))
        self._resume(mover)

    def _thread_object_arrives(self, target: SimThread, dest: int,
                               was_ready: bool) -> None:
        dest_node = self.cluster.node(dest)
        dest_node.descriptors.set_resident(target._vaddr)
        target.location = dest
        target._location = dest
        if was_ready:
            target.state = BLOCKED  # re-readied below
            self.kernel.ready(target, dest, self.costs.thread_recv_cpu_us())
        # NEW threads stay NEW (Start will queue them here); BLOCKED
        # threads stay blocked and resume here when woken.

    # ------------------------------------------------------------------
    # Locate, Refresh and immutable replication
    # ------------------------------------------------------------------

    def _handle_locate(self, thread: SimThread, request: sc.Locate) -> None:
        self.kernel.validate_target(request.target)
        self.cluster.stats.locates += 1
        self.kernel.charge(thread, self.costs.local_invoke_us, partial(
            self._locate, thread, request.target._vaddr,
            self.sim.now_ns / NS_PER_US))

    def _locate(self, thread: SimThread, vaddr: int, t0: float) -> None:
        node = self.cluster.nodes[thread.location]
        if node.descriptors.is_resident(vaddr):
            self._located(thread, t0, node.id)
        else:
            self.route(thread, node, vaddr,
                       partial(self._locate_found, thread, node, t0))

    def _locate_found(self, thread: SimThread, node: SimNode, t0: float,
                      holder: SimNode) -> None:
        self.net.send_reliable(holder.id, node.id, self.costs.control_bytes,
                               partial(self._located, thread, t0, holder.id))

    def _located(self, thread: SimThread, t0: float, where: int) -> None:
        self.metrics.observe("locate_us", self.sim.now_ns / NS_PER_US - t0)
        thread.send_value = where
        self.kernel.advance(thread)

    def _handle_refresh(self, thread: SimThread, request: sc.Refresh) -> None:
        self.kernel.validate_target(request.target)
        target = request.target
        node = self.cluster.nodes[thread.location]
        if not target.immutable:
            raise MobilityError(f"Refresh requires an immutable object, "
                                f"got {target!r}")
        resume = partial(self._resume, thread)
        if node.descriptors.is_resident(target._vaddr):
            self.kernel.charge(thread, self.costs.residency_check_us,
                               resume)
        else:
            self.fetch_replica(thread, target, resume)

    def _replicate(self, thread: SimThread, target: SimObject, dest: int,
                   on_done) -> None:
        """Copy an immutable object to ``dest`` (MoveTo-on-immutable)."""
        costs = self.costs
        charge = self.kernel.charge
        dest_node = self.cluster.node(dest)
        if dest_node.descriptors.is_resident(target._vaddr):
            charge(thread, costs.residency_check_us, on_done)
            return
        source = min(target._replica_nodes)
        transfer = partial(
            self.net.send_reliable, source, dest, target.size_bytes,
            partial(self.sim.schedule_us, costs.object_install_us, partial(
                self._replicated, thread, target, source, dest_node,
                on_done)))
        if source == thread.location:
            # We hold a replica: marshal here and ship it.
            charge(thread, costs.object_marshal_us, transfer)
        else:
            charge(thread, costs.remote_trap_us, partial(
                self.net.send_reliable, thread.location, source,
                costs.control_bytes,
                partial(self.sim.schedule_us, costs.object_marshal_us,
                        transfer)))

    def _replicated(self, thread: SimThread, target: SimObject, source: int,
                    dest_node: SimNode, on_done) -> None:
        """The replica is installed at ``dest_node``: tell the thread."""
        dest = dest_node.id
        dest_node.descriptors.set_resident(target._vaddr)
        target._replica_nodes.add(dest)
        dest_node.stats.replicas_installed += 1
        self.kernel.trace("replicate", dest, "", target._vaddr,
                          f"from node {source}")
        done = partial(self.kernel.charge, thread, 0.0, on_done)
        if dest == thread.location:
            done()  # the replica landed right here: no acknowledgement
        else:
            self.net.send_reliable(dest, thread.location,
                                   self.costs.control_bytes, done)

    def fetch_replica(self, thread: SimThread, target: SimObject,
                      on_done) -> None:
        """Install a local replica of an immutable object, then continue."""
        self._replicate(thread, target, thread.location, partial(
            self._replica_fetched, on_done, self.sim.now_ns / NS_PER_US))

    def _replica_fetched(self, on_done, t0: float) -> None:
        self.metrics.observe("replicate_us", self.sim.now_ns / NS_PER_US - t0)
        on_done()

    #: This module's rows of the kernel's request table.
    HANDLERS = {
        sc.MoveTo: _handle_moveto,
        sc.Locate: _handle_locate,
        sc.Refresh: _handle_refresh,
    }
