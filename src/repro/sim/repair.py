"""The chase's crash path, reached as ``kernel.repair``: a dead hop and a
cyclic chain.  Only crashes and restarts break a chain."""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.errors import NodeFailure, ObjectNotFoundError
from repro.sim.mobility import Chase
from repro.sim.node import SimNode

#: With faults enabled: bounded patience with an unreachable home node.
#: Each probe re-runs a full reliable send (all retransmissions), spaced
#: by the capped RTO — graceful degradation while the home is down, a
#: clean ObjectNotFoundError once it is evidently never coming back.
MAX_HOME_PROBES = 16


class ChainRepair:
    """Where a chase goes when its chain is broken."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cluster = kernel.cluster
        self.costs = kernel.costs
        self.net = kernel.net
        self.metrics = kernel.metrics
        self.mobility = kernel.mobility
        #: Spacing between probes of an unreachable node: the retry
        #: layer's backoff cap, so probes are strictly slower than the
        #: in-protocol retransmissions that already failed.
        plan = kernel.cluster.faults
        self._probe_us = plan.rto_cap_us if plan is not None else 1_000.0

    def unreachable(self, chase: Chase, src: int, dead: int) -> None:
        """The chase cannot reach ``dead`` from ``src``.  Shed the stale
        hint that led there and reroute via the object's home node — or,
        if the object is behind the crash, probe ``dead`` on a slow timer
        until it restarts or the budget runs out."""
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
                self.mobility.hop(chase, src, where)
                return
        home = self.cluster.home_node(vaddr)
        if dead != home and src != home:
            source = self.cluster.node(src)
            if source.descriptors.where.get(vaddr) == dead:
                source.descriptors.clear(vaddr)   # the hint that led there
                self.metrics.inc("hints_repaired")
            self.metrics.inc("home_fallbacks")
            kernel.trace("home-fallback", src, name, vaddr,
                         f"node {dead} unreachable; rerouting via home "
                         f"{home}")
            self.mobility.hop(chase, src, home)
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
        self.kernel.sim.schedule_us(self._probe_us,
                                    partial(self._probe, chase, src, dead))

    def _probe(self, chase: Chase, src: int, dead: int) -> None:
        thread = chase.thread
        if thread.run_token == chase.token and not thread.done:
            self.mobility.hop(chase, src, dead)

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

    def chain_repair_locate(self, chase: Chase, node: SimNode) -> None:
        """Emerald's broadcast locate, for a chase whose chain loops back
        through ``node``: only a restart's cycle reaches it, never a
        fault-free run.  A round that finds no holder is retried on the
        probe timer, counted in ``chase.probes``, until it is lost."""
        vaddr = chase.vaddr
        if node.descriptors.is_resident(vaddr):
            self._repaired(chase, node, node.id)  # arrived while looping
            return
        self.metrics.inc("location_broadcasts")
        self.kernel.trace("locate-broadcast", node.id, "", vaddr,
                          f"round {chase.probes + 1}")
        answers: List[Optional[int]] = []
        for peer in self.cluster.nodes:
            if peer is not node:
                self.net.send_reliable(
                    node.id, peer.id, self.costs.control_bytes,
                    partial(self._asked, chase, node, answers, peer),
                    on_give_up=partial(self._answered, chase, node,
                                       answers, None))

    def _asked(self, chase: Chase, node: SimNode,
               answers: List[Optional[int]], peer: SimNode) -> None:
        answered = partial(
            self._answered, chase, node, answers,
            peer.id if peer.descriptors.is_resident(chase.vaddr) else None)
        self.net.send_reliable(peer.id, node.id, self.costs.control_bytes,
                               answered, on_give_up=answered)

    def _answered(self, chase: Chase, node: SimNode,
                  answers: List[Optional[int]],
                  holder: Optional[int]) -> None:
        answers.append(holder)
        if len(answers) < len(self.cluster.nodes) - 1:
            return
        found = [peer for peer in answers if peer is not None]
        if found:
            self._repaired(chase, node, min(found))
        elif chase.probes >= MAX_HOME_PROBES:
            raise ObjectNotFoundError(
                f"object {chase.vaddr:#x} not resident on any node after "
                f"{MAX_HOME_PROBES} broadcast rounds: lost")
        else:
            chase.probes += 1
            self.metrics.inc("home_probes")
            self.kernel.sim.schedule_us(self._probe_us, partial(
                self.chain_repair_locate, chase, node))

    def _repaired(self, chase: Chase, node: SimNode, where: int) -> None:
        # Point this node's and the home's hints at the located holder
        # so the repaired chain is immediately usable.
        vaddr = chase.vaddr
        home = self.cluster.nodes[self.cluster.home_node(vaddr)]
        node.descriptors.update_hint(vaddr, where)
        home.descriptors.update_hint(vaddr, where)
        self.metrics.inc("hints_repaired")
        chase.path = [node.id]
        chase.probes = 0
        self.mobility.hop(chase, node.id, where)
