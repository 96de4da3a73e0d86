"""Lock-order deadlock prediction and wait-for cycle reporting.

Two complementary views of the same hazard:

* :class:`LockOrderGraph` — fed by the sanitizer at every mutex/monitor
  acquisition: an edge ``A -> B`` means some thread acquired ``B`` while
  holding ``A``.  A cycle is a *potential* deadlock — reported with the
  threads, lock objects, and acquisition sites involved, even when the
  observed run happened not to interleave fatally.
* :func:`describe_wait_cycles` — a structural wait-for analysis of a
  *stalled* simulation (who is blocked on whose lock/monitor/join),
  used by :class:`repro.errors.DeadlockError` to replace the old
  "likely deadlock" guess with the actual cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Site:
    """A source location inside a simulated operation."""

    file: str
    line: int
    where: str

    def __str__(self) -> str:
        name = self.file.rsplit("/", 1)[-1]
        return f"{name}:{self.line} in {self.where}"


@dataclass
class OrderEdge:
    """``thread`` acquired ``dst`` while holding ``src`` (at least once)."""

    src_vaddr: int
    dst_vaddr: int
    src_cls: str
    dst_cls: str
    thread: str
    held_site: Optional[Site]
    acquire_site: Optional[Site]
    count: int = 1

    def describe(self) -> str:
        held = f" (held since {self.held_site})" if self.held_site else ""
        acq = f" at {self.acquire_site}" if self.acquire_site else ""
        return (f"thread {self.thread} acquired {self.dst_cls} "
                f"{self.dst_vaddr:#x}{acq} while holding {self.src_cls} "
                f"{self.src_vaddr:#x}{held}")


@dataclass
class LockCycle:
    """One lock-order cycle: the edges, in order, closing on themselves."""

    edges: List[OrderEdge]

    @property
    def vaddrs(self) -> List[int]:
        return [edge.src_vaddr for edge in self.edges]

    @property
    def threads(self) -> List[str]:
        seen: List[str] = []
        for edge in self.edges:
            if edge.thread not in seen:
                seen.append(edge.thread)
        return seen

    def render(self) -> str:
        ring = " -> ".join(f"{e.src_cls} {e.src_vaddr:#x}"
                           for e in self.edges)
        first = self.edges[0]
        lines = [f"potential deadlock: lock-order cycle {ring} -> "
                 f"{first.src_cls} {first.src_vaddr:#x}"]
        for edge in self.edges:
            lines.append(f"  {edge.describe()}")
        return "\n".join(lines)


class LockOrderGraph:
    """Directed graph over lock addresses, one edge per observed
    held-while-acquiring pair (first occurrence wins the sites)."""

    def __init__(self) -> None:
        self._edges: Dict[Tuple[int, int], OrderEdge] = {}
        self._adj: Dict[int, Set[int]] = {}

    def record(self, src_vaddr: int, dst_vaddr: int, src_cls: str,
               dst_cls: str, thread: str, held_site: Optional[Site],
               acquire_site: Optional[Site]) -> None:
        key = (src_vaddr, dst_vaddr)
        edge = self._edges.get(key)
        if edge is not None:
            edge.count += 1
            return
        self._edges[key] = OrderEdge(src_vaddr, dst_vaddr, src_cls,
                                     dst_cls, thread, held_site,
                                     acquire_site)
        self._adj.setdefault(src_vaddr, set()).add(dst_vaddr)

    @property
    def edges(self) -> List[OrderEdge]:
        return [self._edges[key] for key in sorted(self._edges)]

    def cycles(self) -> List[LockCycle]:
        """One representative cycle per strongly connected component
        with a cycle in it (deterministic order)."""
        out: List[LockCycle] = []
        for component in self._sccs():
            cycle = self._cycle_in(component)
            if cycle is not None:
                out.append(cycle)
        return out

    # ------------------------------------------------------------------

    def _nodes(self) -> List[int]:
        nodes: Set[int] = set(self._adj)
        for targets in self._adj.values():
            nodes |= targets
        return sorted(nodes)

    def _sccs(self) -> List[List[int]]:
        """Tarjan's SCC algorithm, iterative, deterministic order.
        Only components that can contain a cycle are returned."""
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        sccs: List[List[int]] = []

        def targets(node: int) -> List[int]:
            return sorted(self._adj.get(node, ()))

        for root in self._nodes():
            if root in index:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, child_i = work.pop()
                if child_i == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                children = targets(node)
                advanced = False
                for i in range(child_i, len(children)):
                    child = children[i]
                    if child not in index:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                if low[node] == index[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    has_self = node in self._adj.get(node, ())
                    if len(component) > 1 or has_self:
                        sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def _cycle_in(self, component: List[int]) -> Optional[LockCycle]:
        """Walk edges inside ``component`` from its smallest node until
        it closes; every node of an SCC lies on some cycle."""
        members = set(component)
        start = component[0]
        path = [start]
        seen = {start}
        node = start
        while True:
            next_nodes = [n for n in sorted(self._adj.get(node, ()))
                          if n in members]
            if not next_nodes:
                return None  # pragma: no cover - SCC guarantees an edge
            nxt = next((n for n in next_nodes if n == start), None)
            if nxt is None:
                nxt = next((n for n in next_nodes if n not in seen),
                           next_nodes[0])
            if nxt == start:
                edges = [self._edges[(path[i], path[i + 1])]
                         for i in range(len(path) - 1)]
                edges.append(self._edges[(path[-1], start)])
                return LockCycle(edges)
            if nxt in seen:
                # Trim the path to the inner cycle through ``nxt``.
                at = path.index(nxt)
                inner = path[at:]
                edges = [self._edges[(inner[i], inner[i + 1])]
                         for i in range(len(inner) - 1)]
                edges.append(self._edges[(node, nxt)])
                return LockCycle(edges)
            path.append(nxt)
            seen.add(nxt)
            node = nxt


# ---------------------------------------------------------------------------
# Wait-for analysis of a stalled run (DeadlockError upgrade)
# ---------------------------------------------------------------------------


@dataclass
class _Wait:
    waiter: Any          # SimThread
    holder: Any          # SimThread
    via: str             # human description of the edge


def describe_wait_cycles(kernel: Any) -> List[str]:
    """Render the wait-for cycles of a stalled simulation.

    Edges: a thread parked in ``Lock.acquire``/``Monitor.enter`` waits
    for the current owner; a joiner waits for its join target.  The
    returned lines are empty when no cycle exists (the stall has another
    cause, e.g. a lost wakeup).  When a sanitizer observed the run, each
    held lock is annotated with its acquisition site.
    """
    san = getattr(kernel.cluster, "sanitizer", None)
    waits: Dict[int, List[_Wait]] = {}
    threads: Dict[int, Any] = {t.tid: t for t in kernel.threads}

    for vaddr in sorted(kernel.cluster.objects):
        obj = kernel.cluster.objects[vaddr]
        owner = getattr(obj, "_owner", None)
        waiters = getattr(obj, "_waiters", None)
        if owner is None or not waiters:
            continue
        site = None
        if san is not None:
            site = san.held_site(owner.tid, vaddr)
        held = f", acquired at {site}" if site is not None else ""
        via = (f"{type(obj).__name__} {vaddr:#x} held by "
               f"{owner.name}{held}")
        for waiter in waiters:
            waits.setdefault(waiter.tid, []).append(
                _Wait(waiter, owner, via))
    for target in kernel.threads:
        for joiner in target.joiners:
            waits.setdefault(joiner.tid, []).append(
                _Wait(joiner, target, f"join of {target.name}"))

    cycle = _find_thread_cycle(waits, threads)
    if cycle is None:
        return []
    lines = ["wait-for cycle detected:"]
    for wait in cycle:
        lines.append(f"  thread {wait.waiter.name} waits on {wait.via}")
    return lines


def _find_thread_cycle(waits: Dict[int, List[_Wait]],
                       threads: Dict[int, Any]) -> Optional[List[_Wait]]:
    """DFS over the wait-for multigraph; first cycle found wins
    (iteration order is deterministic)."""
    for start in sorted(waits):
        path: List[_Wait] = []
        on_path: List[int] = [start]
        found = _dfs_cycle(start, waits, path, on_path, set())
        if found is not None:
            return found
    return None


def _dfs_cycle(tid: int, waits: Dict[int, List[_Wait]],
               path: List[_Wait], on_path: List[int],
               dead: Set[int]) -> Optional[List[_Wait]]:
    for wait in waits.get(tid, ()):
        holder = wait.holder.tid
        if holder in on_path:
            at = on_path.index(holder)
            return path[at:] + [wait]
        if holder in dead:
            continue
        path.append(wait)
        on_path.append(holder)
        found = _dfs_cycle(holder, waits, path, on_path, dead)
        if found is not None:
            return found
        path.pop()
        on_path.pop()
    dead.add(tid)
    return None
