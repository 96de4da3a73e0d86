"""AmberSan: the dynamic happens-before sanitizer for simulated runs.

Model
-----
The paper provides **no coherence** for concurrently shared mutable
objects: correctness rests on the section-4 synchronization objects and
on the discipline that ``immutable``-marked objects are never written
after replication.  The simulator executes everything on one OS thread
in deterministic event order, which makes exact happens-before tracking
cheap: we maintain a vector clock per simulated thread, advance it at
every synchronization event, and keep FastTrack-style shadow state (last
write epoch + read epochs) per public field of every tracked
:class:`~repro.sim.objects.SimObject`.

Happens-before edges:

* ``Fork``/``Start``   parent -> child
* ``Join``             child exit -> joiner
* ``Wakeup``           waker -> woken (covers ``CondVar.signal``)
* lock/monitor         release -> subsequent acquire (per object)
* barrier              all arrivals -> all departures (per cycle)
* **operation steps**  the simulator runs each generator segment (and
  each atomic operation) of an object's operations atomically; AmberSan
  mirrors that guarantee as a per-object pseudo-lock around every step.
  An object's *own* operations are therefore ordered on its own fields
  — exactly the atomicity real Amber provides via per-object monitors
  of section 2.2 — while **direct touches of another object's fields**
  get no such edge and must be ordered by real synchronization.

Findings (all deduplicated by site pair, capped, and mirrored into the
run's metrics registry and tracer):

``AMBSAN-RACE``
    Two threads access the same field of a shared mutable object with
    neither ordering edge nor common lock; both sites and the offending
    thread's migration history are reported.
``AMBSAN-IMMUT``
    A write to an object previously marked immutable — after
    replication the replicas silently diverge, the exact hazard the
    paper warns about (section 2.3).
``AMBSAN-RESIDENT``
    A direct read/write of a non-resident object's state.  Real Amber
    would fault here; the simulator's single-instance representation
    happens to make the access "work", which is why it must be flagged.
``AMBSAN-ORDER``
    A cycle in the lock-order graph (potential deadlock), reported even
    when the run did not deadlock.
``AMBSAN-OPAQUE``
    A sanitize-tracked class keeps public state where the class-level
    interposition cannot see it: a public ``__slots__`` entry (reads
    bypass the ``__dict__`` membership check) or a public ``property``
    (values are computed, never stored).  Accesses to such members are
    silently *not* race-checked, so the class is flagged instead of
    being half-covered.

The sanitizer is passive: it never schedules events, charges costs, or
draws randomness, so ``--sanitize`` changes no simulated timestamps.
Field interposition is installed *on the class* only while a sanitizer
is active — unsanitized runs pay nothing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import FrameType
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analyze import runtime as _rt
from repro.analyze.hb import Epoch, VectorClock
from repro.analyze.lockorder import LockOrderGraph, Site

#: Hard cap on retained findings (dedup usually keeps it tiny).
MAX_FINDINGS = 200


@dataclass(frozen=True)
class AccessSite:
    """Where an access happened: source position, enclosing operation,
    thread, node, and simulated time."""

    file: str
    line: int
    op: str
    thread: str
    node: Optional[int]
    t_us: float

    def __str__(self) -> str:
        name = self.file.rsplit("/", 1)[-1]
        return (f"{name}:{self.line} in {self.op} "
                f"[{self.thread} @node {self.node} t={self.t_us:.1f}us]")

    def stable_key(self) -> str:
        """Seed-independent identity (no timestamps, no node)."""
        name = self.file.rsplit("/", 1)[-1]
        return f"{name}:{self.line}:{self.op}:{self.thread}"


@dataclass
class Finding:
    """One sanitizer diagnostic."""

    rule: str
    obj_cls: str
    obj_vaddr: int
    field: str
    message: str
    site: Optional[AccessSite]
    prior: Optional[AccessSite] = None
    #: Node-hop history of the offending thread: [(node, t_us), ...]
    migrations: Tuple[Tuple[int, float], ...] = ()

    def signature(self) -> str:
        """Seed-stable identity used by determinism checks and CI."""
        sites = sorted(s.stable_key() for s in (self.site, self.prior)
                       if s is not None)
        return "|".join([self.rule, self.obj_cls, self.field] + sites)

    def render(self) -> str:
        lines = [f"{self.rule}: {self.message}"]
        if self.site is not None:
            lines.append(f"    access: {self.site}")
        if self.prior is not None:
            lines.append(f"    racing: {self.prior}")
        if self.migrations:
            hops = " -> ".join(
                f"node {node} (t={t_us:.1f}us)"
                for node, t_us in self.migrations)
            lines.append(f"    thread migration history: {hops}")
        return "\n".join(lines)


class _FieldState:
    """Shadow state of one (object, field) cell."""

    __slots__ = ("write_epoch", "write_site", "read_epochs", "read_sites")

    def __init__(self) -> None:
        self.write_epoch: Optional[Epoch] = None
        self.write_site: Optional[AccessSite] = None
        self.read_epochs: Dict[int, int] = {}
        self.read_sites: Dict[int, AccessSite] = {}


@dataclass
class SanitizerReport:
    """Findings of one sanitized run, renderable and JSON-friendly."""

    findings: List[Finding]
    races: int
    immutable_writes: int
    residency_violations: int
    order_cycles: int
    steps: int
    threads: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def signatures(self) -> List[str]:
        return sorted(f.signature() for f in self.findings)

    def render(self) -> str:
        head = (f"AmberSan: {len(self.findings)} finding(s) over "
                f"{self.threads} thread(s), {self.steps} operation "
                f"step(s)")
        if not self.findings:
            return head + " — clean"
        parts = [head]
        for finding in self.findings:
            parts.append(finding.render())
        return "\n".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "races": self.races,
            "immutable_writes": self.immutable_writes,
            "residency_violations": self.residency_violations,
            "order_cycles": self.order_cycles,
            "steps": self.steps,
            "threads": self.threads,
            "signatures": self.signatures(),
        }


class Sanitizer:
    """Observes one simulated run.  :func:`repro.analyze.runtime.
    sanitize_runs` builds one per :class:`repro.sim.program.AmberProgram`
    run in its block (``make=`` for a subclass); read :meth:`report`."""

    def __init__(self) -> None:
        self.cluster: Any = None
        self.findings: List[Finding] = []
        self.lock_order = LockOrderGraph()
        self.races = 0
        self.immutable_writes = 0
        self.residency_violations = 0
        self.steps = 0
        self._vcs: Dict[int, VectorClock] = {}
        self._sync: Dict[Tuple[str, int], VectorClock] = {}
        self._cells: Dict[Tuple[int, str], _FieldState] = {}
        self._dedup: Set[Tuple[Any, ...]] = set()
        #: Stack of (thread, step-object vaddr, "Cls.method") frames.
        self._current: List[Tuple[Any, int, str]] = []
        self._held: Dict[int, Dict[int, Site]] = {}
        self._migrations: Dict[int, List[Tuple[int, float]]] = {}
        self._busy = False
        #: Per-class cache of opaque public members (slots/properties).
        self._opaque_cache: Dict[type, Tuple[Tuple[str, str], ...]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, cluster: Any) -> None:
        """Attach to a cluster and install the field interposition."""
        self.cluster = cluster
        cluster.sanitizer = self
        _install_hooks()

    def unbind(self) -> None:
        _remove_hooks()

    def report(self) -> SanitizerReport:
        findings = list(self.findings)
        cycles = self.lock_order.cycles()
        for cycle in cycles:
            first = cycle.edges[0]
            findings.append(Finding(
                rule="AMBSAN-ORDER",
                obj_cls=first.src_cls,
                obj_vaddr=first.src_vaddr,
                field="-",
                message=cycle.render(),
                site=None))
        return SanitizerReport(
            findings=findings,
            races=self.races,
            immutable_writes=self.immutable_writes,
            residency_violations=self.residency_violations,
            order_cycles=len(cycles),
            steps=self.steps,
            threads=len(self._vcs))

    # ------------------------------------------------------------------
    # Kernel hooks: operation steps
    # ------------------------------------------------------------------

    def step_begin(self, thread: Any, obj: Any, method: str) -> None:
        """A generator segment (or atomic body) of ``obj.method`` starts
        executing on ``thread``.  The per-object step pseudo-lock is
        acquired: join the object's step clock into the thread."""
        vaddr = obj.__dict__.get("_vaddr")
        if vaddr is None:  # unregistered object: untracked
            vaddr = -id(obj)
        self.steps += 1
        if type(obj).SANITIZE_FIELDS:
            self._check_opaque(type(obj), vaddr)
        tid = thread.tid
        vc = self._vc(tid, thread)
        step = self._sync.get(("step", vaddr))
        if step is not None:
            vc.join(step)
        self._current.append(
            (thread, vaddr, f"{type(obj).__name__}.{method}"))

    def step_end(self, thread: Any, obj: Any) -> None:
        """Release the step pseudo-lock: publish the thread's clock as
        the object's step clock and advance the thread."""
        entry = self._current.pop()
        vaddr = entry[1]
        tid = thread.tid
        vc = self._vcs[tid]
        key = ("step", vaddr)
        step = self._sync.get(key)
        if step is None:
            self._sync[key] = vc.copy()
        else:
            step.join(vc)
        vc.tick(tid)

    # ------------------------------------------------------------------
    # Kernel hooks: thread lifecycle
    # ------------------------------------------------------------------

    def on_start(self, parent: Any, child: Any) -> None:
        """Fork/Start: the child inherits the parent's clock."""
        pvc = self._vc(parent.tid, parent)
        cvc = self._vc(child.tid, child)
        cvc.join(pvc)
        cvc.tick(child.tid)
        pvc.tick(parent.tid)

    def on_join(self, joiner: Any, target: Any) -> None:
        """Join: the target's entire history flows into the joiner."""
        tvc = self._vc(target.tid, target)
        jvc = self._vc(joiner.tid, joiner)
        jvc.join(tvc)

    def on_create(self, obj: Any) -> None:
        """A ``New`` registered ``obj``: flag classes whose public
        state the field interposition cannot track (AMBSAN-OPAQUE)."""
        if type(obj).SANITIZE_FIELDS:
            vaddr = obj.__dict__.get("_vaddr")
            self._check_opaque(type(obj),
                               vaddr if vaddr is not None else -id(obj))

    def on_wakeup(self, waker: Any, target: Any) -> None:
        """Wakeup (Suspend/Wakeup, CondVar.signal): waker -> woken."""
        wvc = self._vc(waker.tid, waker)
        tvc = self._vc(target.tid, target)
        tvc.join(wvc)
        wvc.tick(waker.tid)

    def on_migrate(self, thread: Any, node_id: int, t_us: float) -> None:
        """The thread completed a migration hop to ``node_id``."""
        self._hops(thread).append((node_id, t_us))

    # ------------------------------------------------------------------
    # Synchronization-object hooks (called from repro.sim.sync)
    # ------------------------------------------------------------------

    def on_acquire(self, sync_obj: Any, thread: Any,
                   order: bool = True) -> None:
        vaddr = sync_obj.vaddr
        tid = thread.tid
        vc = self._vc(tid, thread)
        stored = self._sync.get(("sync", vaddr))
        if stored is not None:
            vc.join(stored)
        if not order:
            return
        site = self._caller_site(thread)
        held = self._held.setdefault(tid, {})
        cls = type(sync_obj).__name__
        for held_vaddr, held_site in held.items():
            held_obj = self.cluster.objects.get(held_vaddr)
            self.lock_order.record(
                held_vaddr, vaddr,
                type(held_obj).__name__ if held_obj else "Lock", cls,
                thread.name, held_site, site)
        held[vaddr] = site if site is not None else Site("?", 0, "?")

    def on_release(self, sync_obj: Any, thread: Any,
                   order: bool = True) -> None:
        vaddr = sync_obj.vaddr
        tid = thread.tid
        vc = self._vc(tid, thread)
        key = ("sync", vaddr)
        stored = self._sync.get(key)
        if stored is None:
            self._sync[key] = vc.copy()
        else:
            stored.join(vc)
        vc.tick(tid)
        if order:
            held = self._held.get(tid)
            if held is not None:
                held.pop(vaddr, None)

    def on_barrier(self, barrier: Any, threads: List[Any]) -> None:
        """A barrier cycle completed: all arrivals precede all
        departures, so every party's clock becomes the join."""
        joined = VectorClock()
        for thread in threads:
            joined.join(self._vc(thread.tid, thread))
        for thread in threads:
            vc = self._vcs[thread.tid]
            vc.join(joined)
            vc.tick(thread.tid)

    def held_site(self, tid: int, vaddr: int) -> Optional[Site]:
        """Where ``tid`` acquired the lock at ``vaddr`` (if held)."""
        return self._held.get(tid, {}).get(vaddr)

    # ------------------------------------------------------------------
    # Field access (called from the class-level interposition)
    # ------------------------------------------------------------------

    def record_access(self, obj: Any, obj_dict: Dict[str, Any],
                      vaddr: int, name: str, is_write: bool,
                      frame: Optional[FrameType]) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._record_access(obj, obj_dict, vaddr, name, is_write,
                                frame)
        finally:
            self._busy = False

    def _record_access(self, obj: Any, obj_dict: Dict[str, Any],
                       vaddr: int, name: str, is_write: bool,
                       frame: Optional[FrameType]) -> None:
        thread, step_vaddr, op = self._current[-1]
        tid = thread.tid
        vc = self._vcs[tid]
        site = self._site(frame, op, thread)

        if is_write and obj_dict.get("_immutable"):
            self.immutable_writes += 1
            self._report(Finding(
                rule="AMBSAN-IMMUT",
                obj_cls=type(obj).__name__, obj_vaddr=vaddr, field=name,
                message=(f"write to immutable object "
                         f"{type(obj).__name__} {vaddr:#x} field "
                         f"{name!r}: replicas diverge silently"),
                site=site, migrations=tuple(self._hops(thread))))

        if vaddr != step_vaddr and self.cluster is not None \
                and thread.location is not None:
            node = self.cluster.nodes[thread.location]
            if not node.descriptors.is_resident(vaddr):
                self.residency_violations += 1
                verb = "write to" if is_write else "read of"
                self._report(Finding(
                    rule="AMBSAN-RESIDENT",
                    obj_cls=type(obj).__name__, obj_vaddr=vaddr,
                    field=name,
                    message=(f"direct {verb} non-resident object "
                             f"{type(obj).__name__} {vaddr:#x} field "
                             f"{name!r} from node {thread.location}: "
                             "real Amber state lives elsewhere"),
                    site=site, migrations=tuple(self._hops(thread))))

        cell = self._cells.get((vaddr, name))
        if cell is None:
            cell = _FieldState()
            self._cells[(vaddr, name)] = cell
        if is_write:
            prior: Optional[AccessSite] = None
            kind = ""
            we = cell.write_epoch
            if we is not None and we.tid != tid and not vc.covers(we):
                prior, kind = cell.write_site, "write/write"
            else:
                for rtid, rclock in cell.read_epochs.items():
                    if rtid != tid and rclock > vc.get(rtid):
                        prior = cell.read_sites.get(rtid)
                        kind = "read/write"
                        break
            if prior is not None or kind:
                self._race(obj, vaddr, name, kind, site, prior, thread)
            cell.write_epoch = vc.epoch(tid)
            cell.write_site = site
            cell.read_epochs = {}
            cell.read_sites = {}
        else:
            we = cell.write_epoch
            if we is not None and we.tid != tid and not vc.covers(we):
                self._race(obj, vaddr, name, "write/read", site,
                           cell.write_site, thread)
            cell.read_epochs[tid] = vc.get(tid)
            cell.read_sites[tid] = site

    def _check_opaque(self, cls: type, vaddr: int) -> None:
        """Flag public members the field interposition cannot track
        (see ``AMBSAN-OPAQUE`` in the module docstring) instead of
        silently skipping their accesses."""
        opaque = self._opaque_cache.get(cls)
        if opaque is None:
            opaque = _opaque_members(cls)
            self._opaque_cache[cls] = opaque
        for kind, name in opaque:
            self._report(Finding(
                rule="AMBSAN-OPAQUE",
                obj_cls=cls.__name__, obj_vaddr=vaddr, field=name,
                message=(f"public {kind} {cls.__name__}.{name} is "
                         f"invisible to the field interposition: "
                         f"accesses to it are NOT race-checked "
                         f"(store shared state in plain instance "
                         f"fields, or set SANITIZE_FIELDS = False "
                         f"and synchronize by hand)"),
                site=None))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _race(self, obj: Any, vaddr: int, name: str, kind: str,
              site: AccessSite, prior: Optional[AccessSite],
              thread: Any) -> None:
        self.races += 1
        self._report(Finding(
            rule="AMBSAN-RACE",
            obj_cls=type(obj).__name__, obj_vaddr=vaddr, field=name,
            message=(f"unsynchronized {kind} of "
                     f"{type(obj).__name__} {vaddr:#x} field {name!r}: "
                     "no happens-before edge and no common lock"),
            site=site, prior=prior,
            migrations=tuple(self._hops(thread))))

    def _report(self, finding: Finding) -> None:
        key = (finding.rule, finding.obj_cls, finding.field,
               finding.site.file if finding.site else "",
               finding.site.line if finding.site else 0,
               finding.prior.file if finding.prior else "",
               finding.prior.line if finding.prior else 0)
        if key in self._dedup or len(self.findings) >= MAX_FINDINGS:
            return
        self._dedup.add(key)
        self.findings.append(finding)
        if self.cluster is not None:
            slug = finding.rule.lower().replace("-", "_")
            self.cluster.metrics.inc(slug)
            tracer = self.cluster.tracer
            if tracer is not None:
                tracer.emit(
                    t_us=self.cluster.sim.now_us,
                    kind="san-finding",
                    node=(finding.site.node or 0) if finding.site
                    else 0,
                    thread=finding.site.thread if finding.site else "",
                    vaddr=finding.obj_vaddr,
                    detail=f"{finding.rule} {finding.obj_cls}."
                           f"{finding.field}")

    def _vc(self, tid: int, thread: Any) -> VectorClock:
        vc = self._vcs.get(tid)
        if vc is None:
            vc = VectorClock()
            vc.tick(tid)
            self._vcs[tid] = vc
            if thread.location is not None and tid not in \
                    self._migrations:
                now = (self.cluster.sim.now_us
                       if self.cluster is not None else 0.0)
                self._migrations[tid] = [(thread.location, now)]
        return vc

    def _hops(self, thread: Any) -> List[Tuple[int, float]]:
        hops = self._migrations.get(thread.tid)
        if hops is None:
            hops = []
            self._migrations[thread.tid] = hops
        return hops

    def _site(self, frame: Optional[FrameType], op: str,
              thread: Any) -> AccessSite:
        file, line = "?", 0
        if frame is not None:
            file = frame.f_code.co_filename
            line = frame.f_lineno
        now = (self.cluster.sim.now_us
               if self.cluster is not None else 0.0)
        return AccessSite(file, line, op, thread.name,
                          thread.location, now)

    def _caller_site(self, thread: Any) -> Optional[Site]:
        """Source position of the frame that invoked the current sync
        operation: the caller activation sits just below the sync op on
        the thread's stack, suspended at its ``yield Invoke`` line."""
        if len(thread.stack) < 2:
            return None
        caller = thread.stack[-2]
        gen = caller.gen
        if gen is None or gen.gi_frame is None:
            return None
        frame = gen.gi_frame
        where = f"{type(caller.obj).__name__}.{caller.method}"
        return Site(frame.f_code.co_filename, frame.f_lineno, where)


def _opaque_members(cls: type) -> Tuple[Tuple[str, str], ...]:
    """Public members of ``cls`` (strictly below ``SimObject``) that
    the class-level interposition cannot observe.

    ``__slots__`` entries never appear in the instance ``__dict__``, so
    :func:`_tracked_getattribute` bails out before recording the read;
    ``property`` values are computed on access and stored nowhere, so
    neither hook ever fires for them.
    """
    from repro.sim.objects import SimObject

    members: Set[Tuple[str, str]] = set()
    for klass in cls.__mro__:
        if klass is SimObject:
            break
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if not name.startswith("_"):
                members.add(("__slots__ entry", name))
        for name, value in klass.__dict__.items():
            if isinstance(value, property) and not name.startswith("_"):
                members.add(("property", name))
    return tuple(sorted(members))


# ---------------------------------------------------------------------------
# Class-level field interposition
# ---------------------------------------------------------------------------
#
# Installed on SimObject only while a sanitizer is active; removal
# restores the plain object protocol so unsanitized runs are untouched.


def _tracked_getattribute(self: Any, name: str) -> Any:
    value = object.__getattribute__(self, name)
    san = _rt.ACTIVE
    if san is None or not san._current or name.startswith("_"):
        return value
    if not type(self).SANITIZE_FIELDS:
        return value
    obj_dict = object.__getattribute__(self, "__dict__")
    if name not in obj_dict:
        return value
    vaddr = obj_dict.get("_vaddr")
    if vaddr is None:
        return value
    san.record_access(self, obj_dict, vaddr, name, False,
                      sys._getframe(1))
    return value


def _tracked_setattr(self: Any, name: str, value: Any) -> None:
    san = _rt.ACTIVE
    if san is not None and san._current and not name.startswith("_") \
            and type(self).SANITIZE_FIELDS:
        obj_dict = object.__getattribute__(self, "__dict__")
        vaddr = obj_dict.get("_vaddr")
        if vaddr is not None:
            san.record_access(self, obj_dict, vaddr, name, True,
                              sys._getframe(1))
    object.__setattr__(self, name, value)


def _install_hooks() -> None:
    from repro.sim.objects import SimObject

    SimObject.__getattribute__ = _tracked_getattribute  # type: ignore
    SimObject.__setattr__ = _tracked_setattr  # type: ignore


def _remove_hooks() -> None:
    from repro.sim.objects import SimObject

    for dunder in ("__getattribute__", "__setattr__"):
        try:
            delattr(SimObject, dunder)
        except AttributeError:  # pragma: no cover - already clean
            pass
