"""Thread-escape and synchronization-usage classification.

Built on the AmberFlow :class:`~repro.analyze.flow.model.FlowModel`,
which records classes, field types, and every ``New``/``Invoke``/
``Fork``/``Attach`` site.  AmberElide adds the one thing flow does not
track — *which references carry instances across a thread boundary* —
with a transfer pass over the same parse (the model's
:class:`~repro.analyze.program.Program`: its scopes, whose owner is
the lock owner the simulator will compute, its vocabulary and its
resolver), then computes a three-point confinement lattice per class:

``confined``
    Every instance is only reachable from the thread that created it.
    Computed as non-membership in the *shared* closure: the seeds are
    fork-target classes (the forking parent and the forked thread both
    hold the instance), and sharedness propagates along instance-
    carrying edges — object-valued fields, container element types,
    ``Attach`` pairs, constructor arguments, invocation arguments,
    fork arguments, and method returns of the carrying class.  A
    creation or invocation alone does *not* share: a scratch object
    built inside a forked method body stays confined to that thread
    even when the enclosing class is shared.

``immutable``
    No field writes outside ``__init__`` — the flow model's
    ``read_only`` per-class fact, tightened by the transfer pass's
    *foreign-write* check (``other.field = x`` from another class's
    code, which the flow model's self-write accounting cannot see).

``elidable lock``
    A ``Lock``/``SpinLock``/``Monitor`` creation site whose instance
    never crosses a fork, is never returned or stored into unknown
    containers, and flows only into confined or immutable classes —
    i.e. the lock is only ever reachable from one thread, so its
    acquire/release pairs cannot contend.

All facts are conservative: anything the pass cannot prove stays
unclassified.  They are advisory: the AMB3xx findings report them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.flow.model import FlowModel, scan_sources
from repro.analyze.program import (
    LOCK_CLASSES,
    SYNC_CLASSES,
    Op,
    Resolver,
    Scope,
    amber_call,
    constructed,
    is_self_field,
    key,
    own_nodes,
    unwrapped,
)

__all__ = ["LOCK_CLASSES", "MAIN_OWNER", "ElideModel", "LockSite",
           "classify", "classify_sources"]

#: Owner name of a lock created outside any user class (the program's
#: main thread runs inside the synthetic ``_MainObject``).
MAIN_OWNER = "<main>"


@dataclass(frozen=True)
class LockSite:
    """One lock creation site and its elidability verdict."""

    path: str
    line: int
    #: Runtime creation context: enclosing class name, or ``<main>``
    #: for module-level functions (the program's main thread).
    owner: str
    #: Source name the lock is bound to (``lock``, ``self.mutex``).
    var: str
    cls: str
    elidable: bool
    reason: str


@dataclass
class ElideModel:
    """The classification result the AMB3xx diagnostics read."""

    flow: FlowModel
    confined: List[str] = field(default_factory=list)
    immutable: List[str] = field(default_factory=list)
    #: class -> why it is shared (diagnostics evidence).
    shared: Dict[str, str] = field(default_factory=dict)
    lock_sites: List[LockSite] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Transfer pass
# ---------------------------------------------------------------------------


@dataclass
class _Transfer:
    """Per-program facts the flow model lacks."""

    #: Instance-carrying edges: container class -> contained classes.
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: Classes whose instances reach an unresolvable context.
    leaked: Dict[str, str] = field(default_factory=dict)
    #: Classes written through a non-``self`` receiver.
    foreign_written: Set[str] = field(default_factory=set)
    #: Raw lock creations: (path, line, owner, var, cls, flows, unsafe).
    locks: List[Tuple[str, int, str, str, str,
                      Set[str], Optional[str]]] = field(
        default_factory=list)

    def edge(self, container: str, contained: Optional[str]) -> None:
        if contained:
            self.edges.setdefault(container, set()).add(contained)


def _lock_created(node: ast.AST) -> Optional[str]:
    """The lock class a call creates (``New(Lock)`` / ``Lock()``)."""
    name = constructed(node)
    return name if name in LOCK_CLASSES else None


#: Where a reference is read, not carried: a field read, an index, a
#: comparison, a test, a format.
_INERT = (ast.Attribute, ast.Subscript, ast.Compare, ast.UnaryOp, ast.If,
          ast.While, ast.Assert, ast.FormattedValue)


class _FnScan:
    """Flow-insensitive scan of one function's own nodes."""

    def __init__(self, transfer: _Transfer, resolver: Resolver,
                 scope: Scope) -> None:
        self.t = transfer
        self.resolver = resolver
        self.path = scope.path
        self.cls = scope.owner          # "" for module-level functions
        self.owner = scope.owner or MAIN_OWNER
        #: Everything the scope binds, over its enclosing functions'.
        self.env = resolver.scope_env(scope)
        self.nodes = list(own_nodes(*scope.fn.body))
        #: lock key ("lock", "self.mutex") -> index into transfer.locks
        self.lock_of: Dict[str, int] = {}
        #: id() of lock-creating Call nodes bound to a tracked name —
        #: any other lock creation is untrackable and must be recorded
        #: as an unsafe site (the all-sites pair rule depends on it).
        self.bound_lock_calls: Set[int] = set()
        #: id() of what pass 2 followed: each use of a tracked lock it
        #: read, and each expression whose instances it resolved (their
        #: parts with them).  Any other use leaks.
        self.lock_uses: Set[int] = set()
        self.followed: Set[int] = set()

    def _cls_of(self, node: Optional[ast.expr]) -> Optional[str]:
        """The class of the instance — or of the instances in the
        container — that ``node`` carries."""
        got = self.resolver.resolve(node, self.env)
        if got is None or node is None:
            return None
        self.followed.add(id(unwrapped(node)))
        return got[0]

    def _lock(self, node: ast.expr) -> Optional[str]:
        """The key of the tracked lock ``node`` names, if it is one."""
        name = key(node)
        if name not in self.lock_of:
            return None
        self.lock_uses.add(id(unwrapped(node)))
        return name

    # -- passes ---------------------------------------------------------

    def run(self) -> None:
        self._bind()
        self._collect()

    def _bind(self) -> None:
        """Pass 1: lock creations bound to a name or a ``self`` field."""
        for node in self.nodes:
            if not isinstance(node, ast.Assign) or \
                    len(node.targets) != 1:
                continue
            target = node.targets[0]
            created = unwrapped(node.value)
            cls = _lock_created(created)
            if cls is None or not (isinstance(target, ast.Name)
                                   or is_self_field(target)):
                continue
            self.bound_lock_calls.add(id(created))
            flows: Set[str] = set()
            if is_self_field(target):
                # A lock stored in a field is reachable through
                # every path that reaches the enclosing class.
                flows.add(self.cls)
            self.lock_of[key(target)] = len(self.t.locks)
            self.t.locks.append(
                (self.path, node.lineno, self.owner, key(target), cls,
                 flows, None))

    def _lock_flow(self, lock: str, dest: Optional[str],
                   what: str) -> None:
        entry = self.t.locks[self.lock_of[lock]]
        if dest is None:
            self.t.locks[self.lock_of[lock]] = entry[:6] + (what,)
        else:
            entry[5].add(dest)

    #: Container mutators: ``xs.append(obj)`` stores ``obj`` somewhere
    #: the per-variable tracking cannot follow, so it leaks.
    _CONTAINER_STORES = frozenset(
        {"append", "add", "extend", "insert", "appendleft", "put"})

    def _collect(self) -> None:
        """Pass 2: carrying edges, leaks, lock flows."""
        for node in self.nodes:
            if isinstance(node, ast.Call):
                self._call(node)
            elif isinstance(node, ast.Return) and \
                    node.value is not None:
                self._return(node.value)
            elif isinstance(node, ast.Assign) and \
                    len(node.targets) == 1:
                self._store(node.targets[0], node.value)
            elif isinstance(node, ast.For):
                self._cls_of(node.iter)     # the resolver binds the target

    def leak_unfollowed(self) -> None:
        """Pass 3, once every scope's pass 2 has run (whose reasons
        stand): a tracked lock or instance that an expression carries
        somewhere pass 2 did not follow — a tuple a loop walks, say —
        leaks.  Reading a field of it, comparing or testing it carries
        it nowhere."""
        for node in self.nodes:
            carries = not isinstance(node, _INERT)
            for part in ast.iter_child_nodes(node):
                if id(node) in self.followed:
                    self.followed.add(id(part))
                if carries and isinstance(part, (ast.Name, ast.Attribute)) \
                        and isinstance(part.ctx, ast.Load) \
                        and (isinstance(part, ast.Name)
                             or is_self_field(part)):
                    self._carried(part)

    def _carried(self, use: ast.expr) -> None:
        """``use`` carries what it names somewhere: it leaks, unless
        pass 2 followed it there."""
        what = "used where the analysis cannot follow it"
        name = key(use)
        if name in self.lock_of:
            if id(use) not in self.lock_uses and \
                    self.t.locks[self.lock_of[name]][6] is None:
                self._lock_flow(name, None, what)
        elif id(use) not in self.followed and \
                self._cls_of(use) not in SYNC_CLASSES:
            # (A sync object is a lock site or nothing.)
            self._leak([use], what, use.lineno)

    def _leak(self, args: Sequence[ast.expr], what: str,
              line: int) -> None:
        """``args`` go where the analysis cannot follow: a lock among
        them loses its proof, a class its confinement."""
        for arg in args:
            lock = self._lock(arg)
            if lock is not None:
                self._lock_flow(lock, None, what)
                continue
            cls = self._cls_of(arg)
            if cls is not None:
                self.t.leaked.setdefault(
                    cls, f"{what} at {self.path}:{line}")

    def _call(self, node: ast.Call) -> None:
        # Calling a method carries its receiver nowhere.
        self.followed.add(id(node.func))
        created = _lock_created(node)
        if created is not None and \
                id(node) not in self.bound_lock_calls:
            self.t.locks.append(
                (self.path, node.lineno, self.owner, "<unbound>",
                 created, set(), "creation not bound to a trackable name"))
        call = amber_call(node)
        if call is not None and call.target is not None \
                and call.op not in (Op.FORK, Op.ATTACH):
            self._lock(call.target)     # operated on, not carried
        if call is not None and call.op is Op.NEW:
            dest: Optional[str] = call.name or None
            if dest is None:
                return
        elif call is not None and call.syscall and (
                call.invoked or call.op is Op.FORK):
            dest = self._cls_of(call.target)
        elif call is not None and call.op is Op.ATTACH:
            a = self._cls_of(call.target)
            b = self._cls_of(call.args[0])
            if a and b:
                self.t.edge(a, b)
                self.t.edge(b, a)
            return
        else:
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in self._CONTAINER_STORES:
                self._leak(list(node.args) + [kw.value for kw in
                                              node.keywords],
                           "stored into a container", node.lineno)
            elif isinstance(func, ast.Name) and created is None:
                # Unknown helper: anything object-valued passed to it
                # is beyond the analysis — leak it, kill lock proofs.
                self._leak(node.args, f"passed to helper {func.id}()",
                           node.lineno)
            return
        assert call is not None
        for arg in call.args:
            lock = self._lock(arg)
            if lock is not None:
                if call.op is Op.FORK:
                    self._lock_flow(lock, None, "crosses a Fork")
                elif dest is None:
                    self._lock_flow(lock, None,
                                    "flows to unresolved receiver")
                else:
                    self._lock_flow(lock, dest, "")
                continue
            cls = self._cls_of(arg)
            if cls is None:
                continue
            if dest is None:
                self.t.leaked.setdefault(
                    cls, f"argument to unresolved {call.name} at "
                         f"{self.path}:{node.lineno}")
            else:
                self.t.edge(dest, cls)

    def _return(self, value: ast.expr) -> None:
        lock = self._lock(value)
        if lock is not None:
            self._lock_flow(lock, None, "returned from its creator")
            return
        cls = self._cls_of(value)
        if cls is not None:
            if self.cls:
                self.t.edge(self.cls, cls)
            # Module-level returns stay with the calling thread.

    def _store(self, target: ast.expr, value: ast.expr) -> None:
        if id(unwrapped(value)) in self.bound_lock_calls:
            return      # a lock site (pass 1), not a carried instance
        if isinstance(target, ast.Name):
            # The resolver binds the name to the instance; an alias of
            # a lock is not tracked.
            self._cls_of(value)
            return
        vkey = self._lock(value)
        vcls = self._cls_of(value)
        if isinstance(target, ast.Attribute):
            if is_self_field(target):
                if self.cls and vcls is not None:
                    self.t.edge(self.cls, vcls)
                if vkey is not None:
                    self._lock_flow(vkey, self.cls or None,
                                    "stored outside a class" if
                                    not self.cls else "")
                return
            owner = self._cls_of(target.value)
            if owner is not None and owner != self.cls:
                self.t.foreign_written.add(owner)
            if vkey is not None:
                self._lock_flow(vkey, owner, "stored into foreign "
                                "object" if owner is None else "")
            elif vcls is not None:
                if owner is not None:
                    self.t.edge(owner, vcls)
                else:
                    self.t.leaked.setdefault(
                        vcls, "stored through unresolved attribute")
        elif isinstance(target, ast.Subscript):
            if vkey is not None:
                self._lock_flow(vkey, None, "stored into a container")
            elif vcls is not None:
                self.t.leaked.setdefault(
                    vcls, "stored into a container")


def _scan_transfer(model: FlowModel) -> _Transfer:
    program = model.program
    resolver = Resolver(program, {*program.classes, *SYNC_CLASSES})
    transfer = _Transfer()
    scans = [_FnScan(transfer, resolver, scope) for scope in program.scopes]
    for scan in scans:
        scan.run()
    for scan in scans:
        scan.leak_unfollowed()
    return transfer


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(model: FlowModel) -> ElideModel:
    """Run the confinement/immutability/lock classification over the
    program ``model`` was scanned from (its one parse is the model's,
    and is not repeated)."""
    transfer = _scan_transfer(model)

    # Carrying edges from the flow model itself.
    edges: Dict[str, Set[str]] = {
        cls: set(values) for cls, values in transfer.edges.items()}
    for cm in model.classes.values():
        row = edges.setdefault(cm.name, set())
        row.update(v for v in cm.field_classes.values()
                   if v in model.classes)
        row.update(v for v in cm.field_elems.values()
                   if v in model.classes)
    for a, b in model.attach_pairs:
        if a in model.classes and b in model.classes:
            edges.setdefault(a, set()).add(b)
            edges.setdefault(b, set()).add(a)

    # Sharedness closure from the fork-target + leak seeds.
    shared: Dict[str, str] = {}
    worklist: List[str] = []
    for cls in sorted(model.fork_target_classes()):
        shared[cls] = "instances are forked (parent and child both " \
                      "hold the reference)"
        worklist.append(cls)
    for cls, why in sorted(transfer.leaked.items()):
        if cls not in shared:
            shared[cls] = why
            worklist.append(cls)
    while worklist:
        cls = worklist.pop()
        for nxt in sorted(edges.get(cls, ())):
            if nxt not in shared:
                shared[nxt] = f"reachable from shared class {cls}"
                worklist.append(nxt)

    instantiated = sorted(model.instantiated_classes()
                          & set(model.classes))
    confined = [cls for cls in instantiated if cls not in shared]
    immutable = [
        cls for cls in instantiated
        if model.classes[cls].read_only
        and cls not in transfer.foreign_written]

    # A lock is elidable only when it is single-thread-reachable: its
    # creator plus flows into *confined* classes.  (A lock guarding
    # shared-immutable reads typically never escapes its creator at
    # all, which this covers; one that is itself stored in shared
    # state can be acquired cross-thread and must keep the slow path.)
    confined_ok = set(confined)
    lock_sites: List[LockSite] = []
    for path, line, owner, var, cls, flows, unsafe in transfer.locks:
        if unsafe is not None:
            verdict, reason = False, unsafe
        else:
            bad = sorted(f for f in flows if f not in confined_ok)
            if bad:
                why = ", ".join(
                    f"{b} ({shared.get(b, 'not proven confined')})"
                    for b in bad)
                verdict, reason = False, f"guards shared state: {why}"
            elif flows:
                verdict = True
                reason = "guards only thread-confined state: " \
                    + ", ".join(sorted(flows))
            else:
                verdict = True
                reason = "only reachable from its creating thread"
        lock_sites.append(LockSite(
            path=path, line=line, owner=owner, var=var, cls=cls,
            elidable=verdict, reason=reason))
    lock_sites.sort(key=lambda s: (s.path, s.line, s.var))

    return ElideModel(
        flow=model,
        confined=confined,
        immutable=immutable,
        shared=dict(sorted(shared.items())),
        lock_sites=lock_sites)


def classify_sources(sources: Sequence[Tuple[str, str]]) -> ElideModel:
    return classify(scan_sources(sources))
