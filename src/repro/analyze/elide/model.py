"""Thread-escape and synchronization-usage classification.

Built on the AmberFlow :class:`~repro.analyze.flow.model.FlowModel`,
which records classes, field types, and every ``New``/``Invoke``/
``Fork``/``Attach`` site.  AmberElide adds the one thing flow does not
track — *which references carry instances across a thread boundary* —
with a dedicated transfer pass over the same ASTs, then computes a
three-point confinement lattice per class:

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
unclassified, and the dynamic soundness audit (``repro elide
--verify``) checks the claims against real runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.flow.model import FlowModel, scan_sources

#: The sim sync classes whose sites the lock analysis classifies.
LOCK_CLASSES = ("Lock", "Monitor", "SpinLock")

#: Syscall call heads the transfer pass understands.
_NEW, _INVOKE, _FAST, _FORK, _ATTACH = (
    "New", "Invoke", "FastInvoke", "Fork", "Attach")


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
    """The classification result consumed by artifact + diagnostics."""

    flow: FlowModel
    confined: List[str] = field(default_factory=list)
    immutable: List[str] = field(default_factory=list)
    #: class -> why it is shared (diagnostics evidence).
    shared: Dict[str, str] = field(default_factory=dict)
    lock_sites: List[LockSite] = field(default_factory=list)

    @property
    def skip_classes(self) -> List[str]:
        return sorted(set(self.confined) | set(self.immutable))


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


class _FnScan:
    """Flow-insensitive scan of one function body."""

    def __init__(self, transfer: _Transfer, model: FlowModel,
                 path: str, cls: str) -> None:
        self.t = transfer
        self.model = model
        self.path = path
        self.cls = cls                  # "" for module-level functions
        self.owner = cls or "<main>"
        self.env: Dict[str, str] = {}   # local var -> class name
        #: lock key ("lock", "self.mutex") -> index into transfer.locks
        self.lock_of: Dict[str, int] = {}
        #: id() of lock-creating Call nodes bound to a tracked name —
        #: any other lock creation is untrackable and must be recorded
        #: as an unsafe site (the all-sites pair rule depends on it).
        self.bound_lock_calls: Set[int] = set()

    # -- expression classification --------------------------------------

    def _cls_of(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.cls or None
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and self.cls:
            cm = self.model.classes.get(self.cls)
            if cm is not None:
                return cm.field_classes.get(node.attr) \
                    or cm.field_elems.get(node.attr)
            return None
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in self.model.classes:
            return node.func.id
        return None

    @staticmethod
    def _key(node: ast.expr) -> Optional[str]:
        """Source key for lock tracking: plain name or self attribute."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return f"self.{node.attr}"
        return None

    @staticmethod
    def _syscall(node: ast.expr) -> Optional[ast.Call]:
        """Unwrap ``yield Call(...)`` / plain ``Call(...)``."""
        if isinstance(node, (ast.Yield, ast.Await)) and \
                node.value is not None:
            node = node.value
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name):
            return node
        return None

    @staticmethod
    def _head(call: ast.Call) -> str:
        assert isinstance(call.func, ast.Name)
        return call.func.id

    # -- passes ---------------------------------------------------------

    def run(self, fn: ast.AST) -> None:
        body = list(ast.iter_child_nodes(fn))
        nodes = [n for stmt in body for n in ast.walk(stmt)
                 if not isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef))]
        self._bind(nodes)
        self._collect(nodes)

    def _bind(self, nodes: Sequence[ast.AST]) -> None:
        """Pass 1: variable -> class bindings and lock creations."""
        for node in nodes:
            if not isinstance(node, ast.Assign) or \
                    len(node.targets) != 1:
                continue
            target = node.targets[0]
            key = self._key(target)
            call = self._syscall(node.value)
            cls: Optional[str] = None
            if call is not None and self._head(call) == _NEW and \
                    call.args and isinstance(call.args[0], ast.Name):
                cls = call.args[0].id
            elif isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Name):
                name = node.value.func.id
                if name in self.model.classes or name in LOCK_CLASSES:
                    cls = name
            if cls is None:
                continue
            if key is None:
                continue
            if cls in LOCK_CLASSES:
                lock_call = call if call is not None else (
                    node.value if isinstance(node.value, ast.Call)
                    else None)
                if lock_call is not None:
                    self.bound_lock_calls.add(id(lock_call))
                flows: Set[str] = set()
                unsafe: Optional[str] = None
                if key.startswith("self."):
                    # A lock stored in a field is reachable through
                    # every path that reaches the enclosing class.
                    flows.add(self.cls)
                self.lock_of[key] = len(self.t.locks)
                self.t.locks.append(
                    (self.path, node.lineno, self.owner, key, cls,
                     flows, unsafe))
            elif isinstance(target, ast.Name):
                self.env[key] = cls

    def _lock_flow(self, key: str, dest: Optional[str],
                   what: str) -> None:
        entry = self.t.locks[self.lock_of[key]]
        if dest is None:
            self.t.locks[self.lock_of[key]] = entry[:6] + (what,)
        else:
            entry[5].add(dest)

    def _args_of(self, call: ast.Call, skip: int) -> List[ast.expr]:
        return list(call.args[skip:]) + \
            [kw.value for kw in call.keywords if kw.value is not None]

    #: Container mutators: ``xs.append(obj)`` stores ``obj`` somewhere
    #: the per-variable tracking cannot follow, so it leaks.
    _CONTAINER_STORES = frozenset(
        {"append", "add", "extend", "insert", "appendleft", "put"})

    def _collect(self, nodes: Sequence[ast.AST]) -> None:
        """Pass 2: carrying edges, leaks, lock flows."""
        for node in nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name):
                self._call(node)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self._CONTAINER_STORES:
                self._container_store(node)
            elif isinstance(node, ast.Return) and \
                    node.value is not None:
                self._return(node.value)
            elif isinstance(node, ast.Assign) and \
                    len(node.targets) == 1:
                self._store(node.targets[0], node.value)

    def _container_store(self, call: ast.Call) -> None:
        for arg in self._args_of(call, 0):
            key = self._key(arg)
            if key is not None and key in self.lock_of:
                self._lock_flow(key, None, "stored into a container")
                continue
            cls = self._cls_of(arg)
            if cls is not None:
                self.t.leaked.setdefault(
                    cls, f"stored into a container at "
                         f"{self.path}:{call.lineno}")

    def _unbound_lock(self, call: ast.Call, cls: str) -> None:
        if id(call) not in self.bound_lock_calls:
            self.t.locks.append(
                (self.path, call.lineno, self.owner, "<unbound>", cls,
                 set(), "creation not bound to a trackable name"))

    def _call(self, call: ast.Call) -> None:
        head = self._head(call)
        if head in LOCK_CLASSES:
            self._unbound_lock(call, head)
            return
        if head == _NEW:
            if not call.args or not isinstance(call.args[0], ast.Name):
                return
            dest: Optional[str] = call.args[0].id
            if dest in LOCK_CLASSES:
                self._unbound_lock(call, dest)
            args = self._args_of(call, 1)
        elif head in (_INVOKE, _FAST):
            if not call.args:
                return
            dest = self._cls_of(call.args[0])
            args = self._args_of(call, 2)
        elif head == _FORK:
            if not call.args:
                return
            dest = self._cls_of(call.args[0])
            args = self._args_of(call, 2)
        elif head == _ATTACH:
            if len(call.args) >= 2:
                a = self._cls_of(call.args[0])
                b = self._cls_of(call.args[1])
                if a and b:
                    self.t.edge(a, b)
                    self.t.edge(b, a)
            return
        else:
            # Unknown helper: anything object-valued passed to it is
            # beyond the analysis — leak it, and kill lock proofs.
            for arg in call.args:
                key = self._key(arg)
                if key is not None and key in self.lock_of:
                    self._lock_flow(key, None,
                                    f"passed to helper {head}()")
                    continue
                cls = self._cls_of(arg)
                if cls is not None:
                    self.t.leaked.setdefault(
                        cls, f"passed to helper {head}() at "
                             f"{self.path}:{call.lineno}")
            return
        for arg in args:
            key = self._key(arg)
            if key is not None and key in self.lock_of:
                if head == _FORK:
                    self._lock_flow(key, None, "crosses a Fork")
                elif dest is None:
                    self._lock_flow(key, None,
                                    "flows to unresolved receiver")
                else:
                    self._lock_flow(key, dest, "")
                continue
            cls = self._cls_of(arg)
            if cls is None:
                continue
            if dest is None:
                self.t.leaked.setdefault(
                    cls, f"argument to unresolved {head} at "
                         f"{self.path}:{call.lineno}")
            else:
                self.t.edge(dest, cls)

    def _return(self, value: ast.expr) -> None:
        key = self._key(value)
        if key is not None and key in self.lock_of:
            self._lock_flow(key, None, "returned from its creator")
            return
        cls = self._cls_of(value)
        if cls is not None:
            if self.cls:
                self.t.edge(self.cls, cls)
            # Module-level returns stay with the calling thread.

    def _store(self, target: ast.expr, value: ast.expr) -> None:
        vkey = self._key(value)
        vcls = self._cls_of(value)
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                if self.cls and vcls is not None:
                    self.t.edge(self.cls, vcls)
                if vkey is not None and vkey in self.lock_of:
                    self._lock_flow(vkey, self.cls or None,
                                    "stored outside a class" if
                                    not self.cls else "")
                return
            owner = self._cls_of(base)
            if owner is not None and owner != self.cls:
                self.t.foreign_written.add(owner)
            if vkey is not None and vkey in self.lock_of:
                self._lock_flow(vkey, owner, "stored into foreign "
                                "object" if owner is None else "")
            elif vcls is not None:
                if owner is not None:
                    self.t.edge(owner, vcls)
                else:
                    self.t.leaked.setdefault(
                        vcls, "stored through unresolved attribute")
        elif isinstance(target, ast.Subscript):
            if vkey is not None and vkey in self.lock_of:
                self._lock_flow(vkey, None, "stored into a container")
            elif vcls is not None:
                self.t.leaked.setdefault(
                    vcls, "stored into a container")


def _scan_transfer(model: FlowModel,
                   sources: Sequence[Tuple[str, str]]) -> _Transfer:
    transfer = _Transfer()
    for path, text in sources:
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                cls = _enclosing_class(tree, node)
                _FnScan(transfer, model, path, cls).run(node)
    return transfer


def _enclosing_class(tree: ast.Module, fn: ast.AST) -> str:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if any(child is fn for child in node.body):
                return node.name
    return ""


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(model: FlowModel,
             sources: Sequence[Tuple[str, str]]) -> ElideModel:
    """Run the confinement/immutability/lock classification."""
    transfer = _scan_transfer(model, sources)

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
    return classify(scan_sources(sources), sources)
