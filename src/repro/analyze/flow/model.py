"""The object-flow model: AST -> classes, fields, call graph, escapes.

The model is deliberately *lightweight*.  It is written against the
shared front end (:mod:`repro.analyze.program`): the sources are
parsed there, once; the functions it walks and the class each belongs
to are that module's scopes; the calls it records are what
``amber_call`` recognises; and receivers resolve through its
:class:`~repro.analyze.program.Resolver`, asked for the program's own
classes only (a ``CondVar`` receiver stays unknown here).  What this
module adds is the walk in statement order — names are bound and
retired as the body runs, a nested function closes over what is bound
where it is defined — the site records, the loop weights and the
escape tracking.

Unresolvable receivers stay unknown and are skipped by every consumer —
the analysis is conservative by construction.  Loop weights multiply
statically-resolvable ``range`` trip counts; unknown loops contribute a
fixed factor so "inside a loop" still outranks "straight-line".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analyze.lint import collect_sources, range_len
from repro.analyze.program import (
    AmberCall,
    Env,
    Op,
    Program,
    Resolver,
    Scope,
    amber_call,
    called_name,
    is_self_field,
    key,
    own_exprs,
)

#: Weight multiplier for loops whose trip count is not a constant.
UNKNOWN_TRIPS = 4
#: Cap on accumulated loop weight (keeps products bounded).
MAX_WEIGHT = 10_000

#: Method names that mutate their receiver container in place.
_MUTATORS = {
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "remove", "clear", "add", "discard", "update", "setdefault",
    "sort", "reverse", "push",
}

#: Mutable plain-Python constructors (AMB205 escape sources).
_MUTABLE_CTORS = {"list", "dict", "set", "deque", "defaultdict",
                  "bytearray", "Counter", "OrderedDict"}


# ---------------------------------------------------------------------------
# Sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvokeSite:
    """One ``Invoke``/``FastInvoke`` (or live method call) in the AST."""

    path: str
    line: int
    #: Qualified caller, e.g. ``SorSection.edger`` or ``run_x.main``.
    caller: str
    #: Class owning the calling code ("" for module-level functions).
    caller_class: str
    #: Source text of the receiver expression.
    receiver: str
    #: Resolved receiver class, or None when unknown.
    receiver_class: Optional[str]
    method: str
    loop_depth: int
    #: Estimated executions relative to one caller activation.
    weight: int
    #: True for ``FastInvoke`` (co-residency enforced by the kernel).
    fast: bool
    #: Locks (receiver source text) held at the call site.
    held: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ForkSite:
    """One ``Fork``/``NewThread`` thread creation."""

    path: str
    line: int
    caller: str
    target: str
    target_class: Optional[str]
    method: str
    loop_depth: int
    weight: int
    #: Names of mutable plain-Python locals passed as arguments.
    mutable_args: Tuple[str, ...] = ()


@dataclass(frozen=True)
class NewSite:
    """One ``New(Cls, ...)`` object creation."""

    path: str
    line: int
    caller: str
    cls: str
    loop_depth: int
    #: Constant trip count of the enclosing loops, when resolvable.
    trips: Optional[int]
    #: Whether the program already passes ``on_node=``.
    placed: bool


@dataclass(frozen=True)
class MoveSite:
    """One ``MoveTo(target, node)``."""

    path: str
    line: int
    caller: str
    target: str
    target_class: Optional[str]


@dataclass(frozen=True)
class EscapeSite:
    """A mutable plain-Python local crossing into forked threads."""

    path: str
    line: int
    caller: str
    name: str
    #: "refork" (same value into a second thread) or "mutate-after-fork".
    kind: str
    first_line: int


@dataclass
class MethodModel:
    """Field effects of one method body."""

    cls: str
    name: str
    path: str
    line: int
    #: self fields read (attribute loads).
    reads: Set[str] = field(default_factory=set)
    #: self field -> first line written (stores, augments, mutator calls).
    writes: Dict[str, int] = field(default_factory=dict)


@dataclass
class ClassModel:
    """One class defined in the scanned sources."""

    name: str
    path: str
    line: int
    bases: Tuple[str, ...]
    methods: Dict[str, MethodModel] = field(default_factory=dict)
    #: field -> referenced class (object-valued fields).
    field_classes: Dict[str, str] = field(default_factory=dict)
    #: field -> element class (container-of-objects fields).
    field_elems: Dict[str, str] = field(default_factory=dict)

    def writer_methods(self) -> List[MethodModel]:
        """Methods (excluding ``__init__``) that write self state."""
        return [m for name, m in sorted(self.methods.items())
                if name != "__init__" and m.writes]

    @property
    def read_only(self) -> bool:
        """No method outside ``__init__`` writes self state."""
        return not self.writer_methods()


@dataclass
class FlowModel:
    """Everything the hint derivation and diagnostics consume."""

    paths: List[str] = field(default_factory=list)
    classes: Dict[str, ClassModel] = field(default_factory=dict)
    invokes: List[InvokeSite] = field(default_factory=list)
    forks: List[ForkSite] = field(default_factory=list)
    news: List[NewSite] = field(default_factory=list)
    moves: List[MoveSite] = field(default_factory=list)
    escapes: List[EscapeSite] = field(default_factory=list)
    #: Classes some instance of which gets ``SetImmutable``.
    immutable_classes: Set[str] = field(default_factory=set)
    #: (target class, to class) pairs seen in ``Attach``.
    attach_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    #: Files that failed to parse: path -> message.
    errors: Dict[str, str] = field(default_factory=dict)
    #: The parsed sources the model was built from: the one parse that
    #: AmberElide's classification goes on reading.
    program: Program = field(default_factory=lambda: Program(()),
                             repr=False, compare=False)

    # -- derived views ---------------------------------------------------

    def fork_target_classes(self) -> Set[str]:
        return {f.target_class for f in self.forks
                if f.target_class is not None}

    def thread_roots(self) -> Set[Tuple[str, str]]:
        """(class, method) bodies that run as threads."""
        return {(f.target_class, f.method) for f in self.forks
                if f.target_class is not None}

    def spread_classes(self) -> Set[str]:
        """Fork-target classes instantiated per node / in a loop."""
        multi: Set[str] = set()
        seen: Dict[str, int] = {}
        for site in self.news:
            seen[site.cls] = seen.get(site.cls, 0) + 1
            if site.loop_depth >= 1 or seen[site.cls] >= 2:
                multi.add(site.cls)
        return multi & self.fork_target_classes()

    def invoked_by(self) -> Dict[str, Dict[str, int]]:
        """receiver class -> caller class -> total weight.

        Only boundary-crossing invocations count: a different class, or
        the same class through a non-``self`` receiver (a *different
        instance*, e.g. a SOR section poking its neighbor)."""
        table: Dict[str, Dict[str, int]] = {}
        for site in self.invokes:
            if site.receiver_class is None or not site.caller_class:
                continue
            if site.receiver == "self":
                continue
            row = table.setdefault(site.receiver_class, {})
            row[site.caller_class] = (row.get(site.caller_class, 0)
                                      + site.weight)
        return table

    def self_affine_classes(self) -> Set[str]:
        """Classes whose instances invoke *other instances of the same
        class* (chatty index-adjacent pairs, e.g. SOR sections)."""
        return {cls for cls, row in self.invoked_by().items()
                if row.get(cls, 0) > 0}

    def instantiated_classes(self) -> Set[str]:
        return {site.cls for site in self.news}


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def scan_sources(sources: Sequence[Tuple[str, str]]) -> FlowModel:
    """Build the model from ``(path, source)`` pairs.

    The class table comes first (so annotations resolve only to classes
    defined in the scanned program) and types the ``self`` fields; the
    walk of every outermost function — a nested one is walked where it
    is defined — then builds sites and escapes."""
    program = Program(sources)
    model = FlowModel(paths=[path for path, _ in sources],
                      program=program)
    model.errors.update((path, message) for path, (_line, message)
                        in program.errors.items())
    resolver = Resolver(program, program.classes)
    for path, node in program.class_nodes:
        fields = resolver.fields[node.name]
        model.classes[node.name] = ClassModel(
            name=node.name, path=path, line=node.lineno,
            bases=tuple(_base_name(b) for b in node.bases),
            field_classes=fields.names, field_elems=fields.elems)
    for scope in program.scopes:
        if scope.parent is None:
            _Walker(model, resolver, scope, None).run()
    return model


def scan_paths(paths: Iterable[str]) -> FlowModel:
    """Build the model from every ``.py`` file under the given
    files/directories (sorted, so the model is deterministic)."""
    sources, errors = collect_sources(paths)
    model = scan_sources(sources)
    model.errors.update(errors)
    return model


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ast.dump(node)[:32]


# ---------------------------------------------------------------------------
# The per-function walker
# ---------------------------------------------------------------------------


class _Walker:
    """Statement-order walk of one function body collecting sites."""

    def __init__(self, model: FlowModel, resolver: Resolver,
                 scope: Scope, closure: Optional[Env]) -> None:
        self.model = model
        self.resolver = resolver
        self.scope = scope
        self.path = scope.path
        self.cls = model.classes.get(scope.owner)
        #: What is bound here and now: a copy of what was bound where
        #: the function is defined, then its annotated parameters.
        self.env = resolver.enter(scope.fn, scope.owner, closure)
        #: mutable plain-Python locals: name -> definition line.
        self.mutables: Dict[str, int] = {}
        #: mutable name -> first Fork line it escaped into.
        self.escaped: Dict[str, int] = {}
        #: held lock receivers (source text), statement order.
        self.held: List[str] = []
        self.qual = scope.qual
        self.loop_depth = 0
        self.weight = 1
        self.method: Optional[MethodModel] = None
        if self.cls is not None:
            self.method = MethodModel(
                cls=self.cls.name, name=scope.fn.name, path=self.path,
                line=scope.fn.lineno)
            self.cls.methods[scope.fn.name] = self.method

    # -- entry -----------------------------------------------------------

    def run(self) -> None:
        self._block(self.scope.fn.body)

    def _block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function (the run_x/main idiom): walk it with the
            # current environment as its closure.
            _Walker(self.model, self.resolver,
                    self.model.program.scope(stmt), self.env).run()
            return
        self._exprs(own_exprs(stmt))
        if isinstance(stmt, ast.For):
            bound = self.resolver.loop_binding(self.env, stmt)
            if bound is not None:
                self._retire(bound[0])
                if bound[1] is not None:
                    self.env.names[bound[0]] = bound[1]
            self._looped(stmt.body, _range_len(stmt.iter))
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._looped(stmt.body, None)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.With):
            self._block(stmt.body)
        else:
            self._bindings(stmt)

    def _looped(self, body: List[ast.stmt], trips: Optional[int]) -> None:
        mult = trips if trips is not None and trips > 0 else UNKNOWN_TRIPS
        self.loop_depth += 1
        prev = self.weight
        self.weight = min(MAX_WEIGHT, self.weight * mult)
        self._block(body)
        self.weight = prev
        self.loop_depth -= 1

    def _retire(self, name: str) -> None:
        self.env.retire(name)
        self.mutables.pop(name, None)
        self.escaped.pop(name, None)

    # -- bindings --------------------------------------------------------

    def _bindings(self, stmt: ast.stmt) -> None:
        """What a simple statement binds and writes."""
        annotation: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets, annotation = [stmt.target], stmt.annotation
        elif isinstance(stmt, ast.AugAssign):
            self._note_write(stmt.target, stmt.lineno)
        for target in targets:
            assert isinstance(stmt, (ast.Assign, ast.AnnAssign))
            if isinstance(target, ast.Name):
                self._retire(target.id)
                if not self.resolver.bind(self.env, target.id, stmt.value,
                                          annotation) \
                        and _is_mutable_value(stmt.value):
                    self.mutables[target.id] = stmt.lineno
            elif is_self_field(target):
                self._note_write(target, stmt.lineno)
            elif isinstance(target, ast.Subscript):
                self._note_write(target.value, stmt.lineno)
                if isinstance(target.value, ast.Name):
                    self._note_mutation(target.value.id, stmt.lineno)

    def _note_write(self, target: ast.expr, line: int) -> None:
        """Record a self-field write (stores, augments, item stores)."""
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if is_self_field(node) and self.method is not None:
            assert isinstance(node, ast.Attribute)
            self.method.writes.setdefault(node.attr, line)

    def _note_mutation(self, name: str, line: int) -> None:
        """A mutable local changed; flag it if it already escaped."""
        first = self.escaped.get(name)
        if first is not None:
            self.model.escapes.append(EscapeSite(
                path=self.path, line=line, caller=self.qual, name=name,
                kind="mutate-after-fork", first_line=first))
            del self.escaped[name]

    # -- expressions -----------------------------------------------------

    def _exprs(self, exprs: Sequence[ast.expr]) -> None:
        for expr in exprs:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self._call(node)
                elif is_self_field(node) and \
                        isinstance(node.ctx, ast.Load) and \
                        self.method is not None:
                    self.method.reads.add(node.attr)

    def _call(self, node: ast.Call) -> None:
        call = amber_call(node)
        if call is None:
            self._mutator(node)
        elif call.op in (Op.ACQUIRE, Op.RELEASE):
            # Lock-held tracking, both spellings: not a data invocation.
            lock = key(call.target)
            if call.op is Op.ACQUIRE and lock not in self.held:
                self.held.append(lock)
            elif call.op is Op.RELEASE and lock in self.held:
                self.held.remove(lock)
        elif not call.syscall:
            pass        # the live runtime's spellings leave no site
        elif call.invoked:
            if call.method is not None:
                self._invoke(call)
        elif call.op is Op.FORK:
            if call.method is not None:
                self._fork(call)
        elif call.op is Op.NEW:
            self._new(call)
        elif call.op is Op.MOVE:
            self.model.moves.append(MoveSite(
                path=self.path, line=call.line, caller=self.qual,
                target=key(call.target),
                target_class=self._class(call.target)))
        elif call.op is Op.ATTACH:
            a = self._class(call.target)
            b = self._class(call.args[0])
            if a is not None and b is not None:
                self.model.attach_pairs.add((a, b))
        elif call.op is Op.SEAL:
            cls = self._class(call.target)
            if cls is not None:
                self.model.immutable_classes.add(cls)

    def _class(self, node: Optional[ast.expr]) -> Optional[str]:
        return self.resolver.instance(node, self.env)

    def _mutator(self, call: ast.Call) -> None:
        """``xs.append(v)`` and friends: a write of ``self.xs``, or a
        mutation (and, for an object, the element class) of local
        ``xs``."""
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS):
            return
        if is_self_field(func.value) and self.method is not None:
            assert isinstance(func.value, ast.Attribute)
            self.method.writes.setdefault(func.value.attr, call.lineno)
        elif isinstance(func.value, ast.Name):
            self._note_mutation(func.value.id, call.lineno)
            self.resolver.note_append(self.env, call)

    def _invoke(self, call: AmberCall) -> None:
        assert call.method is not None
        receiver = key(call.target)
        self.model.invokes.append(InvokeSite(
            path=self.path, line=call.line, caller=self.qual,
            caller_class=self.scope.owner,
            receiver=receiver, receiver_class=self._class(call.target),
            method=call.method, loop_depth=self.loop_depth,
            weight=self.weight, fast=call.fast,
            held=tuple(h for h in self.held if h != receiver)))

    def _fork(self, call: AmberCall) -> None:
        assert call.method is not None
        mutable: List[str] = []
        for arg in call.node.args[2:]:
            if isinstance(arg, ast.Name) and arg.id in self.mutables:
                mutable.append(arg.id)
                first = self.escaped.get(arg.id)
                if first is not None:
                    self.model.escapes.append(EscapeSite(
                        path=self.path, line=call.line,
                        caller=self.qual, name=arg.id, kind="refork",
                        first_line=first))
                else:
                    self.escaped[arg.id] = call.line
        self.model.forks.append(ForkSite(
            path=self.path, line=call.line, caller=self.qual,
            target=key(call.target),
            target_class=self._class(call.target),
            method=call.method, loop_depth=self.loop_depth,
            weight=self.weight, mutable_args=tuple(mutable)))

    def _new(self, call: AmberCall) -> None:
        if call.name not in self.model.classes:
            return
        trips: Optional[int] = 1
        if self.loop_depth:
            trips = (self.weight
                     if self.weight < MAX_WEIGHT and
                     self.weight % UNKNOWN_TRIPS != 0 else None)
        self.model.news.append(NewSite(
            path=self.path, line=call.line, caller=self.qual,
            cls=call.name, loop_depth=self.loop_depth, trips=trips,
            placed=any(kw.arg == "on_node"
                       for kw in call.node.keywords)))


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _is_mutable_value(value: Optional[ast.expr]) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else "")
        return name in _MUTABLE_CTORS
    return False


def _range_len(node: ast.expr) -> Optional[int]:
    """Trip count of a constant-bound ``range``/``enumerate(range)``."""
    if called_name(node) == "enumerate":
        assert isinstance(node, ast.Call)
        if node.args:
            return _range_len(node.args[0])
    return range_len(node)
