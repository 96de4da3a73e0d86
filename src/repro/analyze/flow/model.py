"""The object-flow model: AST -> classes, fields, call graph, escapes.

The model is deliberately *lightweight*: it resolves receivers through
four alias sources that cover the Amber idioms —

* parameter annotations (``def run(self, ctx, pool: WorkPool)``),
* constructor results (``x = yield New(Cls, ...)``, ``x = Cls(...)``),
* ``self`` fields, typed by ``__init__`` annotations
  (``self.master: Optional[SorMaster] = None``), by assignment from an
  annotated parameter (``self.pool = pool``), or by container literals
  of known classes (``self.neighbors = [left, right]``),
* local containers grown by ``append`` of known-class expressions
  (``sections.append((yield New(SorSection, ...)))``) and consumed by
  ``for``-loops (plain or ``enumerate``).

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

#: Acquire-like call -> release-like partner (lock-held tracking).
_ACQUIRES = {
    "acquire": "release",
    "enter": "exit",
    "acquire_read": "release_read",
    "acquire_write": "release_write",
}
_RELEASES = {v: k for k, v in _ACQUIRES.items()}

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

    Two passes: the first collects class names (so annotations resolve
    only to classes defined in the scanned program), the second builds
    fields, sites, and escapes."""
    model = FlowModel(paths=[path for path, _ in sources])
    trees: List[Tuple[str, ast.Module]] = []
    for path, text in sources:
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            model.errors[path] = f"syntax error: {exc.msg}"
            continue
        trees.append((path, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                model.classes[node.name] = ClassModel(
                    name=node.name, path=path, line=node.lineno,
                    bases=tuple(_base_name(b) for b in node.bases))
    for path, tree in trees:
        _scan_module(model, path, tree)
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


def _scan_module(model: FlowModel, path: str, tree: ast.Module) -> None:
    # Class field typing first, so method walks can resolve self.field.
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in model.classes:
            _scan_class_fields(model, model.classes[node.name], node)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls = model.classes.get(stmt.name)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    _Walker(model, path, cls, sub,
                            env=_param_env(model, sub)).run()
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _Walker(model, path, None, stmt,
                    env=_param_env(model, stmt)).run()


def _param_env(model: FlowModel, fn: ast.AST) -> Dict[str, str]:
    """name -> class for annotated parameters naming known classes."""
    env: Dict[str, str] = {}
    args = getattr(fn, "args", None)
    if args is None:
        return env
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        cls = _ann_class(model, arg.annotation)
        if cls is not None:
            env[arg.arg] = cls[0]
    return env


def _ann_class(model: FlowModel, ann: Optional[ast.AST]
               ) -> Optional[Tuple[str, bool]]:
    """Resolve an annotation to ``(class, is_container)`` when it names
    a known class — through ``Optional[...]``, string forward
    references, and one level of ``List``/``Sequence``/``Tuple``."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(ann, ast.Name):
        return (ann.id, False) if ann.id in model.classes else None
    if isinstance(ann, ast.Subscript):
        head = ann.value
        name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else "")
        inner = ann.slice
        if name == "Optional":
            return _ann_class(model, inner)
        if name == "Union":
            if isinstance(inner, ast.Tuple):
                for elt in inner.elts:
                    got = _ann_class(model, elt)
                    if got is not None:
                        return got
            return None
        if name in ("List", "list", "Sequence", "Tuple", "tuple",
                    "Deque", "deque"):
            elems = (inner.elts if isinstance(inner, ast.Tuple)
                     else [inner])
            for elt in elems:
                got = _ann_class(model, elt)
                if got is not None:
                    return (got[0], True)
            return None
    return None


def _scan_class_fields(model: FlowModel, cls: ClassModel,
                       node: ast.ClassDef) -> None:
    """Type ``self.field`` from ``__init__``-and-friends bodies."""
    for fn in node.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _param_env(model, fn)
        for sub in ast.walk(fn):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            ann: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, ann = sub.target, sub.value, sub.annotation
            if not _is_self_field(target):
                continue
            assert isinstance(target, ast.Attribute)
            name = target.attr
            resolved = _ann_class(model, ann)
            if resolved is not None:
                _record_field(cls, name, resolved)
                continue
            if value is None:
                continue
            got = _class_of_value(model, value, params, {}, cls.name)
            if got is not None:
                _record_field(cls, name, got)


def _record_field(cls: ClassModel, name: str,
                  resolved: Tuple[str, bool]) -> None:
    ref, container = resolved
    if container:
        cls.field_elems.setdefault(name, ref)
    else:
        cls.field_classes.setdefault(name, ref)


def _is_self_field(node: Optional[ast.expr]) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _class_of_value(model: FlowModel, value: ast.expr,
                    env: Dict[str, str], elems: Dict[str, str],
                    own_class: str) -> Optional[Tuple[str, bool]]:
    """Resolve the class an expression evaluates to, if known."""
    if isinstance(value, ast.Await):
        return _class_of_value(model, value.value, env, elems, own_class)
    if isinstance(value, ast.Yield) and value.value is not None:
        return _class_of_value(model, value.value, env, elems, own_class)
    if isinstance(value, ast.Name):
        if value.id == "self" and own_class:
            return (own_class, False)
        got = env.get(value.id)
        if got is not None:
            return (got, False)
        elem = elems.get(value.id)
        if elem is not None:
            return (elem, True)
        return None
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        classes = set()
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and elt.value is None:
                continue
            got = _class_of_value(model, elt, env, elems, own_class)
            if got is None or got[1]:
                return None
            classes.add(got[0])
        if len(classes) == 1:
            return (classes.pop(), True)
        return None
    if isinstance(value, ast.Call):
        fn = value.func
        if isinstance(fn, ast.Name):
            if fn.id in model.classes:
                return (fn.id, False)
            if fn.id == "New" and value.args:
                first = value.args[0]
                if isinstance(first, ast.Name) and \
                        first.id in model.classes:
                    return (first.id, False)
        return None
    if isinstance(value, ast.Subscript):
        base = value.value
        if isinstance(base, ast.Name):
            elem = elems.get(base.id)
            if elem is not None:
                return (elem, False)
        if _is_self_field(base) and own_class:
            cm = model.classes.get(own_class)
            if cm is not None:
                assert isinstance(base, ast.Attribute)
                felem = cm.field_elems.get(base.attr)
                if felem is not None:
                    return (felem, False)
        return None
    if isinstance(value, ast.Attribute) and _is_self_field(value):
        if own_class:
            cm = model.classes.get(own_class)
            if cm is not None:
                assert isinstance(value, ast.Attribute)
                ref = cm.field_classes.get(value.attr)
                if ref is not None:
                    return (ref, False)
        return None
    return None


# ---------------------------------------------------------------------------
# The per-function walker
# ---------------------------------------------------------------------------


class _Walker:
    """Statement-order walk of one function body collecting sites."""

    def __init__(self, model: FlowModel, path: str,
                 cls: Optional[ClassModel],
                 fn: ast.AST, env: Dict[str, str],
                 qualprefix: str = "") -> None:
        self.model = model
        self.path = path
        self.cls = cls
        self.fn = fn
        self.env = dict(env)
        #: local container name -> element class.
        self.elems: Dict[str, str] = {}
        #: mutable plain-Python locals: name -> definition line.
        self.mutables: Dict[str, int] = {}
        #: mutable name -> first Fork line it escaped into.
        self.escaped: Dict[str, int] = {}
        #: held lock receivers (source text), statement order.
        self.held: List[str] = []
        fn_name = getattr(fn, "name", "<fn>")
        base = cls.name if cls is not None else qualprefix
        self.qual = f"{base}.{fn_name}" if base else fn_name
        self.loop_depth = 0
        self.weight = 1
        self.method: Optional[MethodModel] = None
        if cls is not None:
            self.method = MethodModel(cls=cls.name, name=fn_name,
                                      path=path, line=fn.lineno)
            cls.methods[fn_name] = self.method

    # -- entry -----------------------------------------------------------

    def run(self) -> None:
        self._block(list(getattr(self.fn, "body", [])))

    def _block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function (the run_x/main idiom): walk it with a
            # copy of the current environment as its closure.
            _Walker(self.model, self.path, self.cls, stmt,
                    env={**self.env, **_param_env(self.model, stmt)},
                    qualprefix=self.qual).run()
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.For):
            self._exprs([stmt.iter])
            self._bind_for_target(stmt)
            mult = _range_len(stmt.iter)
            self._looped(stmt.body, mult)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._exprs([stmt.test])
            self._looped(stmt.body, None)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._exprs([stmt.test])
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, ast.With):
            self._exprs([item.context_expr for item in stmt.items])
            self._block(stmt.body)
            return
        # Simple statement: classify its calls, then apply bindings.
        self._exprs(_stmt_exprs(stmt))
        self._bindings(stmt)

    def _looped(self, body: List[ast.stmt], trips: Optional[int]) -> None:
        mult = trips if trips is not None and trips > 0 else UNKNOWN_TRIPS
        self.loop_depth += 1
        prev = self.weight
        self.weight = min(MAX_WEIGHT, self.weight * mult)
        self._block(body)
        self.weight = prev
        self.loop_depth -= 1

    def _bind_for_target(self, stmt: ast.For) -> None:
        """``for x in xs`` / ``for i, x in enumerate(xs)`` binding."""
        elem: Optional[str] = None
        it = stmt.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "enumerate" and it.args:
            inner = it.args[0]
            if isinstance(inner, ast.Name):
                elem = self.elems.get(inner.id)
            if isinstance(stmt.target, ast.Tuple) and \
                    len(stmt.target.elts) == 2 and \
                    isinstance(stmt.target.elts[1], ast.Name):
                name = stmt.target.elts[1].id
                self._retire(name)
                if elem is not None:
                    self.env[name] = elem
            return
        if isinstance(it, ast.Name):
            elem = self.elems.get(it.id)
        elif isinstance(it, ast.Attribute) and _is_self_field(it) and \
                self.cls is not None:
            elem = self.cls.field_elems.get(it.attr)
        if isinstance(stmt.target, ast.Name):
            self._retire(stmt.target.id)
            if elem is not None:
                self.env[stmt.target.id] = elem

    def _retire(self, name: str) -> None:
        self.env.pop(name, None)
        self.elems.pop(name, None)
        self.mutables.pop(name, None)
        self.escaped.pop(name, None)

    # -- bindings --------------------------------------------------------

    def _bindings(self, stmt: ast.stmt) -> None:
        pairs: List[Tuple[ast.expr, Optional[ast.expr]]] = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                pairs.append((target, stmt.value))
        elif isinstance(stmt, ast.AnnAssign):
            pairs.append((stmt.target, stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._note_write(stmt.target, stmt.lineno)
            return
        for target, value in pairs:
            if isinstance(target, ast.Name):
                self._bind_name(target.id, value, stmt)
            elif _is_self_field(target):
                self._note_write(target, stmt.lineno)
            elif isinstance(target, ast.Subscript):
                self._note_write(target.value, stmt.lineno)
                if isinstance(target.value, ast.Name):
                    self._note_mutation(target.value.id, stmt.lineno)

    def _bind_name(self, name: str, value: Optional[ast.expr],
                   stmt: ast.stmt) -> None:
        self._retire(name)
        if value is None:
            return
        got = _class_of_value(self.model, value, self.env, self.elems,
                              self.cls.name if self.cls else "")
        if got is not None:
            cls, container = got
            if container:
                self.elems[name] = cls
            else:
                self.env[name] = cls
            return
        if _is_mutable_value(value):
            self.mutables[name] = stmt.lineno

    def _note_write(self, target: ast.expr, line: int) -> None:
        """Record a self-field write (stores, augments, item stores)."""
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if _is_self_field(node) and self.method is not None:
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

    def _exprs(self, exprs: Sequence[Optional[ast.expr]]) -> None:
        for expr in exprs:
            if expr is None:
                continue
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self._call(node)
                elif isinstance(node, ast.Attribute) and \
                        _is_self_field(node) and \
                        isinstance(node.ctx, ast.Load) and \
                        self.method is not None:
                    self.method.reads.add(node.attr)

    def _call(self, call: ast.Call) -> None:
        name = call.func.id if isinstance(call.func, ast.Name) else None
        if name in ("Invoke", "FastInvoke") and len(call.args) >= 2:
            self._invoke(call, fast=(name == "FastInvoke"))
            return
        if name in ("Fork", "NewThread") and len(call.args) >= 2:
            self._fork(call)
            return
        if name == "New" and call.args:
            self._new(call)
            return
        if name == "MoveTo" and call.args:
            self.model.moves.append(MoveSite(
                path=self.path, line=call.lineno, caller=self.qual,
                target=_src(call.args[0]),
                target_class=self._receiver_class(call.args[0])))
            return
        if name == "Attach" and len(call.args) >= 2:
            a = self._receiver_class(call.args[0])
            b = self._receiver_class(call.args[1])
            if a is not None and b is not None:
                self.model.attach_pairs.add((a, b))
            return
        if name == "SetImmutable" and call.args:
            cls = self._receiver_class(call.args[0])
            if cls is not None:
                self.model.immutable_classes.add(cls)
            return
        if isinstance(call.func, ast.Attribute):
            self._attr_call(call, call.func)

    def _attr_call(self, call: ast.Call, func: ast.Attribute) -> None:
        method = func.attr
        recv = func.value
        # Lock-held tracking (live idiom and helper objects).
        if method in _ACQUIRES:
            key = _src(recv)
            if key not in self.held:
                self.held.append(key)
            return
        if method in _RELEASES:
            key = _src(recv)
            if key in self.held:
                self.held.remove(key)
            return
        if method in _MUTATORS:
            if _is_self_field(recv) and self.method is not None:
                assert isinstance(recv, ast.Attribute)
                self.method.writes.setdefault(recv.attr, call.lineno)
            elif isinstance(recv, ast.Name):
                self._note_mutation(recv.id, call.lineno)
                if method in ("append", "appendleft", "add") \
                        and call.args:
                    got = _class_of_value(
                        self.model, call.args[0], self.env, self.elems,
                        self.cls.name if self.cls else "")
                    if got is not None and not got[1]:
                        self.elems.setdefault(recv.id, got[0])

    def _invoke(self, call: ast.Call, fast: bool) -> None:
        method = _const_str(call.args[1])
        if method is None:
            return
        recv = call.args[0]
        key = _src(recv)
        # Sim sync idiom: Invoke(lock, "acquire") tracks held state and
        # is not a boundary-crossing data invocation.
        if method in _ACQUIRES:
            if key not in self.held:
                self.held.append(key)
            return
        if method in _RELEASES:
            if key in self.held:
                self.held.remove(key)
            return
        held = tuple(h for h in self.held if h != key)
        self.model.invokes.append(InvokeSite(
            path=self.path, line=call.lineno, caller=self.qual,
            caller_class=self.cls.name if self.cls else "",
            receiver=key, receiver_class=self._receiver_class(recv),
            method=method, loop_depth=self.loop_depth,
            weight=self.weight, fast=fast, held=held))

    def _fork(self, call: ast.Call) -> None:
        method = _const_str(call.args[1])
        if method is None:
            return
        recv = call.args[0]
        mutable: List[str] = []
        for arg in call.args[2:]:
            if isinstance(arg, ast.Name) and arg.id in self.mutables:
                mutable.append(arg.id)
                first = self.escaped.get(arg.id)
                if first is not None:
                    self.model.escapes.append(EscapeSite(
                        path=self.path, line=call.lineno,
                        caller=self.qual, name=arg.id, kind="refork",
                        first_line=first))
                else:
                    self.escaped[arg.id] = call.lineno
        self.model.forks.append(ForkSite(
            path=self.path, line=call.lineno, caller=self.qual,
            target=_src(recv), target_class=self._receiver_class(recv),
            method=method, loop_depth=self.loop_depth,
            weight=self.weight, mutable_args=tuple(mutable)))

    def _new(self, call: ast.Call) -> None:
        first = call.args[0]
        if not (isinstance(first, ast.Name)
                and first.id in self.model.classes):
            return
        trips: Optional[int] = 1
        if self.loop_depth:
            trips = (self.weight
                     if self.weight < MAX_WEIGHT and
                     self.weight % UNKNOWN_TRIPS != 0 else None)
        self.model.news.append(NewSite(
            path=self.path, line=call.lineno, caller=self.qual,
            cls=first.id, loop_depth=self.loop_depth,
            trips=trips if self.loop_depth else 1,
            placed=any(kw.arg == "on_node" for kw in call.keywords)))

    # -- receiver resolution ---------------------------------------------

    def _receiver_class(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Yield) and node.value is not None:
            node = node.value
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.name
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute) and _is_self_field(node) \
                and self.cls is not None:
            return self.cls.field_classes.get(node.attr)
        if isinstance(node, ast.Subscript):
            base = node.value
            if _is_self_field(base) and self.cls is not None:
                assert isinstance(base, ast.Attribute)
                return self.cls.field_elems.get(base.attr)
            if isinstance(base, ast.Name):
                return self.elems.get(base.id)
        return None


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _stmt_exprs(stmt: ast.stmt) -> List[Optional[ast.expr]]:
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value]
    if isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete,
                         ast.Import, ast.ImportFrom, ast.Global,
                         ast.Nonlocal, ast.Pass, ast.Break,
                         ast.Continue)):
        return []
    return []


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _src(node: ast.expr) -> str:
    if isinstance(node, ast.Yield) and node.value is not None:
        node = node.value
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<expr>"


def _is_mutable_value(value: ast.expr) -> bool:
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
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "enumerate" and node.args:
        return _range_len(node.args[0])
    return range_len(node)
