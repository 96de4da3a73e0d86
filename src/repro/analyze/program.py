"""The one front end under ``repro lint`` and ``repro flow``.

The paper's C++ preprocessor reads a program once, knows the Amber
idioms once, and inserts every residency check from that one reading.
The three static passes are this repository's stand-in for it, and this
module is the reading they share (docs/ANALYSIS.md, "One front end"):

* :class:`Program` — the one ``ast.parse`` per source, the files that
  did not parse, the texts, the class names, and the one enumeration
  of :class:`Scope`\\ s: every function with the class that owns it;
* :func:`amber_call` — the one recogniser of the idiom vocabulary, in
  both spellings; the idiom names and the acquire/release table are
  string literals here and nowhere else under ``repro.analyze``;
* :func:`key` — the one name of a receiver, its source text;
* :func:`own_exprs` / :func:`own_nodes` — a statement's own
  expressions, a function's own nodes;
* :class:`Resolver` — the one answer to "which class does this
  expression evaluate to", asked by each pass for the class names that
  pass resolves to;
* :class:`LintFinding`, :func:`filter_noqa`, :func:`report` — the one
  finding record and the one tail (suppress, sort) of every pass.

What cannot be resolved stays unknown and every consumer skips it.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (Any, Collection, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple, Union)

#: The ``repro.sim.sync`` classes whose creation sites AmberElide
#: classifies ...
LOCK_CLASSES = ("Lock", "Monitor", "SpinLock")
#: ... and every class of that module: what the lint and AmberElide
#: resolve to besides the program's own classes.
SYNC_CLASSES = LOCK_CLASSES + ("CondVar", "Barrier", "ReaderWriterLock")

#: acquire-like method -> its release-like partner, and the inverse.
PAIRS: Dict[str, str] = {
    "acquire": "release",
    "enter": "exit",
    "acquire_read": "release_read",
    "acquire_write": "release_write",
}
RELEASES: Dict[str, str] = {v: k for k, v in PAIRS.items()}
#: Every method of a sync object (not a data invocation).
SYNC_METHODS = frozenset(PAIRS) | frozenset(RELEASES) | {
    "wait", "signal", "broadcast", "try_acquire"}

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: ``(class, is_container)``: an instance, or a container of instances.
Resolved = Tuple[str, bool]


# ---------------------------------------------------------------------------
# Findings and the one tail of every pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintFinding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")


def _noqa_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> None (suppress all) or the set of suppressed rules."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = {r.strip() for r in rules.split(",")
                           if r.strip()}
    return out


def filter_noqa(findings: Iterable[LintFinding],
                source: str) -> List[LintFinding]:
    """Drop findings suppressed by ``# repro: noqa`` comments in the
    source they were reported against, sorted by position."""
    noqa = _noqa_lines(source)
    kept = []
    for finding in findings:
        suppressed = noqa.get(finding.line, ...)
        if suppressed is None:
            continue
        if isinstance(suppressed, set) and finding.rule in suppressed:
            continue
        kept.append(finding)
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule))


def report(findings: Iterable[LintFinding],
           texts: Mapping[str, str]) -> List[LintFinding]:
    """The tail of every pass: each finding is checked against the
    ``# repro: noqa`` comments of its own file (``texts`` maps path ->
    source; a finding whose file is not in it passes through), and
    what is left is sorted by position."""
    by_path: Dict[str, List[LintFinding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    return [finding for path in sorted(by_path)
            for finding in filter_noqa(by_path[path],
                                       texts.get(path, ""))]


# ---------------------------------------------------------------------------
# Expressions: the receiver key, own expressions, own nodes
# ---------------------------------------------------------------------------


def unwrapped(node: ast.AST) -> ast.AST:
    """``node`` without its ``yield`` / ``await``: what a request
    evaluates to is written where the request is."""
    while isinstance(node, (ast.Yield, ast.Await)) \
            and node.value is not None:
        node = node.value
    return node


def key(node: Optional[ast.AST]) -> str:
    """The one name of a receiver expression (``lock``, ``self.lock``,
    ``locks[0]``): its source text, identity and printable form in
    one ("" for no receiver at all)."""
    return ast.unparse(unwrapped(node)) if node is not None else ""


def called_name(node: ast.AST) -> Optional[str]:
    """``f`` for a call ``f(...)`` of a plain name, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def constructed(node: ast.AST) -> Optional[str]:
    """The class name a call constructs: ``Cls(...)`` / ``New(Cls, ...)``
    (any plain callee name, for the caller to look up)."""
    made = amber_call(node)
    if made is not None and made.op is Op.NEW:
        return made.name or None
    return called_name(node)


def is_self_field(node: Optional[ast.AST]) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def own_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a statement evaluates itself: the header of a
    compound statement (its blocks are statements of their own), the
    value of a simple one; nothing for a nested scope."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                         ast.Expr, ast.Return)):
        return [stmt.value] if stmt.value is not None else []
    return []


def own_nodes(*roots: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``roots``, one root after the other and each
    in ``ast.walk`` order, nested function and class bodies excepted:
    they are scopes of their own.  For a function, its roots are its
    body."""
    for root in roots:
        todo = deque([root])
        while todo:
            node = todo.popleft()
            if not isinstance(node, _SCOPES):
                yield node
                todo.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# The idiom vocabulary
# ---------------------------------------------------------------------------


#: What a vocabulary call does (the table is on :class:`AmberCall`).
Op = Enum("Op", "INVOKE ACQUIRE RELEASE WAIT JOIN BLOCK FORK NEW MOVE "
                "ATTACH SEAL")


@dataclass(frozen=True)
class AmberCall:
    """One call of the Amber vocabulary, in either spelling.

    ==========  =========================================================
    ``op``      spellings
    ==========  =========================================================
    INVOKE      ``Invoke(x, "m", ...)`` / ``FastInvoke(x, "m", ...)``
    ACQUIRE     ``Invoke(x, "acquire")`` / ``x.acquire()`` (and ``enter``,
                ``acquire_read``, ``acquire_write``)
    RELEASE     the partners: ``release``, ``exit``, ``release_read`` ...
    WAIT        ``Invoke(cv, "wait")`` / ``cv.wait()``
    JOIN        ``Join(t)`` / ``Invoke(t, "join")`` / ``t.join()``
    BLOCK       ``Suspend()`` / ``Sleep(us)``
    FORK        ``Fork(x, "m", ...)`` / ``NewThread(x, "m", ...)`` /
                ``Start(t)`` / ``c.fork(x, "m")`` / ``c.start_thread(...)``
    NEW         ``New(Cls, ...)``
    MOVE        ``MoveTo(x, node)``
    ATTACH      ``Attach(x, to)``
    SEAL        ``SetImmutable(x)`` / ``c.set_immutable(x)``
    ==========  =========================================================
    """

    op: Op
    #: The word a message prints: the method of an invocation or sync
    #: operation, the class of a ``New``, else the request as spelled.
    name: str
    node: ast.Call
    #: The object operated on (the class expression of a ``New``).
    target: Optional[ast.expr]
    #: What travels with the request: positional arguments after the
    #: target (and method), then keyword values.
    args: Tuple[ast.expr, ...]
    #: Constant method name of an invocation / a forked thread body.
    method: Optional[str] = None
    #: Spelled as a kernel request (``Join(t)``), not a method call.
    syscall: bool = True
    #: Spelled ``Invoke`` / ``FastInvoke``.
    invoked: bool = False
    fast: bool = False

    @property
    def line(self) -> int:
        return self.node.lineno


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _sync_op(method: Optional[str]) -> Optional[Op]:
    if method in PAIRS:
        return Op.ACQUIRE
    if method in RELEASES:
        return Op.RELEASE
    return {"wait": Op.WAIT, "join": Op.JOIN}.get(method or "")


#: request name -> (op, fewest positional arguments).
_REQUESTS: Dict[str, Tuple[Op, int]] = {
    "Invoke": (Op.INVOKE, 1), "FastInvoke": (Op.INVOKE, 1),
    "Fork": (Op.FORK, 1), "NewThread": (Op.FORK, 1),
    "Start": (Op.FORK, 1), "New": (Op.NEW, 1), "MoveTo": (Op.MOVE, 1),
    "Attach": (Op.ATTACH, 2), "SetImmutable": (Op.SEAL, 1),
    "Join": (Op.JOIN, 0), "Suspend": (Op.BLOCK, 0),
    "Sleep": (Op.BLOCK, 0),
}
#: method name -> op, for the live runtime's spellings whose object is
#: the first argument, not the receiver.
_CLUSTER_METHODS = {"fork": Op.FORK, "start_thread": Op.FORK,
                    "set_immutable": Op.SEAL}


def amber_call(node: ast.AST) -> Optional[AmberCall]:
    """Recognise one ``ast.Call`` of the vocabulary (see
    :class:`AmberCall`); None for anything else, and for a request with
    fewer arguments than it needs."""
    if not isinstance(node, ast.Call):
        return None
    args = list(node.args)
    rest = tuple(kw.value for kw in node.keywords)
    head = called_name(node) or ""
    op, fewest = _REQUESTS.get(head, (None, 0))
    if op is not None and len(args) >= fewest:
        target = args[0] if args else None
        if op is Op.NEW:
            head = target.id if isinstance(target, ast.Name) else ""
        if op not in (Op.INVOKE, Op.FORK):
            return AmberCall(op, head, node, target,
                             tuple(args[1:]) + rest)
        # (target, "method", what travels)
        method = _const_str(args[1]) if len(args) >= 2 else None
        if op is Op.FORK:
            return AmberCall(op, head, node, target,
                             tuple(args[2:]) + rest, method=method)
        return AmberCall(_sync_op(method) or op, method or "", node,
                         target, tuple(args[2:]) + rest, method=method,
                         invoked=True, fast=head != "Invoke")
    if op is None and isinstance(node.func, ast.Attribute):
        method = node.func.attr
        op = _sync_op(method)
        if op is not None:
            return AmberCall(op, method, node, node.func.value,
                             tuple(args) + rest, method=method,
                             syscall=False)
        op = _CLUSTER_METHODS.get(method)
        if op is Op.FORK or (op is Op.SEAL and args):
            return AmberCall(op, method, node, args[0] if args else None,
                             tuple(args[1:]) + rest, syscall=False)
    return None


def amber_calls(*roots: ast.AST) -> Iterator[AmberCall]:
    """The vocabulary calls under ``roots``, nested scopes excepted."""
    for node in own_nodes(*roots):
        call = amber_call(node)
        if call is not None:
            yield call


# ---------------------------------------------------------------------------
# The program: one parse, the class table, the scopes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Scope:
    """One function of the program and who owns it."""

    path: str
    #: The class whose instances run this body: the innermost enclosing
    #: class, looked for *through* enclosing functions ("" at module
    #: level).  It is the class of the activation the body runs in.
    owner: str
    fn: FunctionNode
    #: ``Cls.method`` (a function nested in a method too), ``run_x.main``.
    qual: str
    #: The enclosing function, whose names this one closes over.
    parent: Optional["Scope"]


class Program:
    """Amber program sources, parsed once."""

    def __init__(self, sources: Sequence[Tuple[str, str]]) -> None:
        #: path -> source text, in the order given.
        self.texts: Dict[str, str] = {}
        #: Files that did not parse: path -> (line, message).
        self.errors: Dict[str, Tuple[int, str]] = {}
        #: Every class definition, (path, node), in ``ast.walk`` order,
        #: and the names they define.
        self.class_nodes: List[Tuple[str, ast.ClassDef]] = []
        self.classes: Set[str] = set()
        #: Every function, enclosing scopes before the ones they hold.
        self.scopes: List[Scope] = []
        self._scope_of: Dict[ast.AST, Scope] = {}
        for path, text in sources:
            self.texts[path] = text
            try:
                tree = ast.parse(text, filename=path)
            except (SyntaxError, ValueError) as exc:
                # ValueError: a NUL byte, before Python 3.12.
                self.errors[path] = (
                    getattr(exc, "lineno", None) or 0,
                    f"syntax error: {getattr(exc, 'msg', exc)}")
                continue
            self.class_nodes.extend(
                (path, node) for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef))
            self._enumerate(path, tree, "", None)
        self.classes.update(node.name for _, node in self.class_nodes)

    def _enumerate(self, path: str, node: ast.AST, owner: str,
                   parent: Optional[Scope]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._enumerate(path, child, child.name, parent)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                base = owner or (parent.qual if parent else "")
                scope = Scope(path, owner, child,
                              f"{base}.{child.name}" if base
                              else child.name, parent)
                self.scopes.append(scope)
                self._scope_of[child] = scope
                self._enumerate(path, child, owner, scope)
            else:
                self._enumerate(path, child, owner, parent)

    def scope(self, fn: ast.AST) -> Scope:
        """The scope of a function node of this program."""
        return self._scope_of[fn]


# ---------------------------------------------------------------------------
# The resolver: expression -> (class, is_container)
# ---------------------------------------------------------------------------


@dataclass
class Env:
    """What a scope knows about its names at one point — and, keyed by
    field name, what a class knows about its ``self`` fields."""

    #: The class ``self`` is an instance of ("" outside a class).
    owner: str = ""
    #: name -> class of the instance it holds.
    names: Dict[str, str] = field(default_factory=dict)
    #: name -> element class of the container it holds.
    elems: Dict[str, str] = field(default_factory=dict)

    def retire(self, name: str) -> None:
        self.names.pop(name, None)
        self.elems.pop(name, None)

    def holds(self, name: str) -> Optional[Resolved]:
        if name in self.names:
            return (self.names[name], False)
        return (self.elems[name], True) if name in self.elems else None


_OPTIONAL, _UNION = "Optional", "Union"
_CONTAINERS = ("List", "list", "Sequence", "Tuple", "tuple", "Deque",
               "deque")
#: Container methods that add their first argument as an element.
_ADDERS = ("append", "appendleft", "add")


class Resolver:
    """Which class an expression evaluates to, for one set of names.

    ``known`` is what the asking pass resolves to.  The sources, in
    the order they are consulted: ``self``; a name bound in the scope
    or closed over (annotated parameters; assignments from anything
    resolvable here); a container literal of one known class or a
    local grown by ``append``; ``Cls(...)`` and ``New(Cls, ...)``; a
    subscript of a known container; a ``self`` field, typed by an
    annotation (bare, string forward reference, ``Optional``,
    ``Union``, one level of ``List`` / ``Sequence`` / ``Tuple``) or an
    assignment in any method of the class."""

    def __init__(self, program: Program,
                 known: Collection[str]) -> None:
        self.program = program
        self.known = frozenset(known)
        #: class -> its ``self`` fields, typed from any of its methods.
        self.fields: Dict[str, Env] = {}
        self._envs: Dict[Scope, Env] = {}
        for _path, node in program.class_nodes:
            self._type_fields(node)

    # -- annotations -----------------------------------------------------

    def annotation(self, ann: Optional[ast.AST]) -> Optional[Resolved]:
        """Resolve an annotation naming a known class."""
        if ann is None:
            return None
        text = _const_str(ann)
        if text is not None:
            try:
                ann = ast.parse(text, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Name):
            return (ann.id, False) if ann.id in self.known else None
        if not isinstance(ann, ast.Subscript):
            return None
        head = ann.value
        name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else "")
        inner = ann.slice
        choices = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        if name == _OPTIONAL:
            return self.annotation(inner)
        if name == _UNION or name in _CONTAINERS:
            for choice in choices:
                got = self.annotation(choice)
                if got is not None:
                    return (got[0], name != _UNION or got[1])
        return None

    def enter(self, fn: FunctionNode, owner: str,
              closure: Optional[Env] = None) -> Env:
        """What ``fn``'s body starts with: a copy of what its closure
        binds, then its annotated parameters.  A parameter annotated
        as a container of ``C`` is taken for a ``C``: what flows in
        through it are ``C`` instances."""
        env = Env(owner)
        if closure is not None:
            env = Env(owner, dict(closure.names), dict(closure.elems))
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            got = self.annotation(arg.annotation)
            if got is not None:
                env.names[arg.arg] = got[0]
        return env

    # -- expressions -----------------------------------------------------

    def resolve(self, node: Optional[ast.AST],
                env: Env) -> Optional[Resolved]:
        """The class ``node`` evaluates to in ``env``, if known."""
        if node is None:
            return None
        node = unwrapped(node)
        if isinstance(node, ast.Name):
            if node.id == "self" and env.owner:
                return (env.owner, False)
            return env.holds(node.id)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            classes = set()
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and elt.value is None:
                    continue
                got = self.resolve(elt, env)
                if got is None or got[1]:
                    return None
                classes.add(got[0])
            return (classes.pop(), True) if len(classes) == 1 else None
        if isinstance(node, ast.Call):
            name = constructed(node)
            if name is not None and name in self.known:
                return (name, False)
            return None
        if isinstance(node, ast.Subscript):
            got = self.resolve(node.value, env)
            return (got[0], False) if got is not None and got[1] \
                else None
        if is_self_field(node) and env.owner in self.fields:
            assert isinstance(node, ast.Attribute)
            return self.fields[env.owner].holds(node.attr)
        return None

    def instance(self, node: Optional[ast.AST],
                 env: Env) -> Optional[str]:
        """The class of the one instance ``node`` evaluates to."""
        got = self.resolve(node, env)
        return got[0] if got is not None and not got[1] else None

    # -- bindings --------------------------------------------------------

    def bind(self, env: Env, name: str, value: Optional[ast.AST],
             annotation: Optional[ast.AST] = None) -> bool:
        """``name = value`` (or ``name: annotation = value``): record
        what ``name`` holds now; False when that is unknown."""
        got = self.annotation(annotation) or self.resolve(value, env)
        if got is not None:
            (env.elems if got[1] else env.names)[name] = got[0]
        return got is not None

    def loop_binding(self, env: Env, stmt: ast.For
                     ) -> Optional[Tuple[str, Optional[str]]]:
        """The name a ``for x in xs`` / ``for i, x in enumerate(xs)``
        binds to elements, and their class when ``xs`` is a known
        container held in a name or a ``self`` field."""
        it: ast.AST = stmt.iter
        target: ast.AST = stmt.target
        if called_name(it) == "enumerate":
            assert isinstance(it, ast.Call)
            if not it.args or not (isinstance(target, ast.Tuple)
                                   and len(target.elts) == 2):
                return None
            it, target = it.args[0], target.elts[1]
        if not isinstance(target, ast.Name):
            return None
        got = (self.resolve(it, env)
               if isinstance(it, ast.Name) or is_self_field(it) else None)
        return target.id, (got[0] if got is not None and got[1]
                           else None)

    def note_append(self, env: Env, call: ast.Call) -> None:
        """``xs.append(obj)`` makes local ``xs`` a container of
        ``obj``'s class (the first one appended names it)."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _ADDERS \
                and isinstance(func.value, ast.Name) and call.args:
            cls = self.instance(call.args[0], env)
            if cls is not None:
                env.elems.setdefault(func.value.id, cls)

    def scope_env(self, scope: Scope) -> Env:
        """Everything ``scope`` binds anywhere in its body, over what
        its enclosing functions bind: the flow-insensitive view (the
        lint and AmberElide; AmberFlow binds statement by statement)."""
        env = self._envs.get(scope)
        if env is not None:
            return env
        env = self.enter(scope.fn, scope.owner,
                         self.scope_env(scope.parent)
                         if scope.parent is not None else None)
        for node in own_nodes(*scope.fn.body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.bind(env, target.id, node.value)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                self.bind(env, node.target.id, node.value,
                          node.annotation)
            elif isinstance(node, ast.For):
                bound = self.loop_binding(env, node)
                if bound is not None and bound[1] is not None:
                    env.names[bound[0]] = bound[1]
            elif isinstance(node, ast.Call):
                self.note_append(env, node)
        self._envs[scope] = env
        return env

    # -- self fields -----------------------------------------------------

    def _type_fields(self, cls: ast.ClassDef) -> None:
        """Type ``self.field`` from every method body of ``cls``; the
        first resolvable assignment of a field names it."""
        fields = self.fields.setdefault(cls.name, Env())
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                continue
            env = self.enter(fn, cls.name)
            for sub in ast.walk(fn):
                got: Optional[Resolved] = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                elif isinstance(sub, ast.AnnAssign):
                    target = sub.target
                    got = self.annotation(sub.annotation)
                else:
                    continue
                if not is_self_field(target):
                    continue
                assert isinstance(target, ast.Attribute)
                got = got or self.resolve(sub.value, env)
                if got is not None:
                    (fields.elems if got[1] else fields.names
                     ).setdefault(target.attr, got[0])
