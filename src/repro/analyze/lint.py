"""Static AST lint for Amber concurrency idioms (``repro lint``).

Nine rules, covering the mistakes the simulator's sanitizer only
catches once a run trips over them:

==========  ============================================================
AMB101      lock/monitor acquired but not released on some path
AMB102      ``CondVar.wait`` called without holding a monitor/lock
AMB103      thread forked but never joined in the same function
AMB104      ``MoveTo`` of an object previously ``Attach``-ed to another
AMB105      blocking operation while holding a ``SpinLock``
AMB106      ``Barrier`` participant count can never match the number of
            threads forked in the same function
AMB107      the same thread handle joined twice
AMB108      ``Invoke``/``FastInvoke`` made while holding a ``SpinLock``
            (the spin burns a CPU for the whole remote round-trip)
AMB109      field written after the object was sealed with
            ``SetImmutable`` on a statically-reachable path
==========  ============================================================

Whole-program locality diagnostics (AMB201-AMB205) live in
:mod:`repro.analyze.flow.diagnostics` and share this module's finding
type and noqa machinery.

Both the simulator idiom (``yield Invoke(lock, "acquire")``) and the
live-runtime idiom (``lock.acquire()``) are recognized.  Suppress a
finding by putting ``# repro: noqa`` (all rules) or
``# repro: noqa[AMB101]`` on the offending line.

The path analysis is deliberately conservative: branches fork the
tracked held-set, a leak is only reported when a lock is held on
*every* live path at an exit (so ``if lock: acquire ... if lock:
release`` stays quiet), and loop bodies are explored zero-or-once.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from repro.errors import UsageError

RULES: Dict[str, str] = {
    "AMB101": "lock acquired but not released on some path",
    "AMB102": "CondVar.wait outside its monitor",
    "AMB103": "thread forked/started but never joined",
    "AMB104": "MoveTo of an object Attach-ed to another",
    "AMB105": "blocking operation while holding a SpinLock",
    "AMB106": "Barrier parties never matches forked threads in scope",
    "AMB107": "thread handle joined twice",
    "AMB108": "Invoke while holding a SpinLock",
    "AMB109": "field written after SetImmutable sealed the object",
}

#: acquire-like method -> its release-like partner.
_PAIRS: Dict[str, str] = {
    "acquire": "release",
    "enter": "exit",
    "acquire_read": "release_read",
    "acquire_write": "release_write",
}
_RELEASES: Dict[str, str] = {v: k for k, v in _PAIRS.items()}

#: Call names that create a thread (sim syscall or live runtime).
_FORK_NAMES = {"Fork", "Start", "NewThread"}
_FORK_METHODS = {"fork", "start_thread"}
#: Call names that block the calling thread.
_BLOCK_NAMES = {"Join", "Suspend", "Sleep"}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")

#: Cap on tracked path states per program point (beyond it, states are
#: merged pairwise — analysis stays sound for must-held checks).
_MAX_STATES = 32


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


@dataclass(frozen=True)
class _SyncCall:
    """One recognized synchronization-ish call inside a statement."""

    key: str            # normalized receiver expression
    method: str
    line: int
    blocking: bool
    #: True for a generic ``Invoke``/``FastInvoke`` (a potentially
    #: remote data invocation, not a recognized sync operation).
    remote: bool = False


_CTX_RE = re.compile(r",?\s*ctx=(Load|Store|Del)\(\)")


def _expr_key(node: ast.AST) -> str:
    """Stable identity for a receiver expression (``lock``,
    ``self.lock``, ``locks[0]`` ...), load/store agnostic."""
    return _CTX_RE.sub("", ast.dump(node))


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _call_method(call: ast.Call) -> Optional[Tuple[ast.AST, str]]:
    if isinstance(call.func, ast.Attribute):
        return call.func.value, call.func.attr
    return None


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _Types:
    """Best-effort local type inference: which expressions name a
    CondVar or a SpinLock?  Sources: ``x = CondVar(...)``,
    ``x = yield New(CondVar, ...)``, and ``x: CondVar`` annotations
    (parameters included)."""

    def __init__(self) -> None:
        self.by_key: Dict[str, str] = {}

    def learn_function(self, fn: ast.AST) -> None:
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                name = self._annotation_name(arg.annotation)
                if name:
                    self.by_key[_expr_key(
                        ast.Name(id=arg.arg, ctx=ast.Load()))] = name
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                cls = self._constructed_class(node.value)
                if cls:
                    self.by_key[_expr_key(node.targets[0])] = cls
            elif isinstance(node, ast.AnnAssign):
                name = self._annotation_name(node.annotation)
                if name:
                    self.by_key[_expr_key(node.target)] = name

    @staticmethod
    def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
        if isinstance(annotation, ast.Name) and annotation.id in (
                "CondVar", "SpinLock"):
            return annotation.id
        return None

    @staticmethod
    def _constructed_class(value: ast.AST) -> Optional[str]:
        # x = CondVar(...)
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in ("CondVar", "SpinLock"):
                return name
            # x = yield New(CondVar, ...) arrives as Yield below.
        if isinstance(value, ast.Yield) and isinstance(
                value.value, ast.Call):
            call = value.value
            if _call_name(call) == "New" and call.args:
                first = call.args[0]
                if isinstance(first, ast.Name) and first.id in (
                        "CondVar", "SpinLock"):
                    return first.id
        return None

    def of(self, key: str) -> Optional[str]:
        return self.by_key.get(key)


def _sync_calls(stmt: ast.stmt, types: _Types) -> List[_SyncCall]:
    """All recognized sync/blocking calls in a statement, in source
    order (compound statements contribute only their own headers)."""
    calls: List[_SyncCall] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                _classify(child)
            visit(child)

    def _classify(call: ast.Call) -> None:
        name = _call_name(call)
        if name in ("Invoke", "FastInvoke") and len(call.args) >= 2:
            method = _const_str(call.args[1])
            if method is None:
                return
            if method in _PAIRS or method in _RELEASES or method in (
                    "wait", "join"):
                _add(call.args[0], method, call.lineno)
            else:
                calls.append(_SyncCall(_expr_key(call.args[0]), method,
                                       call.lineno, False, remote=True))
            return
        if name in _BLOCK_NAMES:
            calls.append(_SyncCall("", name, call.lineno, True))
            return
        attr = _call_method(call)
        if attr is not None:
            target, method = attr
            _add(target, method, call.lineno)

    def _add(target: ast.AST, method: str, line: int) -> None:
        if method in _PAIRS or method in _RELEASES or method in (
                "wait", "join"):
            blocking = method in _PAIRS or method in ("wait", "join")
            calls.append(_SyncCall(_expr_key(target), method, line,
                                   blocking))

    # Only look at the statement's own expressions, not nested blocks.
    if isinstance(stmt, (ast.If, ast.While)):
        visit(stmt.test)
    elif isinstance(stmt, ast.For):
        visit(stmt.iter)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        pass
    elif isinstance(stmt, ast.With):
        for item in stmt.items:
            visit(item.context_expr)
    elif isinstance(stmt, ast.Try):
        pass
    else:
        visit(stmt)
    return calls


class _FunctionLinter:
    """Path-sensitive held-set walk over one function body."""

    def __init__(self, fn: ast.AST, path: str, types: _Types) -> None:
        self.fn = fn
        self.path = path
        self.types = types
        self.findings: List[LintFinding] = []
        self._seen: Set[Tuple[str, int]] = set()
        #: held key -> (line, pretty receiver) of its first acquisition.
        self.acquire_sites: Dict[str, Tuple[int, str]] = {}

    # -- reporting ------------------------------------------------------

    def report(self, rule: str, line: int, message: str) -> None:
        if (rule, line) in self._seen:
            return
        self._seen.add((rule, line))
        self.findings.append(LintFinding(self.path, line, rule, message))

    # -- the walk -------------------------------------------------------

    def run(self) -> List[LintFinding]:
        body = list(getattr(self.fn, "body", []))
        final_states = self._walk(body, {frozenset()})
        self._check_exit(final_states,
                         getattr(self.fn, "end_lineno", 0) or 0,
                         "at function exit")
        self._scan_forks(body)
        self._scan_moves(body)
        self._scan_barriers(body)
        self._scan_joins(body)
        self._scan_immutables(body)
        return self.findings

    def _walk(self, stmts: List[ast.stmt],
              states: Set[FrozenSet[str]]) -> Set[FrozenSet[str]]:
        live = set(states)
        for stmt in stmts:
            if not live:
                break
            nxt: Set[FrozenSet[str]] = set()
            for state in live:
                nxt |= self._step(stmt, state, live)
            live = self._limit(nxt)
        return live

    @staticmethod
    def _limit(states: Set[FrozenSet[str]]) -> Set[FrozenSet[str]]:
        if len(states) <= _MAX_STATES:
            return states
        merged: FrozenSet[str] = frozenset()
        for state in states:
            merged |= state
        return {merged}

    def _step(self, stmt: ast.stmt, state: FrozenSet[str],
              siblings: Set[FrozenSet[str]]) -> Set[FrozenSet[str]]:
        if isinstance(stmt, ast.If):
            state = self._apply_calls(stmt, state, siblings)
            return (self._walk(stmt.body, {state})
                    | self._walk(stmt.orelse, {state}))
        if isinstance(stmt, (ast.While, ast.For)):
            state = self._apply_calls(stmt, state, siblings)
            once = self._walk(stmt.body, {state})
            return once | {state} | self._walk(stmt.orelse, once | {state})
        if isinstance(stmt, ast.Try):
            outcomes = self._walk(stmt.body, {state})
            for handler in stmt.handlers:
                outcomes |= self._walk(handler.body, outcomes | {state})
            outcomes = self._walk(stmt.orelse, outcomes)
            if stmt.finalbody:
                outcomes = self._walk(stmt.finalbody, outcomes)
            return outcomes
        if isinstance(stmt, ast.With):
            state = self._apply_calls(stmt, state, siblings)
            return self._walk(stmt.body, {state})
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return {state}
        if isinstance(stmt, ast.Return):
            state = self._apply_calls(stmt, state, siblings)
            self._check_exit({state}, stmt.lineno,
                             f"before the return at line {stmt.lineno}",
                             siblings)
            return set()
        if isinstance(stmt, ast.Raise):
            # Raising with a lock held is the caller's cleanup problem;
            # AMB101 stays quiet here to avoid noise on error paths.
            return set()
        return {self._apply_calls(stmt, state, siblings)}

    def _apply_calls(self, stmt: ast.stmt, state: FrozenSet[str],
                     siblings: Set[FrozenSet[str]]) -> FrozenSet[str]:
        held = set(state)
        for call in _sync_calls(stmt, self.types):
            if call.method in _PAIRS and call.key:
                self._check_spin_block(call, held)
                held.add(call.key)
                self.acquire_sites.setdefault(
                    call.key, (call.line, _pretty_key(call.key)))
            elif call.method in _RELEASES and call.key:
                held.discard(call.key)
            elif call.method == "wait":
                self._check_wait(call, held, siblings)
                self._check_spin_block(call, held)
            elif call.remote:
                self._check_spin_invoke(call, held)
            elif call.blocking:
                self._check_spin_block(call, held)
        return frozenset(held)

    # -- rule bodies ----------------------------------------------------

    def _check_exit(self, states: Set[FrozenSet[str]], line: int,
                    where: str,
                    siblings: Optional[Set[FrozenSet[str]]] = None
                    ) -> None:
        """AMB101: a key held on *every* live path at an exit leaked.

        At an explicit ``return``, a key counts as leaked only if every
        sibling path (states live at the same program point) also holds
        it — an acquire and its release guarded by the same condition
        stay quiet."""
        if not states:
            return
        must = None
        for state in states:
            must = state if must is None else (must & state)
        if siblings:
            for state in siblings:
                must &= state
        for key in sorted(must or ()):
            site_line, pretty = self.acquire_sites.get(key, (line, key))
            self.report("AMB101", site_line,
                        f"'{pretty}' acquired here is still held "
                        f"{where}")

    def _check_wait(self, call: _SyncCall, held: Set[str],
                    siblings: Set[FrozenSet[str]]) -> None:
        """AMB102: waiting on a CondVar without any lock/monitor held."""
        if self.types.of(call.key) != "CondVar":
            return
        if held:
            return
        if any(len(state) for state in siblings):
            # Some sibling path holds a lock; only flag when *no*
            # path holds anything.
            return
        self.report("AMB102", call.line,
                    f"CondVar.wait on '{_pretty_key(call.key)}' "
                    f"without holding its monitor")

    def _check_spin_block(self, call: _SyncCall, held: Set[str]) -> None:
        """AMB105: blocking while a SpinLock is held burns a CPU for
        the whole wait."""
        if not call.blocking:
            return
        spins = [key for key in held
                 if self.types.of(key) == "SpinLock" and
                 key != call.key]
        if not spins:
            return
        self.report("AMB105", call.line,
                    f"blocking call '{call.method}' while holding "
                    f"SpinLock '{_pretty_key(sorted(spins)[0])}'")

    def _check_spin_invoke(self, call: _SyncCall,
                           held: Set[str]) -> None:
        """AMB108: a data invocation while a SpinLock is held.  The
        invocation may ship the thread across the network; every other
        CPU contending for the lock spins for the whole round-trip."""
        spins = [key for key in held
                 if self.types.of(key) == "SpinLock" and
                 key != call.key]
        if not spins:
            return
        self.report("AMB108", call.line,
                    f"Invoke('{call.method}') while holding SpinLock "
                    f"'{_pretty_key(sorted(spins)[0])}'; contenders "
                    f"spin for the whole remote round-trip")

    def _scan_forks(self, body: List[ast.stmt]) -> None:
        """AMB103: forked threads with no join anywhere in the
        function."""
        fork_line: Optional[int] = None
        fork_what = ""
        joined = False
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            attr = _call_method(node)
            if name in _FORK_NAMES or (
                    attr is not None and attr[1] in _FORK_METHODS):
                if fork_line is None:
                    fork_line = node.lineno
                    fork_what = name or attr[1]
            if name == "Join" or (attr is not None and
                                  attr[1] == "join"):
                joined = True
            if name in ("Invoke", "FastInvoke") and len(node.args) >= 2:
                if _const_str(node.args[1]) == "join":
                    joined = True
        if fork_line is not None and not joined:
            self.report("AMB103", fork_line,
                        f"thread created by '{fork_what}' is never "
                        f"joined in this function")

    def _scan_moves(self, body: List[ast.stmt]) -> None:
        """AMB104: moving an attached member breaks co-residency (the
        attachment silently drags it back, or worse, was the point)."""
        attached: Dict[str, int] = {}
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "Attach" and len(node.args) >= 2:
                attached.setdefault(_expr_key(node.args[0]), node.lineno)
            elif name == "MoveTo" and node.args:
                key = _expr_key(node.args[0])
                if key in attached and node.lineno > attached[key]:
                    self.report(
                        "AMB104", node.lineno,
                        f"MoveTo of '{_pretty_key(key)}', which was "
                        f"Attach-ed at line {attached[key]}; move the "
                        f"attachment owner instead")

    def _scan_barriers(self, body: List[ast.stmt]) -> None:
        """AMB106: a Barrier built with a constant party count that can
        never be satisfied by the threads forked in this function.

        Only fires when every fork site is statically countable (loop
        trip counts resolvable, no forks under conditionals) and at
        least one thread is forked; the count may match either the
        forked threads alone or forked threads plus the forking thread
        itself (the common SOR master-participates idiom)."""
        barriers: List[Tuple[int, int]] = []
        for node in _walk_own(body):
            if isinstance(node, ast.Call):
                parties = _barrier_parties(node)
                if parties is not None:
                    barriers.append((node.lineno, parties))
        if not barriers:
            return
        forks = _count_forks(body)
        if not forks:       # zero forked or not statically countable
            return
        for line, parties in barriers:
            if parties not in (forks, forks + 1):
                self.report(
                    "AMB106", line,
                    f"Barrier({parties}) can never be satisfied: "
                    f"{forks} thread(s) forked in this function "
                    f"(expected {forks}, or {forks + 1} when the "
                    f"forking thread participates)")

    def _scan_immutables(self, body: List[ast.stmt]) -> None:
        """AMB109: a field written after the object was sealed with
        ``SetImmutable`` on a statically-reachable path — the write
        traps at run time if the object is resident, or silently
        diverges replicas if it already replicated.

        Same conservative position tracking as AMB104: a write counts
        as "after" the seal when its line follows the seal's line
        within the function (both the sim syscall ``SetImmutable(x)``
        and the live-runtime ``cluster.set_immutable(x)`` seal)."""
        sealed: Dict[str, int] = {}
        writes: List[Tuple[str, int, str]] = []
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                attr = _call_method(node)
                if name == "SetImmutable" and node.args:
                    sealed.setdefault(_expr_key(node.args[0]),
                                      node.lineno)
                elif (attr is not None and attr[1] == "set_immutable"
                        and node.args):
                    sealed.setdefault(_expr_key(node.args[0]),
                                      node.lineno)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                elts = (target.elts if isinstance(
                    target, (ast.Tuple, ast.List)) else [target])
                for elt in elts:
                    if isinstance(elt, ast.Attribute):
                        writes.append((_expr_key(elt.value),
                                       node.lineno, elt.attr))
        for key, line, field_name in writes:
            if key in sealed and line > sealed[key]:
                self.report(
                    "AMB109", line,
                    f"write to '{_pretty_key(key)}.{field_name}' "
                    f"after SetImmutable at line {sealed[key]} "
                    f"sealed the object")

    def _scan_joins(self, body: List[ast.stmt]) -> None:
        """AMB107: a thread handle joined twice — the second join hangs
        forever in the live runtime (the thread is already gone)."""
        self._join_walk(body, {}, {})

    def _join_walk(self, stmts: List[ast.stmt],
                   handles: Dict[str, int],
                   joined: Dict[str, int]) -> Dict[str, int]:
        """Statement-order walk tracking fork-produced handles and the
        line of each handle's first join; returns the definitely-joined
        map at the end of the block.  Branch joins merge by
        intersection (a join on only one path is not a sure first
        join); loop bodies run twice so a join inside a loop over an
        outer handle sees its own first pass."""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for key, line in _join_targets(stmt):
                if key not in handles:
                    continue
                if key in joined:
                    self.report(
                        "AMB107", line,
                        f"thread handle '{_pretty_key(key)}' joined "
                        f"again (first joined at line {joined[key]}); "
                        f"the second join waits forever")
                else:
                    joined[key] = line
            for key, fork_line in _handle_assignments(stmt):
                if fork_line:
                    handles[key] = fork_line
                else:
                    handles.pop(key, None)
                joined.pop(key, None)
            if isinstance(stmt, ast.If):
                branch_a = self._join_walk(stmt.body, handles,
                                           dict(joined))
                branch_b = self._join_walk(stmt.orelse, handles,
                                           dict(joined))
                joined = {key: line
                          for key, line in branch_a.items()
                          if key in branch_b}
            elif isinstance(stmt, (ast.For, ast.While)):
                if isinstance(stmt, ast.For):
                    for target in ast.walk(stmt.target):
                        if isinstance(target, (ast.Name, ast.Attribute)):
                            handles.pop(_expr_key(target), None)
                            joined.pop(_expr_key(target), None)
                once = self._join_walk(stmt.body, handles, dict(joined))
                self._join_walk(stmt.body, handles, dict(once))
                self._join_walk(stmt.orelse, handles, dict(joined))
            elif isinstance(stmt, ast.Try):
                outcome = self._join_walk(stmt.body, handles,
                                          dict(joined))
                for handler in stmt.handlers:
                    self._join_walk(handler.body, handles, dict(joined))
                outcome = self._join_walk(stmt.orelse, handles, outcome)
                joined = self._join_walk(stmt.finalbody, handles,
                                         outcome)
            elif isinstance(stmt, ast.With):
                joined = self._join_walk(stmt.body, handles, joined)
        return joined


def _own_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The statement's own expressions: everything for a simple
    statement, only the header for a compound one."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef, ast.Try)):
        return []
    return [stmt]


def _walk_own(body: List[ast.stmt]) -> Iterable[ast.AST]:
    """Walk every node in ``body`` except nested function/class
    bodies (they are linted as their own scopes)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_fork_call(call: ast.Call) -> bool:
    if _call_name(call) in _FORK_NAMES:
        return True
    attr = _call_method(call)
    return attr is not None and attr[1] in _FORK_METHODS


def _barrier_parties(call: ast.Call) -> Optional[int]:
    """Constant party count of a ``Barrier(N)`` / ``New(Barrier, N)``
    construction, or None when not a barrier or not constant."""
    name = _call_name(call)
    if name == "Barrier":
        args = list(call.args)
    elif (name == "New" and call.args
          and isinstance(call.args[0], ast.Name)
          and call.args[0].id == "Barrier"):
        args = list(call.args[1:])
    else:
        return None
    candidates = args[:1] + [kw.value for kw in call.keywords
                             if kw.arg == "parties"]
    for node in candidates:
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and not isinstance(node.value, bool)):
            return node.value
    return None


def range_len(node: ast.AST) -> Optional[int]:
    """Trip count of a ``range(...)`` call with constant bounds (the
    flow model's loop weights use it too)."""
    if not (isinstance(node, ast.Call) and _call_name(node) == "range"):
        return None
    bounds: List[int] = []
    for arg in node.args:
        if (isinstance(arg, ast.Constant)
                and isinstance(arg.value, int)
                and not isinstance(arg.value, bool)):
            bounds.append(arg.value)
        else:
            return None
    if len(bounds) == 1:
        return max(0, bounds[0])
    if len(bounds) == 2:
        return max(0, bounds[1] - bounds[0])
    if len(bounds) == 3 and bounds[2] != 0:
        step = bounds[2]
        span = (bounds[1] - bounds[0]) if step > 0 \
            else (bounds[0] - bounds[1])
        return max(0, -(-span // abs(step)))
    return None


def _count_forks(stmts: List[ast.stmt]) -> Optional[int]:
    """Statically-known number of threads forked by ``stmts``; None
    when any fork site is uncountable (variable trip count, fork under
    a conditional or exception handler, unequal branches)."""
    total = 0
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        own = 0
        for expr in _own_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call) and _is_fork_call(node):
                    own += 1
        if isinstance(stmt, ast.For):
            inner = _count_forks(stmt.body)
            tail = _count_forks(stmt.orelse)
            if inner is None or tail is None:
                return None
            if inner:
                mult = range_len(stmt.iter)
                if mult is None:
                    return None
                inner *= mult
            total += own + inner + tail
        elif isinstance(stmt, ast.While):
            inner = _count_forks(stmt.body)
            if inner is None or inner:
                return None
            total += own
        elif isinstance(stmt, ast.If):
            then = _count_forks(stmt.body)
            alt = _count_forks(stmt.orelse)
            if then is None or alt is None or then != alt:
                return None
            total += own + then
        elif isinstance(stmt, ast.Try):
            parts = [_count_forks(stmt.body),
                     _count_forks(stmt.orelse),
                     _count_forks(stmt.finalbody)]
            if any(part is None for part in parts):
                return None
            for handler in stmt.handlers:
                inside = _count_forks(handler.body)
                if inside is None or inside:
                    return None
            total += own + sum(part or 0 for part in parts)
        elif isinstance(stmt, ast.With):
            inner = _count_forks(stmt.body)
            if inner is None:
                return None
            total += own + inner
        else:
            total += own
    return total


def _join_targets(stmt: ast.stmt) -> List[Tuple[str, int]]:
    """Receiver keys of every join in the statement's own expressions,
    in source order: ``Join(t)``, ``Invoke(t, "join")``, ``t.join()``."""
    out: List[Tuple[str, int]] = []

    def classify(call: ast.Call) -> None:
        name = _call_name(call)
        if name == "Join" and call.args:
            out.append((_expr_key(call.args[0]), call.lineno))
            return
        if name in ("Invoke", "FastInvoke") and len(call.args) >= 2 \
                and _const_str(call.args[1]) == "join":
            out.append((_expr_key(call.args[0]), call.lineno))
            return
        attr = _call_method(call)
        if attr is not None and attr[1] == "join":
            out.append((_expr_key(attr[0]), call.lineno))

    for expr in _own_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                classify(node)
    return out


def _handle_assignments(stmt: ast.stmt) -> List[Tuple[str, int]]:
    """Assignment targets of this statement: ``(key, fork line)`` when
    the assigned value forks a thread, ``(key, 0)`` for any other
    reassignment (which retires the old handle)."""
    pairs: List[Tuple[ast.expr, ast.expr]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            pairs.append((target, stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        pairs.append((stmt.target, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        pairs.append((stmt.target, stmt.value))
    out: List[Tuple[str, int]] = []
    for target, value in pairs:
        fork_line = 0
        for node in ast.walk(value):
            if isinstance(node, ast.Call) and _is_fork_call(node):
                fork_line = node.lineno
                break
        targets: List[ast.expr] = [target]
        if isinstance(target, (ast.Tuple, ast.List)):
            targets = list(target.elts)
            fork_line = 0   # cannot tell which element got the handle
        for tgt in targets:
            if isinstance(tgt, (ast.Name, ast.Attribute)):
                out.append((_expr_key(tgt), fork_line))
    return out


_NAME_RE = re.compile(r"Name\(id='([^']+)'")
_ATTR_RE = re.compile(r"Attribute\(value=Name\(id='([^']+)'.*?"
                      r"attr='([^']+)'")


def _pretty_key(key: str) -> str:
    match = _ATTR_RE.match(key)
    if match:
        return f"{match.group(1)}.{match.group(2)}"
    match = _NAME_RE.match(key)
    if match:
        return match.group(1)
    return "<expr>"


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
    source they were reported against, sorted by position.  Shared by
    the lint pass and the AmberFlow diagnostics."""
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


def lint_source(source: str, path: str = "<string>"
                ) -> List[LintFinding]:
    """Lint one module's source text; returns findings sorted by
    position."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 0, "AMB000",
                            f"syntax error: {exc.msg}")]
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        types = _Types()
        types.learn_function(node)
        findings.extend(_FunctionLinter(node, path, types).run())
    return filter_noqa(findings, source)


#: What ``repro lint``, ``flow`` and ``elide`` analyze when no paths
#: are given (relative: run them from the repository root).
DEFAULT_PATHS = ("src/repro/apps", "examples")


def collect_sources(paths: Iterable[str]
                    ) -> Tuple[List[Tuple[str, str]], Dict[str, str]]:
    """Read the sources every analysis pass works on.

    A directory contributes its ``*.py`` files, sorted (so whatever is
    derived from them is deterministic); an explicitly named file is
    read whatever its suffix; a path that does not exist is a
    :class:`~repro.errors.UsageError` — a typo must not read as "clean".
    Paths are reported as given, with forward slashes.  Returns the
    ``(path, text)`` pairs and ``{path: "unreadable: ..."}`` for the
    files that could not be read."""
    sources: List[Tuple[str, str]] = []
    errors: Dict[str, str] = {}
    for entry in paths:
        root = Path(entry)
        if not root.exists():
            raise UsageError(f"no such file or directory: {entry}")
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            try:
                sources.append((file.as_posix(), file.read_text()))
            except (OSError, ValueError) as exc:
                errors[file.as_posix()] = f"unreadable: {exc}"
    return sources, errors


def lint_paths(paths: Iterable[str]) -> List[LintFinding]:
    """Lint every ``.py`` file under the given files/directories."""
    sources, errors = collect_sources(paths)
    findings = [LintFinding(path, 0, "AMB000", message)
                for path, message in errors.items()]
    for path, source in sources:
        findings.extend(lint_source(source, path))
    return findings
