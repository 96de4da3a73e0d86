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
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analyze.program import (
    SYNC_CLASSES,
    AmberCall,
    LintFinding,
    Op,
    Program,
    Resolver,
    Scope,
    amber_call,
    amber_calls,
    called_name,
    filter_noqa,
    key,
    own_exprs,
    own_nodes,
    report,
)
from repro.errors import UsageError

__all__ = ["DEFAULT_PATHS", "RULES", "LintFinding", "collect_sources",
           "filter_noqa", "lint_paths", "lint_source", "range_len"]

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

#: Cap on tracked path states per program point (beyond it, states are
#: merged pairwise — analysis stays sound for must-held checks).
_MAX_STATES = 32


class _FunctionLinter:
    """Path-sensitive held-set walk over one function body; every rule
    reads the function's *own* nodes (a nested function is linted as
    the scope it is)."""

    def __init__(self, scope: Scope, resolver: Resolver) -> None:
        self.scope = scope
        self.resolver = resolver
        self.env = resolver.scope_env(scope)
        self.findings: List[LintFinding] = []
        self._seen: Set[Tuple[str, int]] = set()
        #: held receiver -> line of its first acquisition.
        self.acquire_sites: Dict[str, int] = {}
        #: held receivers known to be SpinLocks.
        self.spins: Set[str] = set()

    # -- reporting ------------------------------------------------------

    def report(self, rule: str, line: int, message: str) -> None:
        if (rule, line) in self._seen:
            return
        self._seen.add((rule, line))
        self.findings.append(
            LintFinding(self.scope.path, line, rule, message))

    # -- the walk -------------------------------------------------------

    def run(self) -> List[LintFinding]:
        body = list(self.scope.fn.body)
        final_states = self._walk(body, {frozenset()})
        self._check_exit(final_states,
                         self.scope.fn.end_lineno or 0,
                         "at function exit")
        own = list(own_nodes(*body))
        calls = [call for call in map(amber_call, own)
                 if call is not None]
        self._scan_forks(calls)
        self._scan_moves(calls)
        self._scan_barriers(own, body)
        self._join_walk(body, {}, {})
        self._scan_immutables(calls, own)
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
        """The statement's own sync and blocking calls, in source
        order (a compound statement contributes only its header, a
        nested function or class nothing: it is a scope of its own)."""
        held = set(state)
        for call in amber_calls(*own_exprs(stmt)):
            receiver = key(call.target)
            if call.op is Op.ACQUIRE:
                self._check_spin_block(call, receiver, held)
                held.add(receiver)
                self.acquire_sites.setdefault(receiver, call.line)
                if self._class(call.target) == "SpinLock":
                    self.spins.add(receiver)
            elif call.op is Op.RELEASE:
                held.discard(receiver)
            elif call.op is Op.WAIT:
                self._check_wait(call, receiver, held, siblings)
                self._check_spin_block(call, receiver, held)
            elif call.op is Op.INVOKE and call.method:
                self._check_spin_invoke(call, receiver, held)
            elif call.op in (Op.JOIN, Op.BLOCK):
                self._check_spin_block(call, receiver, held)
        return frozenset(held)

    def _class(self, node: Optional[ast.expr]) -> Optional[str]:
        return self.resolver.instance(node, self.env)

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
        for receiver in sorted(must or ()):
            self.report("AMB101", self.acquire_sites.get(receiver, line),
                        f"'{receiver}' acquired here is still held "
                        f"{where}")

    def _check_wait(self, call: AmberCall, receiver: str, held: Set[str],
                    siblings: Set[FrozenSet[str]]) -> None:
        """AMB102: waiting on a CondVar without any lock/monitor held."""
        if self._class(call.target) != "CondVar":
            return
        if held:
            return
        if any(len(state) for state in siblings):
            # Some sibling path holds a lock; only flag when *no*
            # path holds anything.
            return
        self.report("AMB102", call.line,
                    f"CondVar.wait on '{receiver}' "
                    f"without holding its monitor")

    def _held_spin(self, receiver: str, held: Set[str]) -> Optional[str]:
        """A SpinLock held now, other than the call's own receiver."""
        spins = sorted(held & self.spins - {receiver})
        return spins[0] if spins else None

    def _check_spin_block(self, call: AmberCall, receiver: str,
                          held: Set[str]) -> None:
        """AMB105: blocking while a SpinLock is held burns a CPU for
        the whole wait."""
        spin = self._held_spin(receiver, held)
        if spin is not None:
            self.report("AMB105", call.line,
                        f"blocking call '{call.name}' while holding "
                        f"SpinLock '{spin}'")

    def _check_spin_invoke(self, call: AmberCall, receiver: str,
                           held: Set[str]) -> None:
        """AMB108: a data invocation while a SpinLock is held.  The
        invocation may ship the thread across the network; every other
        CPU contending for the lock spins for the whole round-trip."""
        spin = self._held_spin(receiver, held)
        if spin is not None:
            self.report("AMB108", call.line,
                        f"Invoke('{call.name}') while holding SpinLock "
                        f"'{spin}'; contenders "
                        f"spin for the whole remote round-trip")

    def _scan_forks(self, calls: List[AmberCall]) -> None:
        """AMB103: forked threads with no join anywhere in the
        function."""
        fork = next((c for c in calls if c.op is Op.FORK), None)
        if fork is not None and not any(c.op is Op.JOIN for c in calls):
            self.report("AMB103", fork.line,
                        f"thread created by '{fork.name}' is never "
                        f"joined in this function")

    def _scan_moves(self, calls: List[AmberCall]) -> None:
        """AMB104: moving an attached member breaks co-residency (the
        attachment silently drags it back, or worse, was the point)."""
        attached: Dict[str, int] = {}
        for call in calls:
            if call.target is None:
                continue
            receiver = key(call.target)
            if call.op is Op.ATTACH:
                attached.setdefault(receiver, call.line)
            elif call.op is Op.MOVE and call.line > attached.get(
                    receiver, call.line):
                self.report(
                    "AMB104", call.line,
                    f"MoveTo of '{receiver}', which was "
                    f"Attach-ed at line {attached[receiver]}; move the "
                    f"attachment owner instead")

    def _scan_barriers(self, own: List[ast.AST],
                       body: List[ast.stmt]) -> None:
        """AMB106: a Barrier built with a constant party count that can
        never be satisfied by the threads forked in this function.

        Only fires when every fork site is statically countable (loop
        trip counts resolvable, no forks under conditionals) and at
        least one thread is forked; the count may match either the
        forked threads alone or forked threads plus the forking thread
        itself (the common SOR master-participates idiom)."""
        barriers: List[Tuple[int, int]] = []
        for node in own:
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

    def _scan_immutables(self, calls: List[AmberCall],
                         own: List[ast.AST]) -> None:
        """AMB109: a field written after the object was sealed with
        ``SetImmutable`` on a statically-reachable path — the write
        traps at run time if the object is resident, or silently
        diverges replicas if it already replicated.

        Same conservative position tracking as AMB104: a write counts
        as "after" the seal when its line follows the seal's line
        within the function (both the sim syscall ``SetImmutable(x)``
        and the live-runtime ``cluster.set_immutable(x)`` seal)."""
        sealed: Dict[str, int] = {}
        for call in calls:
            if call.op is Op.SEAL and call.target is not None:
                sealed.setdefault(key(call.target), call.line)
        for node in own if sealed else ():
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
                    if not isinstance(elt, ast.Attribute):
                        continue
                    receiver = key(elt.value)
                    if node.lineno > sealed.get(receiver, node.lineno):
                        self.report(
                            "AMB109", node.lineno,
                            f"write to '{receiver}.{elt.attr}' "
                            f"after SetImmutable at line "
                            f"{sealed[receiver]} sealed the object")

    def _join_walk(self, stmts: List[ast.stmt],
                   handles: Dict[str, int],
                   joined: Dict[str, int]) -> Dict[str, int]:
        """AMB107: a thread handle joined twice — the second join hangs
        forever in the live runtime (the thread is already gone).

        Statement-order walk tracking fork-produced handles and the
        line of each handle's first join; returns the definitely-joined
        map at the end of the block.  Branch joins merge by
        intersection (a join on only one path is not a sure first
        join); loop bodies run twice so a join inside a loop over an
        outer handle sees its own first pass."""
        for stmt in stmts:
            for call in amber_calls(*own_exprs(stmt)):
                if call.op is not Op.JOIN or call.target is None:
                    continue
                handle = key(call.target)
                if handle not in handles:
                    continue
                if handle in joined:
                    self.report(
                        "AMB107", call.line,
                        f"thread handle '{handle}' joined "
                        f"again (first joined at line {joined[handle]}); "
                        f"the second join waits forever")
                else:
                    joined[handle] = call.line
            for handle, fork_line in _handle_assignments(stmt):
                if fork_line:
                    handles[handle] = fork_line
                else:
                    handles.pop(handle, None)
                joined.pop(handle, None)
            if isinstance(stmt, ast.If):
                branch_a = self._join_walk(stmt.body, handles,
                                           dict(joined))
                branch_b = self._join_walk(stmt.orelse, handles,
                                           dict(joined))
                joined = {handle: line
                          for handle, line in branch_a.items()
                          if handle in branch_b}
            elif isinstance(stmt, (ast.For, ast.While)):
                if isinstance(stmt, ast.For):
                    for target in ast.walk(stmt.target):
                        if isinstance(target, (ast.Name, ast.Attribute)):
                            handles.pop(key(target), None)
                            joined.pop(key(target), None)
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


def _barrier_parties(call: ast.Call) -> Optional[int]:
    """Constant party count of a ``Barrier(N)`` / ``New(Barrier, N)``
    construction, or None when not a barrier or not constant."""
    made = amber_call(call)
    if made is not None and made.op is Op.NEW and made.name == "Barrier":
        args = list(call.args[1:])
    elif called_name(call) == "Barrier":
        args = list(call.args)
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
    if called_name(node) != "range":
        return None
    assert isinstance(node, ast.Call)
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
        own = sum(call.op is Op.FORK
                  for call in amber_calls(*own_exprs(stmt)))
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
        fork = next((call for call in amber_calls(value)
                     if call.op is Op.FORK), None)
        fork_line = fork.line if fork is not None else 0
        targets: List[ast.expr] = [target]
        if isinstance(target, (ast.Tuple, ast.List)):
            targets = list(target.elts)
            fork_line = 0   # cannot tell which element got the handle
        for tgt in targets:
            if isinstance(tgt, (ast.Name, ast.Attribute)):
                out.append((key(tgt), fork_line))
    return out


def _lint(program: Program) -> List[LintFinding]:
    """Every rule over every function of ``program``, file by file in
    the order given; a file that does not parse is one AMB000."""
    resolver = Resolver(program, {*program.classes, *SYNC_CLASSES})
    found: Dict[str, List[LintFinding]] = {
        path: [] for path in program.texts}
    for path, (line, message) in program.errors.items():
        found[path].append(LintFinding(path, line, "AMB000", message))
    for scope in program.scopes:
        found[scope.path].extend(_FunctionLinter(scope, resolver).run())
    return [finding for findings in found.values()
            for finding in report(findings, program.texts)]


def lint_source(source: str, path: str = "<string>"
                ) -> List[LintFinding]:
    """Lint one module's source text; returns findings sorted by
    position."""
    return _lint(Program([(path, source)]))


#: What ``repro lint`` and ``repro flow`` analyze when no paths
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
    """Lint every ``.py`` file under the given files/directories, as
    one program (a field typed in one file is known in the others)."""
    sources, errors = collect_sources(paths)
    findings = [LintFinding(path, 0, "AMB000", message)
                for path, message in errors.items()]
    return findings + _lint(Program(sources))
