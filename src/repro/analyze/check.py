"""AmberCheck: stateless model checking over the deterministic simulator.

The discrete-event engine is PRNG-free and breaks ties by schedule
order, so a simulated run is a pure function of its *scheduling
choices*: which ready thread each dispatch picks, whether a thread is
preempted at the end of a compute segment, which waiter a released
lock/monitor (or a signalled condvar) is handed to, and the order in
which same-time network messages are delivered.  AmberCheck records
that choice sequence with a
:class:`~repro.analyze.choice.ChoiceController` (installed
through the paper's user-replaceable-scheduler hook — see
:class:`repro.sim.scheduler.ControlledScheduler` — plus the kernel's
preemption hook, the sync objects' hand-off hook, and the network's
delivery-order override) and re-executes the program with forced
prefixes until every relevantly-distinct schedule has been visited or
the budget runs out.

Exploration modes
-----------------
``dpor=False``
    Exhaustive enumeration of the choice tree: every alternative at
    every multi-option choice point.  Complete, and feasible for the
    bundled fixtures.
``dpor=True`` (default)
    Dynamic partial-order reduction in the Flanagan–Godefroid style:
    after each run, the event log collected by a tracing sanitizer
    (field accesses and lock acquisitions, with the vector clocks of
    :mod:`repro.analyze.hb`) yields the pairs of *dependent* transitions
    of different threads; for each such pair a backtracking point is
    scheduled — the latest choice point before the earlier transition at
    which the later transition's thread could have been scheduled
    instead.  Field-access pairs already ordered by happens-before are
    skipped (any reordering must go through reordering the
    synchronization operations themselves, which are always treated as
    dependent).  ``prune=True`` additionally drops runs whose
    Mazurkiewicz trace (per-cell order of dependent accesses) matches an
    already-expanded schedule — sleep-set-style equivalence pruning.

Every explored schedule runs under the PR 4 sanitizer, so the report
contains AMBSAN findings *and* terminal-state divergences: deadlock,
uncaught exception, or differing final program value.  Each finding
carries a minimal choice trace replayable bit-identically with
:func:`run_schedule` (CLI: ``repro check --replay``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro.analyze import runtime as _rt
from repro.analyze.choice import (
    ChoiceController,
    ChoicePoint,
    RandomController,
)
from repro.analyze.sanitizer import Sanitizer
from repro.errors import DeadlockError
from repro.obs.metrics import MetricsRegistry

#: Default schedule-count budget (the acceptance bound of the issue).
DEFAULT_MAX_SCHEDULES = 2000
#: Default bound on choice points considered for branching per run.
DEFAULT_MAX_DEPTH = 400


# ---------------------------------------------------------------------------
# Event collection (dependence + equivalence analysis input)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Event:
    """One observed transition: a field access or a lock acquisition."""

    #: Choice points recorded when the event fired — the event belongs
    #: to the execution segment after choice point ``position - 1``.
    position: int
    thread: str
    tid: int
    kind: str             # "field" | "lock" | "step"
    target: int           # object vaddr
    field: str
    is_write: bool
    #: The acting thread's own clock component (its epoch).
    own: int
    #: Vector-clock snapshot of the acting thread at the event.
    clock: Tuple[Tuple[int, int], ...]


class _TracingSanitizer(Sanitizer):
    """The stock sanitizer plus an event log for the DPOR analysis."""

    def __init__(self, controller: ChoiceController) -> None:
        super().__init__()
        self._controller = controller
        self.events: List[_Event] = []

    def step_begin(self, thread: Any, obj: Any, method: str) -> None:
        # The sanitizer's per-object step pseudo-lock joins clocks in
        # *observed* step order, so same-object segments always look
        # happens-before ordered.  That order is itself a scheduling
        # outcome: record each step as a dependent event (like a lock
        # acquisition) so DPOR explores its reorderings.
        vaddr = obj.__dict__.get("_vaddr")
        if vaddr is None:
            vaddr = -id(obj)
        vc = self._vc(thread.tid, thread)
        self.events.append(_Event(
            position=len(self._controller.points),
            thread=thread.name, tid=thread.tid, kind="step",
            target=vaddr, field="", is_write=True,
            own=vc.get(thread.tid), clock=tuple(sorted(vc.items()))))
        super().step_begin(thread, obj, method)

    def _record_access(self, obj: Any, obj_dict: Dict[str, Any],
                       vaddr: int, name: str, is_write: bool,
                       frame: Any) -> None:
        thread = self._current[-1][0]
        vc = self._vcs[thread.tid]
        self.events.append(_Event(
            position=len(self._controller.points),
            thread=thread.name, tid=thread.tid, kind="field",
            target=vaddr, field=name, is_write=is_write,
            own=vc.get(thread.tid), clock=tuple(sorted(vc.items()))))
        super()._record_access(obj, obj_dict, vaddr, name, is_write,
                               frame)

    def on_acquire(self, sync_obj: Any, thread: Any,
                   order: bool = True) -> None:
        vc = self._vc(thread.tid, thread)
        self.events.append(_Event(
            position=len(self._controller.points),
            thread=thread.name, tid=thread.tid, kind="lock",
            target=sync_obj.vaddr, field="", is_write=True,
            own=vc.get(thread.tid), clock=tuple(sorted(vc.items()))))
        super().on_acquire(sync_obj, thread, order=order)


# ---------------------------------------------------------------------------
# One controlled run
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """Everything observed in one controlled schedule."""

    forced: Tuple[int, ...]
    choices: List[int]
    points: List[ChoicePoint]
    #: "ok" | "deadlock" | "exception:<Type>"
    status: str
    detail: str
    value_repr: str
    #: ``(signature, rendered)`` per sanitizer finding.
    findings: List[Tuple[str, str]]
    events: List[_Event]
    diverged: bool
    elapsed_us: float

    def fingerprint(self) -> str:
        """Terminal-state identity: status plus final program value."""
        return f"{self.status}|{self.value_repr}"

    def signatures(self) -> List[str]:
        return sorted(signature for signature, _ in self.findings)

    def witness(self) -> List[int]:
        """The minimal replayable choice trace: recorded choices with
        the all-default tail trimmed (defaults are re-derived on
        replay)."""
        trimmed = list(self.choices)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return trimmed


def run_schedule(program_fn: Callable[[], Any],
                 forced: Sequence[int] = (),
                 controller: Optional[ChoiceController] = None
                 ) -> RunOutcome:
    """Run ``program_fn`` once under a controller, sanitized.

    ``program_fn`` runs a bounded simulated program (e.g. one of the
    :mod:`repro.analyze.fixtures`) and returns its
    :class:`~repro.sim.program.ProgramResult`.  Every run it starts
    gets a tracing sanitizer; the last run's findings and events are
    the schedule's.  This is also the replay primitive: passing a
    previously recorded choice trace as ``forced`` reproduces that
    schedule bit-identically.
    """
    if controller is None:
        controller = ChoiceController(forced)
    _rt.install_controller(controller)
    status, detail, value_repr, elapsed_us = "ok", "", "", 0.0
    try:
        with _rt.sanitize_runs(
                lambda: _TracingSanitizer(controller)) as sanitizers:
            result = program_fn()
        value_repr = repr(getattr(result, "value", None))
        elapsed_us = float(getattr(result, "elapsed_us", 0.0))
    except DeadlockError as exc:
        status, detail = "deadlock", str(exc)
    except Exception as exc:  # terminal divergence, not a checker bug
        status = f"exception:{type(exc).__name__}"
        detail = str(exc)
    finally:
        _rt.uninstall_controller()

    findings: List[Tuple[str, str]] = []
    events: List[_Event] = []
    if sanitizers:
        last = cast(_TracingSanitizer, sanitizers[-1])
        findings = [(f.signature(), f.render())
                    for f in last.report().findings]
        events = last.events
    return RunOutcome(
        forced=tuple(forced), choices=controller.choices(),
        points=list(controller.points), status=status, detail=detail,
        value_repr=value_repr, findings=findings, events=events,
        diverged=controller.diverged, elapsed_us=elapsed_us)


def sample_random_schedules(program_fn: Callable[[], Any], n: int,
                            seed: int = 0) -> List[RunOutcome]:
    """Run ``n`` uniformly random schedules (for manifestation-rate
    measurements: how rarely does the bug show without AmberCheck?)."""
    outcomes = []
    for index in range(n):
        rng = random.Random(seed * 1_000_003 + index)
        outcomes.append(run_schedule(
            program_fn, controller=RandomController(rng)))
    return outcomes


# ---------------------------------------------------------------------------
# Dependence analysis
# ---------------------------------------------------------------------------


def _covers(clock: Tuple[Tuple[int, int], ...], event: _Event) -> bool:
    """Does ``clock`` (a later event's VC snapshot) cover ``event``?"""
    for tid, component in clock:
        if tid == event.tid:
            return component >= event.own
    return event.own <= 0


def _dependent_pairs(
        events: List[_Event]) -> List[Tuple[_Event, _Event]]:
    """For each event, its most recent prior dependent event by another
    thread (the pair DPOR tries to reorder).  Lock acquisitions of the
    same lock and execution steps of the same object are always
    dependent; field-access pairs already ordered by happens-before are
    skipped — reordering them requires reordering the synchronization
    that ordered them, which the lock/step pairs cover.
    """
    by_cell: Dict[Tuple[str, int, str], List[_Event]] = {}
    pairs: List[Tuple[_Event, _Event]] = []
    for event in events:
        cell = (event.kind, event.target, event.field)
        prior = by_cell.get(cell)
        if prior is not None:
            for earlier in reversed(prior):
                if earlier.tid == event.tid:
                    break  # own earlier access dominates the cell
                if not (earlier.is_write or event.is_write):
                    continue
                if event.kind in ("lock", "step") or \
                        not _covers(event.clock, earlier):
                    pairs.append((earlier, event))
                break
        by_cell.setdefault(cell, []).append(event)
    return pairs


def _equivalence_key(outcome: RunOutcome) -> Tuple[Any, ...]:
    """Mazurkiewicz-trace identity: per-thread event sequences plus the
    per-cell order of accesses.  Equal keys => the runs are reorderings
    of independent transitions only, so exploring one suffices."""
    per_thread: Dict[str, List[Tuple[str, int, str, bool]]] = {}
    per_cell: Dict[Tuple[str, int, str], List[Tuple[int, bool]]] = {}
    for event in outcome.events:
        per_thread.setdefault(event.thread, []).append(
            (event.kind, event.target, event.field, event.is_write))
        per_cell.setdefault(
            (event.kind, event.target, event.field), []).append(
            (event.tid, event.is_write))
    return (
        outcome.status, outcome.value_repr,
        tuple(sorted((name, tuple(seq))
                     for name, seq in per_thread.items())),
        tuple(sorted((cell, tuple(seq))
                     for cell, seq in per_cell.items())))


def _backtrack_prefix(outcome: RunOutcome, pos_limit: int,
                      target: str, max_depth: int
                      ) -> Optional[Tuple[int, ...]]:
    """The forced prefix that schedules thread ``target`` at the latest
    choice point before ``pos_limit`` where it was runnable but not
    chosen — DPOR's backtracking point for a dependent pair."""
    choices = outcome.choices
    for index in range(min(pos_limit, max_depth) - 1, -1, -1):
        point = outcome.points[index]
        if point.kind == "pick" and target in point.options:
            alternative = point.options.index(target)
            if alternative == choices[index]:
                continue  # target ran here already; look earlier
            return tuple(choices[:index]) + (alternative,)
        if point.kind == "preempt" and choices[index] == 0 \
                and target in point.queued:
            # Force the preemption, then pick the target at the
            # dispatch that deterministically follows (queue order is
            # preserved; the preempted thread is appended last).
            return (tuple(choices[:index])
                    + (1, point.queued.index(target)))
    return None


# ---------------------------------------------------------------------------
# Findings and report
# ---------------------------------------------------------------------------


@dataclass
class CheckFinding:
    """One defect AmberCheck surfaced, with a replayable witness."""

    #: "sanitizer" | "deadlock" | "exception" | "divergence"
    kind: str
    signature: str
    message: str
    #: Minimal choice trace reproducing the finding (``--replay``).
    trace: List[int]
    #: Index of the schedule that first exhibited it (0 = default run).
    schedule: int

    def render(self) -> str:
        head = f"[{self.kind}] {self.signature}"
        trace = ",".join(str(choice) for choice in self.trace) or "0"
        lines = [head, f"    schedule #{self.schedule}, "
                       f"replay with --replay {trace}"]
        for line in self.message.splitlines():
            lines.append(f"    {line}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "signature": self.signature,
                "message": self.message, "trace": self.trace,
                "schedule": self.schedule}


@dataclass
class CheckReport:
    """Outcome of one exploration."""

    name: str
    schedules: int
    exhausted: bool
    dpor: bool
    prune: bool
    budget: int
    max_depth: int
    findings: List[CheckFinding]
    #: fingerprint -> number of explored schedules ending in it.
    fingerprints: Dict[str, int]
    baseline_fingerprint: str
    baseline_signatures: List[str]
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def signatures(self) -> List[str]:
        return sorted(finding.signature for finding in self.findings)

    def render(self) -> str:
        mode = "DPOR" if self.dpor else "exhaustive"
        bound = ("exhausted" if self.exhausted
                 else f"budget ({self.budget} schedules / depth "
                      f"{self.max_depth})")
        lines = [f"AmberCheck: {self.name} — {self.schedules} "
                 f"schedule(s), {mode}, {bound}"]
        if not self.findings:
            lines.append("  clean: no findings in any explored "
                         "schedule")
        for finding in self.findings:
            lines.append("  " + finding.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "ok": self.ok,
            "schedules": self.schedules, "exhausted": self.exhausted,
            "dpor": self.dpor, "prune": self.prune,
            "budget": self.budget, "max_depth": self.max_depth,
            "findings": [finding.as_dict()
                         for finding in self.findings],
            "fingerprints": dict(self.fingerprints),
            "baseline_fingerprint": self.baseline_fingerprint,
            "baseline_signatures": list(self.baseline_signatures),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


def check_program(program_fn: Callable[[], Any], *,
                  name: str = "program",
                  budget: int = DEFAULT_MAX_SCHEDULES,
                  max_depth: int = DEFAULT_MAX_DEPTH,
                  dpor: bool = True,
                  prune: bool = True,
                  metrics: Optional[MetricsRegistry] = None,
                  progress: Optional[Callable[[str], None]] = None
                  ) -> CheckReport:
    """Explore the schedules of a bounded program.

    Stateless search: a work list of forced choice prefixes, starting
    from the empty prefix (the default schedule).  Each run is executed
    under the sanitizer; alternatives are scheduled per the chosen mode
    (exhaustive or DPOR, see the module docstring), bounded by
    ``budget`` runs and ``max_depth`` choice points per run.  Progress
    counters land in ``metrics`` (a
    :class:`repro.obs.metrics.MetricsRegistry`).
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    frontier: List[Tuple[int, ...]] = [()]
    scheduled: Set[Tuple[int, ...]] = {()}
    seen_keys: Set[Tuple[Any, ...]] = set()
    findings: Dict[str, CheckFinding] = {}
    fingerprints: Dict[str, int] = {}
    fingerprint_witness: Dict[str, Tuple[List[int], int]] = {}
    schedules = 0
    truncated = False
    baseline_fingerprint = ""
    baseline_signatures: List[str] = []

    def note(kind: str, signature: str, message: str,
             outcome: RunOutcome) -> None:
        if signature in findings:
            return
        findings[signature] = CheckFinding(
            kind=kind, signature=signature, message=message,
            trace=outcome.witness(), schedule=schedules - 1)
        metrics.inc("check_findings")

    while frontier:
        if schedules >= budget:
            truncated = True
            break
        forced = frontier.pop()
        outcome = run_schedule(program_fn, forced)
        schedules += 1
        metrics.inc("check_schedules")
        metrics.observe("check_choice_points", len(outcome.points))
        if progress is not None and schedules % 100 == 0:
            metrics.inc("check_progress_reports")
            progress(f"{name}: {schedules} schedules explored, "
                     f"{len(findings)} finding(s), "
                     f"{len(frontier)} pending")
        if outcome.diverged:
            metrics.inc("check_replay_divergence")
            continue
        if schedules == 1:
            baseline_fingerprint = outcome.fingerprint()
            baseline_signatures = outcome.signatures()

        fingerprint = outcome.fingerprint()
        fingerprints[fingerprint] = fingerprints.get(fingerprint, 0) + 1
        fingerprint_witness.setdefault(
            fingerprint, (outcome.witness(), schedules - 1))
        for signature, rendered in outcome.findings:
            note("sanitizer", signature, rendered, outcome)
        if outcome.status == "deadlock":
            metrics.inc("check_deadlocks")
            note("deadlock", "DEADLOCK", outcome.detail, outcome)
        elif outcome.status.startswith("exception:"):
            metrics.inc("check_exceptions")
            note("exception", outcome.status, outcome.detail, outcome)

        if prune:
            key = _equivalence_key(outcome)
            if key in seen_keys:
                metrics.inc("check_pruned")
                continue
            seen_keys.add(key)

        if len(outcome.points) > max_depth:
            metrics.inc("check_depth_capped")
            truncated = True
        expansions = (_dpor_expansions(outcome, max_depth, metrics)
                      if dpor
                      else _exhaustive_expansions(outcome, max_depth))
        for prefix in expansions:
            if prefix not in scheduled:
                scheduled.add(prefix)
                frontier.append(prefix)

    # Terminal-state divergence: more than one distinct completed-run
    # fingerprint means the program's result depends on the schedule.
    ok_prints = sorted(fp for fp in fingerprints
                       if fp.startswith("ok|"))
    if len(ok_prints) > 1:
        metrics.inc("check_divergences")
        summary = "; ".join(
            f"{fp!r} x{fingerprints[fp]}" for fp in ok_prints)
        witness, schedule = fingerprint_witness[ok_prints[1]]
        findings.setdefault("STATE-DIVERGENCE", CheckFinding(
            kind="divergence", signature="STATE-DIVERGENCE",
            message=(f"final state depends on the schedule: "
                     f"{summary}"),
            trace=witness, schedule=schedule))

    report = CheckReport(
        name=name, schedules=schedules,
        exhausted=not frontier and not truncated,
        dpor=dpor, prune=prune, budget=budget, max_depth=max_depth,
        findings=sorted(findings.values(),
                        key=lambda f: (f.schedule, f.signature)),
        fingerprints=fingerprints,
        baseline_fingerprint=baseline_fingerprint,
        baseline_signatures=baseline_signatures,
        counters={counter_name: int(counter.value) for
                  counter_name, counter in metrics.counters.items()
                  if counter_name.startswith("check_")})
    return report


def _exhaustive_expansions(outcome: RunOutcome, max_depth: int
                           ) -> List[Tuple[int, ...]]:
    """Every untried alternative at every choice point at or beyond the
    forced prefix (earlier points belong to already-scheduled
    subtrees)."""
    prefixes: List[Tuple[int, ...]] = []
    choices = outcome.choices
    for index in range(len(outcome.forced),
                       min(len(outcome.points), max_depth)):
        point = outcome.points[index]
        for alternative in range(len(point.options)):
            if alternative != choices[index]:
                prefixes.append(tuple(choices[:index]) + (alternative,))
    return prefixes


def _dpor_expansions(outcome: RunOutcome, max_depth: int,
                     metrics: MetricsRegistry
                     ) -> List[Tuple[int, ...]]:
    """Backtracking points for this run (see module docstring)."""
    prefixes: List[Tuple[int, ...]] = []
    choices = outcome.choices
    # Hand-off and delivery orders branch whenever contended: their
    # alternatives are few and reordering them is exactly the kind of
    # schedule dependence the vector clocks cannot rule out.
    for index in range(min(len(outcome.points), max_depth)):
        point = outcome.points[index]
        if point.kind in ("handoff", "deliver") \
                and len(point.options) > 1:
            for alternative in range(len(point.options)):
                if alternative != choices[index]:
                    prefixes.append(tuple(choices[:index])
                                    + (alternative,))
    for earlier, later in _dependent_pairs(outcome.events):
        prefix = _backtrack_prefix(outcome, earlier.position,
                                   later.thread, max_depth)
        if prefix is not None:
            metrics.inc("check_backtracks")
            prefixes.append(prefix)
    return prefixes
