"""The harness under the self-check suites and their artifacts.

Six ``repro`` subcommands assert something about the system —
``analyze``, ``check``, ``flow``, ``faults``, ``faults --recover`` and
``chaos``.  Each is a list of scenarios that end in a verdict, rendered
as text and as JSON.  A suite *declares*
(:class:`Suite`) what is truly its own: the JSON fields of one outcome,
its verdict-line style, its trailer, its counter names, and one
function from an outcome to its indented body lines.  The harness
*owns* everything else: ``ok`` aggregation, pass counting, the report
layout, ``as_dict``, the counter merge with its ``totals:`` and
``counters:`` lines, and the guard that turns a crashing scenario into
a FAIL verdict (:func:`guarded`).

:func:`canonical_sha256` is the fingerprint of every deterministic
payload (the ``amberflow-hints/1`` artifact, the findings set).

Report text and artifact bytes are fixed points
(``tests/test_cli_golden.py``); JSON key order is not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

# ---------------------------------------------------------------------------
# Outcomes and reports
# ---------------------------------------------------------------------------

#: The two verdict-line styles.  ``{verdict}`` is PASS/FAIL, ``{mark}``
#: is ``ok ``/``FAIL``; a leading newline is the blank line that sets
#: scenarios apart.
PASS_FAIL = "\n[{verdict}] {name}: {description}"
OK_MARK = "[{mark}] {name}"


@dataclass
class Outcome:
    """Verdict of one scenario."""

    name: str
    ok: bool
    description: str = ""
    #: The suite-specific JSON fields (named by :attr:`Suite.fields`);
    #: ``counters`` among them where the suite merges counters.
    fields: Dict[str, Any] = field(default_factory=dict)

    def value(self, name: str) -> Any:
        """One JSON field: suite-specific, or an attribute of every
        outcome (``name``, ``ok``, ``description``)."""
        return self.fields[name] if name in self.fields \
            else getattr(self, name)


@dataclass(frozen=True)
class Suite:
    """What one self-check suite declares about its report."""

    #: JSON key of the outcome list (``scenarios`` or ``outcomes``).
    key: str
    #: JSON fields of one outcome, in order (see :meth:`Outcome.value`).
    fields: Tuple[str, ...]
    #: Verdict line: :data:`PASS_FAIL` or :data:`OK_MARK`, indented as
    #: the suite prints it.
    line: str
    #: An outcome's body lines, indented as the suite prints them.
    body: Callable[[Outcome], List[str]]
    #: Last line(s); may use ``{verdict}``, ``{passed}``, ``{total}``
    #: and, with counters, ``{totals}``.
    trailer: str = "\noverall: {verdict}"
    #: Counters merged over the outcomes' ``counters`` fields into the
    #: JSON's ``counters`` (every name, zero or not) and the ``totals:``
    #: line; each outcome gets a ``counters:`` line.
    counter_names: Tuple[str, ...] = ()


def _nonzero(counters: Mapping[str, int]) -> str:
    return ", ".join(f"{name}={value}" for name, value
                     in sorted(counters.items()) if value) or "(none)"


@dataclass
class Report:
    """All outcomes of one suite invocation."""

    suite: Suite
    #: Header lines, already rendered.
    title: List[str]
    #: Run parameters: the leading keys of the JSON (seed, fast, ...).
    params: Dict[str, Any]
    outcomes: List[Outcome]
    #: What the run produced besides verdicts (hints, artifact,
    #: findings): JSON-ready values, or objects with ``as_dict``.
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def counters(self) -> Dict[str, int]:
        merged = {name: 0 for name in self.suite.counter_names}
        for outcome in self.outcomes:
            for name, value in outcome.fields.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def as_dict(self) -> Dict[str, Any]:
        suite = self.suite
        data = dict(self.params)
        data["ok"] = self.ok
        if suite.counter_names:
            data["counters"] = self.counters
        data[suite.key] = [{name: outcome.value(name)
                            for name in suite.fields}
                           for outcome in self.outcomes]
        for name, extra in self.extras.items():
            data[name] = (extra.as_dict() if hasattr(extra, "as_dict")
                          else extra)
        return data

    def render(self) -> str:
        suite = self.suite
        lines = list(self.title)
        for outcome in self.outcomes:
            lines.append(suite.line.format(
                verdict="PASS" if outcome.ok else "FAIL",
                mark="ok " if outcome.ok else "FAIL",
                name=outcome.name, description=outcome.description))
            lines.extend(suite.body(outcome))
            if suite.counter_names:
                lines.append("  counters: "
                             + _nonzero(outcome.fields["counters"]))
        lines.append(suite.trailer.format(
            verdict="PASS" if self.ok else "FAIL",
            passed=sum(1 for outcome in self.outcomes if outcome.ok),
            total=len(self.outcomes),
            totals=_nonzero(self.counters)))
        return "\n".join(lines)


def guarded(name: str, run: Callable[[], Outcome],
            **fields: Any) -> Outcome:
    """A scenario that crashes is a FAIL verdict, not a dead suite.
    ``fields`` are the suite-specific fields of that verdict."""
    try:
        return run()
    except Exception as error:
        detail = f"crashed: {type(error).__name__}: {error}"
        return Outcome(name=name, ok=False,
                       description="(crashed before its verdict)",
                       fields={**fields, "detail": detail})


def judged(name: str, description: str, correct: bool,
           deterministic: bool, **fields: Any) -> Outcome:
    """The verdict of the suites that ask two questions of a scenario:
    did it give the right answer, and the same one every time?"""
    return Outcome(name=name, ok=correct and deterministic,
                   description=description,
                   fields={"correct": correct,
                           "deterministic": deterministic, **fields})


def detailed(name: str, ok: bool, details: List[str]) -> Outcome:
    """The verdict of the suites whose scenarios explain themselves in
    a list of detail lines."""
    return Outcome(name=name, ok=ok, fields={"details": details})


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def canonical_sha256(value: Any) -> str:
    """sha256 over the canonical JSON encoding of ``value`` (sorted
    keys, no whitespace): byte-identical across runs, processes and
    hash seeds."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
