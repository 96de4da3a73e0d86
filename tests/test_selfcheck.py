"""The self-check harness (``repro.selfcheck``): the report branches no
suite run exercises — a FAIL verdict, a crashing scenario, counter
merging — and the placement-hints artifact: its fingerprint, and a
load that never raises."""

import json

import pytest

from repro.analyze.flow.hints import (
    HINTS_SCHEMA,
    Hint,
    PlacementHints,
    load_hints,
)
from repro.selfcheck import (
    OK_MARK,
    PASS_FAIL,
    Outcome,
    Report,
    Suite,
    canonical_sha256,
    detailed,
    guarded,
    judged,
)

JUDGED = Suite(
    key="scenarios",
    fields=("name", "description", "ok", "correct", "deterministic",
            "detail"),
    line=PASS_FAIL,
    body=lambda outcome: [f"  {outcome.fields['detail']}"])

COUNTED = Suite(
    key="scenarios", fields=("name", "ok", "counters", "detail"),
    line=PASS_FAIL, body=lambda outcome: [],
    trailer="\ntotals: {totals}\noverall: {verdict}",
    counter_names=("sent", "lost", "never"))

DETAILED = Suite(
    key="outcomes", fields=("name", "ok", "details"),
    line="  " + OK_MARK,
    body=lambda outcome: [f"      {line}"
                          for line in outcome.fields["details"]],
    trailer="{verdict}: {passed}/{total}")


def report(suite, outcomes, **extras):
    return Report(suite, title=["title"], params={"seed": 7},
                  outcomes=outcomes, extras=extras)


class TestReport:
    def test_fail_outcome_renders_fail_and_flips_overall(self):
        good = judged("a", "first", True, True, detail="fine")
        assert report(JUDGED, [good]).render().endswith("overall: PASS")
        for correct, deterministic in ((False, True), (True, False)):
            bad = judged("b", "second", correct, deterministic,
                         detail="broke")
            assert not bad.ok
            both = report(JUDGED, [good, bad])
            assert not both.ok
            assert both.render() == (
                "title\n"
                "\n[PASS] a: first\n  fine\n"
                "\n[FAIL] b: second\n  broke\n"
                "\noverall: FAIL")
            assert both.as_dict()["ok"] is False
            assert [s["ok"] for s in both.as_dict()["scenarios"]] \
                == [True, False]

    def test_ok_mark_style_counts_passes(self):
        text = report(DETAILED, [detailed("x", True, ["one", "two"]),
                                 detailed("y", False, [])]).render()
        assert text == ("title\n"
                        "  [ok ] x\n      one\n      two\n"
                        "  [FAIL] y\n"
                        "FAIL: 1/2")

    def test_as_dict_reads_the_declared_fields(self):
        outcome = judged("a", "first", True, True, detail="fine",
                         undeclared="dropped")
        data = report(JUDGED, [outcome]).as_dict()
        assert data == {"seed": 7, "ok": True, "scenarios": [{
            "name": "a", "description": "first", "ok": True,
            "correct": True, "deterministic": True, "detail": "fine"}]}
        # A field the suite declares and the scenario forgot is a bug
        # that surfaces, not a silently shorter JSON.
        with pytest.raises(AttributeError):
            report(JUDGED, [Outcome("a", True)]).as_dict()

    def test_extras_encode_through_as_dict(self):
        hints = PlacementHints(HINTS_SCHEMA, ["a.py"], [])
        data = report(DETAILED, [], hints=hints, notes=["n"]).as_dict()
        assert data["hints"] == hints.as_dict()
        assert data["notes"] == ["n"]    # JSON-ready: as it is

    def test_counter_totals_sum_and_omit_zeros(self):
        counted = report(COUNTED, [
            Outcome("a", True, fields={
                "counters": {"sent": 2, "lost": 0}, "detail": ""}),
            Outcome("b", True, fields={
                "counters": {"sent": 3, "extra": 1}, "detail": ""}),
        ])
        # Every declared name is in the JSON, zero or not; a counter a
        # scenario reports beyond them is kept.
        assert counted.counters == {"sent": 5, "lost": 0, "never": 0,
                                    "extra": 1}
        assert counted.as_dict()["counters"] == counted.counters
        assert counted.render() == (
            "title\n"
            "\n[PASS] a: \n  counters: sent=2\n"
            "\n[PASS] b: \n  counters: extra=1, sent=3\n"
            "\ntotals: extra=1, sent=5\noverall: PASS")

    def test_no_counters_at_all_reads_none(self):
        quiet = report(COUNTED, [Outcome("a", True, fields={
            "counters": {}, "detail": ""})])
        assert "  counters: (none)" in quiet.render()
        assert "totals: (none)" in quiet.render()


class TestGuarded:
    def test_a_verdict_passes_through(self):
        outcome = detailed("fine", True, [])
        assert guarded("fine", lambda: outcome) is outcome

    def test_a_crash_is_a_fail_verdict(self):
        def scenario():
            raise KeyError("node 2")

        outcome = guarded("boom", scenario, elapsed_s=1.5, counters={})
        assert not outcome.ok
        assert outcome.name == "boom"
        assert outcome.description == "(crashed before its verdict)"
        assert outcome.fields == {
            "elapsed_s": 1.5, "counters": {},
            "detail": "crashed: KeyError: 'node 2'"}
        text = report(JUDGED, [outcome]).render()
        assert "[FAIL] boom: (crashed before its verdict)" in text
        assert "overall: FAIL" in text

    def test_interrupts_are_not_verdicts(self):
        def scenario():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guarded("stop", scenario)


# ---------------------------------------------------------------------------
# The deterministic artifact: the placement hints
# ---------------------------------------------------------------------------

ARTIFACTS = {
    "hints": (load_hints, PlacementHints(
        HINTS_SCHEMA, ["apps/a.py"],
        [Hint(kind="hub", cls="Pool", evidence="busy", weight=3)])),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
class TestArtifactBase:
    def test_fingerprint_is_over_the_payload(self, kind):
        load, artifact = ARTIFACTS[kind]
        assert artifact.valid
        assert artifact.fingerprint == canonical_sha256(
            artifact.payload())
        assert "fingerprint" not in artifact.payload()
        assert artifact.as_dict()["fingerprint"] == artifact.fingerprint

    def test_roundtrip_keeps_the_fingerprint(self, kind, tmp_path):
        load, artifact = ARTIFACTS[kind]
        path = tmp_path / "artifact.json"
        path.write_text(artifact.to_json())
        for loaded in (load(str(path)), load(path),
                       load(json.loads(path.read_text()))):
            assert type(loaded) is type(artifact)
            assert loaded.valid
            assert loaded.fingerprint == artifact.fingerprint
            assert loaded.to_json() == artifact.to_json()

    @pytest.mark.parametrize("text, schema", [
        (None, "unreadable"),                       # missing file
        ("TRUNCATED", "unreadable"),
        ("\x00\xff\xfe", "unreadable"),
        ("[1, 2, 3]\n", "malformed"),               # not an object
        ('"just a string"', "malformed"),
        ('{"schema": "someone-elses/9", "locks": 4}', "someone-elses/9"),
        # Right keys, hostile types (each once raised out of
        # ``load_hints``).
        ('{"schema": "amberflow-hints/1", "hints": 3}', None),
        ('{"schema": "amberflow-hints/1", "hints": [{"weight": "x"}]}',
         None),
    ])
    def test_hostile_files_load_as_not_valid(self, kind, text, schema,
                                             tmp_path):
        load, artifact = ARTIFACTS[kind]
        path = tmp_path / "artifact.json"
        if text == "TRUNCATED":
            path.write_text(artifact.to_json()[:37])
        elif text is not None:
            path.write_bytes(text.encode("latin-1"))
        loaded = load(str(path))
        assert type(loaded) is type(artifact)
        assert not loaded.valid
        if schema is not None:
            assert loaded.schema == schema
