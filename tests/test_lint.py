"""Static concurrency lint: each AMB rule on purpose-built snippets,
noqa suppression, and cleanliness of the bundled apps and examples."""

from pathlib import Path

import pytest

from repro.analyze.lint import (
    RULES,
    LintFinding,
    collect_sources,
    lint_paths,
    lint_source,
)
from repro.errors import UsageError

REPO = Path(__file__).resolve().parent.parent


def rules_of(source):
    return [(f.rule, f.line) for f in lint_source(source, "case.py")]


class TestAMB101:
    def test_early_return_leaks_lock(self):
        findings = rules_of("""
def op(self, ctx, lock):
    yield Invoke(lock, "acquire")
    if bad():
        return None
    yield Invoke(lock, "release")
""")
        assert findings == [("AMB101", 3)]

    def test_missing_release_at_function_end(self):
        assert rules_of("""
def op(self, ctx, lock):
    yield Invoke(lock, "acquire")
    yield Compute(5.0)
""") == [("AMB101", 3)]

    def test_monitor_enter_without_exit(self):
        assert rules_of("""
def op(self, ctx, mon):
    yield Invoke(mon, "enter")
    work()
""") == [("AMB101", 3)]

    def test_matched_conditional_acquire_release_is_clean(self):
        assert rules_of("""
def op(self, ctx, lock):
    if lock is not None:
        yield Invoke(lock, "acquire")
    work()
    if lock is not None:
        yield Invoke(lock, "release")
""") == []

    def test_try_finally_release_is_clean(self):
        assert rules_of("""
def op(self, ctx, lock):
    lock.acquire()
    try:
        work()
    finally:
        lock.release()
""") == []

    def test_live_idiom_leak(self):
        assert rules_of("""
def op(self, lock):
    lock.acquire()
    work()
""") == [("AMB101", 3)]


class TestAMB102:
    def test_wait_without_monitor(self):
        assert rules_of("""
def op(self, ctx, mon):
    cv = yield New(CondVar, mon)
    yield Invoke(cv, "wait")
""") == [("AMB102", 4)]

    def test_wait_inside_monitor_is_clean(self):
        assert rules_of("""
def op(self, ctx, mon, cond: CondVar):
    yield Invoke(mon, "enter")
    yield Invoke(cond, "wait")
    yield Invoke(mon, "exit")
""") == []

    def test_non_condvar_wait_is_ignored(self):
        # barrier.wait / thread.wait with timeouts are not condvars.
        assert rules_of("""
def op(self, barrier):
    barrier.wait(timeout=60)
""") == []


class TestAMB103:
    def test_fork_without_join(self):
        assert rules_of("""
def op(self, ctx, anchor):
    t = yield Fork(anchor, "run")
    yield Compute(1.0)
""") == [("AMB103", 3)]

    def test_fork_with_join_is_clean(self):
        assert rules_of("""
def op(self, ctx, anchor):
    t = yield Fork(anchor, "run")
    yield Join(t)
""") == []

    def test_live_thread_join_method_counts(self):
        assert rules_of("""
def op(self, kernel):
    t = kernel.fork(obj, "run")
    t.join()
""") == []


class TestAMB104:
    def test_moveto_of_attached_member(self):
        assert rules_of("""
def op(self, ctx, index, directory):
    yield Attach(index, directory)
    yield MoveTo(index, 1)
""") == [("AMB104", 4)]

    def test_moving_the_attachment_owner_is_clean(self):
        assert rules_of("""
def op(self, ctx, index, directory):
    yield Attach(index, directory)
    yield MoveTo(directory, 1)
""") == []


class TestAMB105:
    def test_join_under_spinlock(self):
        assert rules_of("""
def op(self, ctx, t):
    spin = yield New(SpinLock)
    yield Invoke(spin, "acquire")
    yield Join(t)
    yield Invoke(spin, "release")
""") == [("AMB105", 5)]

    def test_relinquishing_acquire_under_spinlock(self):
        assert rules_of("""
def op(self, ctx, spin: SpinLock, lock):
    yield Invoke(spin, "acquire")
    yield Invoke(lock, "acquire")
    yield Invoke(lock, "release")
    yield Invoke(spin, "release")
""") == [("AMB105", 4)]

    def test_blocking_under_plain_lock_is_fine(self):
        assert rules_of("""
def op(self, ctx, lock, t):
    yield Invoke(lock, "acquire")
    yield Join(t)
    yield Invoke(lock, "release")
""") == []


class TestAMB108:
    def test_invoke_under_spinlock(self):
        assert rules_of("""
def op(self, ctx, store):
    spin = yield New(SpinLock)
    yield Invoke(spin, "acquire")
    yield Invoke(store, "put", 1)
    yield Invoke(spin, "release")
""") == [("AMB108", 5)]

    def test_fastinvoke_under_spinlock(self):
        assert rules_of("""
def op(self, ctx, spin: SpinLock, table):
    yield Invoke(spin, "acquire")
    value = yield FastInvoke(table, "get", 3)
    yield Invoke(spin, "release")
""") == [("AMB108", 4)]

    def test_noqa_suppresses(self):
        assert rules_of("""
def op(self, ctx, spin: SpinLock, store):
    yield Invoke(spin, "acquire")
    yield Invoke(store, "put", 1)  # repro: noqa[AMB108]
    yield Invoke(spin, "release")
""") == []

    def test_invoke_under_plain_lock_is_fine(self):
        assert rules_of("""
def op(self, ctx, lock, store):
    yield Invoke(lock, "acquire")
    yield Invoke(store, "put", 1)
    yield Invoke(lock, "release")
""") == []


class TestAMB109:
    def test_write_after_seal(self):
        assert rules_of("""
def build(self, ctx):
    table = yield New(Table, 8)
    yield SetImmutable(table)
    table.rows = []
""") == [("AMB109", 5)]

    def test_self_field_write_after_sealing_self(self):
        assert rules_of("""
def seal(self, ctx):
    yield SetImmutable(self)
    self.sealed = True
""") == [("AMB109", 4)]

    def test_augmented_write_after_seal(self):
        assert rules_of("""
def bump(self, ctx, table):
    yield SetImmutable(table)
    table.version += 1
""") == [("AMB109", 4)]

    def test_live_runtime_seal_idiom(self):
        assert rules_of("""
def publish(cluster, handle):
    cluster.set_immutable(handle)
    handle.extra = 1
""") == [("AMB109", 4)]

    def test_write_before_seal_is_fine(self):
        assert rules_of("""
def build(self, ctx):
    table = yield New(Table, 8)
    table.rows = []
    yield SetImmutable(table)
""") == []

    def test_other_object_write_is_fine(self):
        assert rules_of("""
def build(self, ctx, scratch):
    table = yield New(Table, 8)
    yield SetImmutable(table)
    scratch.rows = []
""") == []

    def test_noqa_suppresses(self):
        assert rules_of("""
def build(self, ctx):
    table = yield New(Table, 8)
    yield SetImmutable(table)
    table.rows = []  # repro: noqa[AMB109]
""") == []

    def test_invoke_after_release_is_fine(self):
        assert rules_of("""
def op(self, ctx, spin: SpinLock, store):
    yield Invoke(spin, "acquire")
    yield Invoke(spin, "release")
    yield Invoke(store, "put", 1)
""") == []


class TestAMB106:
    def test_barrier_count_mismatch(self):
        assert rules_of("""
def main(ctx):
    barrier = yield New(Barrier, 4)
    threads = []
    for i in range(2):
        worker = yield New(Worker)
        threads.append((yield Fork(worker, "run", barrier)))
    for t in threads:
        yield Join(t)
""") == [("AMB106", 3)]

    def test_matching_count_is_clean(self):
        for parties in (2, 3):    # workers alone, or workers + forker
            assert rules_of(f"""
def main(ctx):
    barrier = yield New(Barrier, {parties})
    threads = []
    for i in range(2):
        worker = yield New(Worker)
        threads.append((yield Fork(worker, "run", barrier)))
    for t in threads:
        yield Join(t)
""") == []

    def test_direct_constructor_and_range_bounds(self):
        assert rules_of("""
def main(rt):
    barrier = Barrier(9)
    handles = []
    for i in range(1, 4):
        handles.append(rt.fork(work, barrier))
    for h in handles:
        h.join()
""") == [("AMB106", 3)]

    def test_variable_parties_is_skipped(self):
        assert rules_of("""
def main(ctx, n):
    barrier = yield New(Barrier, n)
    for i in range(2):
        t = yield Fork(worker, "run", barrier)
        yield Join(t)
""") == []

    def test_uncountable_forks_are_skipped(self):
        assert rules_of("""
def main(ctx, extra, n):
    barrier = yield New(Barrier, 9)
    t = yield Fork(worker, "run")
    if extra:
        t2 = yield Fork(worker, "run")
        yield Join(t2)
    for i in range(n):
        t3 = yield Fork(worker, "run")
        yield Join(t3)
    yield Join(t)
""") == []

    def test_no_forks_is_skipped(self):
        assert rules_of("""
def main(ctx):
    barrier = yield New(Barrier, 3)
    yield Invoke(barrier, "wait")
""") == []

    def test_noqa(self):
        assert rules_of("""
def main(ctx):
    barrier = yield New(Barrier, 4)  # repro: noqa[AMB106]
    t = yield Fork(worker, "run", barrier)
    yield Join(t)
""") == []


class TestAMB107:
    def test_double_join_flagged(self):
        assert rules_of("""
def main(ctx):
    t = yield Fork(worker, "run")
    yield Join(t)
    yield Join(t)
""") == [("AMB107", 5)]

    def test_join_in_loop_flagged(self):
        assert rules_of("""
def main(ctx):
    t = yield Fork(worker, "run")
    for i in range(3):
        yield Join(t)
""") == [("AMB107", 5)]

    def test_live_runtime_idiom(self):
        assert rules_of("""
def main(rt):
    t = rt.fork(work)
    t.join()
    t.join()
""") == [("AMB107", 5)]

    def test_invoke_join_form(self):
        assert rules_of("""
def main(ctx):
    t = yield Fork(worker, "run")
    yield Invoke(t, "join")
    yield Invoke(t, "join")
""") == [("AMB107", 5)]

    def test_reassigned_handle_is_clean(self):
        assert rules_of("""
def main(ctx):
    t = yield Fork(worker, "run")
    yield Join(t)
    t = yield Fork(worker, "run")
    yield Join(t)
""") == []

    def test_exclusive_branches_are_clean(self):
        assert rules_of("""
def main(ctx, flag):
    t = yield Fork(worker, "run")
    if flag:
        yield Join(t)
    else:
        yield Join(t)
""") == []

    def test_join_per_iteration_handle_is_clean(self):
        assert rules_of("""
def main(ctx):
    for i in range(3):
        t = yield Fork(worker, "run")
        yield Join(t)
""") == []

    def test_str_join_is_not_a_thread_join(self):
        assert rules_of("""
def fmt(parts):
    a = ", ".join(parts)
    b = ", ".join(parts)
    return a + b
""") == []

    def test_noqa(self):
        assert rules_of("""
def main(ctx):
    t = yield Fork(worker, "run")
    yield Join(t)
    yield Join(t)  # repro: noqa[AMB107]
""") == []


class TestSuppression:
    def test_bare_noqa_suppresses_all(self):
        assert rules_of("""
def op(self, ctx, lock):
    yield Invoke(lock, "acquire")  # repro: noqa
""") == []

    def test_rule_scoped_noqa(self):
        assert rules_of("""
def op(self, ctx, anchor):
    t = yield Fork(anchor, "run")  # repro: noqa[AMB103]
""") == []

    def test_wrong_rule_noqa_does_not_suppress(self):
        assert rules_of("""
def op(self, ctx, anchor):
    t = yield Fork(anchor, "run")  # repro: noqa[AMB101]
""") == [("AMB103", 3)]


class TestOwnNodes:
    """Every rule reads a function's own nodes: a nested function is a
    scope of its own, linted once, and hides nothing of its parent."""

    def test_nested_main_reports_each_defect_once(self):
        source = """
def run_x():
    def main(ctx, obj, a, b, cfg):
        t = yield Fork(obj, "run")
        yield Attach(a, b)
        yield MoveTo(a, 1)
        yield SetImmutable(cfg)
        cfg.x = 1
    return main
"""
        assert rules_of(source) == [("AMB103", 4), ("AMB104", 6),
                                    ("AMB109", 8)]

    def test_join_in_a_nested_helper_does_not_mask_the_fork(self):
        assert rules_of("""
def op(ctx, obj):
    t = yield Fork(obj, "run")

    def later(ctx):
        yield Join(t)
    return later
""") == [("AMB103", 3)]

    def test_seal_in_the_parent_does_not_convict_a_nested_write(self):
        assert rules_of("""
def op(ctx, cfg):
    yield SetImmutable(cfg)

    def other(cfg):
        cfg.x = 1
    return other
""") == []


class TestReceivers:
    """A message names its receiver by its source text, and a sync
    object is known by more than a local assignment."""

    def test_messages_print_the_receiver_as_written(self):
        messages = [f.message for f in lint_source("""
class Pooled:
    def leak(self, ctx, locks):
        yield Invoke(locks[0], "acquire")
        yield Invoke(self.pool.lock, "acquire")

    def move(self, ctx, cfgs, peer):
        yield Attach(cfgs[0], peer)
        yield MoveTo(cfgs[0], 1)
        yield SetImmutable(self.cfg.inner)
        self.cfg.inner.x = 1
""", "case.py")]
        assert not [m for m in messages if "<expr>" in m]
        assert [m.split("'")[1] for m in messages] == [
            "locks[0]", "self.pool.lock", "cfgs[0]", "self.cfg.inner.x"]

    def test_spinlock_held_in_a_field_assigned_in_another_method(self):
        findings = lint_source("""
class Spinner:
    def __init__(self):
        self.s = SpinLock()

    def blocks(self, ctx, t):
        yield Invoke(self.s, "acquire")
        yield Join(t)
        yield Invoke(self.s, "release")

    def invokes(self, ctx, far):
        yield Invoke(self.s, "acquire")
        yield Invoke(far, "poke")
        yield Invoke(self.s, "release")
""", "case.py")
        assert [(f.rule, f.line) for f in findings] \
            == [("AMB105", 8), ("AMB108", 13)]
        assert "SpinLock 'self.s'" in findings[0].message

    def test_condvar_held_in_a_field(self):
        assert rules_of("""
class Holder:
    def __init__(self):
        self.cv = CondVar()

    def wait(self, ctx):
        yield Invoke(self.cv, "wait")
""") == [("AMB102", 7)]

    def test_string_and_optional_annotations(self):
        assert rules_of("""
def op(ctx, s: "SpinLock", o: Optional[SpinLock], cv: "CondVar", t):
    yield Invoke(s, "acquire")
    yield Join(t)
    yield Invoke(s, "release")
    yield Invoke(o, "acquire")
    yield Invoke(t, "poke")
    yield Invoke(o, "release")
    yield Invoke(cv, "wait")
""") == [("AMB105", 4), ("AMB108", 7), ("AMB102", 9)]

    def test_a_closure_sees_the_enclosing_annotation(self):
        assert rules_of("""
def run_x(s: SpinLock):
    def main(ctx):
        yield Invoke(s, "acquire")
        yield Sleep(5.0)
        yield Invoke(s, "release")
    return main
""") == [("AMB105", 5)]

    def test_field_typed_in_one_file_is_known_in_another(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "class Spinner:\n"
            "    def __init__(self):\n"
            "        self.s = SpinLock()\n")
        (tmp_path / "b.py").write_text(
            "class Spinner(Base):\n"
            "    def blocks(self, ctx, t):\n"
            "        yield Invoke(self.s, 'acquire')\n"
            "        yield Join(t)\n"
            "        yield Invoke(self.s, 'release')\n")
        assert [(Path(f.path).name, f.rule, f.line)
                for f in lint_paths([str(tmp_path)])] \
            == [("b.py", "AMB105", 4)]


class TestHarness:
    def test_rule_catalogue_is_complete(self):
        assert set(RULES) == {"AMB101", "AMB102", "AMB103",
                              "AMB104", "AMB105", "AMB106", "AMB107",
                              "AMB108", "AMB109"}

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert findings[0].rule == "AMB000"

    def test_finding_render_format(self):
        finding = LintFinding("apps/x.py", 12, "AMB101", "leaked")
        assert finding.render() == "apps/x.py:12: AMB101 leaked"

    def test_lint_paths_walks_files_and_dirs(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def op(self, ctx, anchor):\n"
            "    t = yield Fork(anchor, 'run')\n")
        findings = lint_paths([str(tmp_path)])
        assert [(f.rule, f.line) for f in findings] == [("AMB103", 2)]


class TestCollectSources:
    """The one path policy behind lint, flow and elide."""

    def test_directory_gives_its_sorted_py_files(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        for name in ("b.py", "pkg/a.py", "a.py", "notes.txt"):
            (tmp_path / name).write_text(f"# {name}\n")
        sources, errors = collect_sources([str(tmp_path)])
        assert [Path(path).relative_to(tmp_path).as_posix()
                for path, _ in sources] == ["a.py", "b.py", "pkg/a.py"]
        assert sources[0][1] == "# a.py\n"
        assert errors == {}

    def test_named_file_is_read_whatever_its_suffix(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("x = 1\n")
        assert collect_sources([str(notes)]) \
            == ([(notes.as_posix(), "x = 1\n")], {})

    def test_missing_path_is_a_usage_error(self, tmp_path):
        (tmp_path / "real.py").write_text("x = 1\n")
        missing = str(tmp_path / "reel.py")
        with pytest.raises(UsageError, match="no such file or directory"):
            collect_sources([str(tmp_path / "real.py"), missing])
        with pytest.raises(UsageError):
            lint_paths([missing])

    def test_unreadable_file_is_reported_not_raised(self, tmp_path):
        binary = tmp_path / "blob.py"
        binary.write_bytes(b"\xff\xfe\x00")
        sources, errors = collect_sources([str(tmp_path)])
        assert sources == []
        assert list(errors) == [binary.as_posix()]
        assert errors[binary.as_posix()].startswith("unreadable: ")
        assert [(f.path, f.rule) for f in lint_paths([str(binary)])] \
            == [(binary.as_posix(), "AMB000")]

    def test_finding_encodes_itself(self):
        finding = LintFinding("apps/x.py", 12, "AMB101", "leaked")
        assert finding.as_dict() == {"path": "apps/x.py", "line": 12,
                                     "rule": "AMB101",
                                     "message": "leaked"}
        assert list(finding.as_dict()) \
            == ["path", "line", "rule", "message"]


class TestRealCode:
    @pytest.mark.parametrize("tree", ["src/repro/apps", "examples",
                                      "src/repro/analyze/fixtures.py",
                                      "src/repro/bench"])
    def test_bundled_code_is_lint_clean(self, tree):
        findings = lint_paths([str(REPO / tree)])
        assert findings == [], "\n".join(f.render() for f in findings)
