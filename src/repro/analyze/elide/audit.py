"""The AmberElide soundness audit (``repro elide``'s ``soundness-audit``):
runs under a sanitizer that checks the active elision set's claims."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.analyze.elide import runtime as _ert


def _make_audit_sanitizer() -> Any:
    """An AmberSan subclass that additionally cross-checks the *active
    elision set's claims* against the observed run:

    * a claimed-confined object touched by a second thread,
    * a post-construction write to a claimed-immutable class,
    * an elision-marked lock acquired by a second thread

    each raise a hard ``AMBELIDE-UNSOUND`` finding.  Built lazily so
    importing this module never drags the sanitizer in."""
    from repro.analyze.sanitizer import Finding, Sanitizer

    class _AuditSanitizer(Sanitizer):
        def __init__(self) -> None:
            super().__init__()
            active = _ert.active()
            self._au_confined = (active.confined if active
                                 else frozenset())
            self._au_immutable = (active.immutable if active
                                  else frozenset())
            #: vaddr -> tid of the first toucher (confined claim).
            self._au_first: Dict[int, int] = {}
            #: lock id() -> tid of the first acquirer (lock claim).
            self._au_lock_first: Dict[int, int] = {}
            #: Objects created since the last step began.
            self._au_fresh: List[Any] = []
            #: ``(class, file, line)`` of every elision-marked lock, at
            #: the ``yield New`` that created it.
            self.marked: List[Tuple[str, str, int]] = []

        def on_create(self, obj: Any) -> None:
            self._au_fresh.append(obj)
            super().on_create(obj)

        def step_begin(self, thread: Any, obj: Any, method: str) -> None:
            # ``New`` resumes its creator in the kernel step that made
            # the object: the thread whose step begins next is the
            # creator, still suspended at its ``yield New`` line.
            for made in self._au_fresh:
                if getattr(made, "_elide_ok", False):
                    gen = thread.stack[-1].gen
                    while getattr(gen, "gi_yieldfrom", None) is not None \
                            and hasattr(gen.gi_yieldfrom, "gi_frame"):
                        gen = gen.gi_yieldfrom
                    self.marked.append((type(made).__name__,
                                        gen.gi_frame.f_code.co_filename,
                                        gen.gi_frame.f_lineno))
            self._au_fresh.clear()
            super().step_begin(thread, obj, method)

        def _unsound(self, obj: Any, vaddr: int, name: str,
                     message: str, frame: Any = None) -> None:
            thread, _, op = self._current[-1] if self._current \
                else (None, 0, "?")
            site = (self._site(frame, op, thread)
                    if thread is not None else None)
            self._report(Finding(
                rule="AMBELIDE-UNSOUND",
                obj_cls=type(obj).__name__, obj_vaddr=vaddr,
                field=name, message=message, site=site))

        def _record_access(self, obj: Any, obj_dict: Dict[str, Any],
                           vaddr: int, name: str, is_write: bool,
                           frame: Any) -> None:
            cls = type(obj).__name__
            if self._current:
                tid = self._current[-1][0].tid
                if cls in self._au_confined:
                    first = self._au_first.setdefault(vaddr, tid)
                    if first != tid:
                        self._unsound(
                            obj, vaddr, name,
                            f"claimed-confined {cls} {vaddr:#x} "
                            f"touched by threads {first} and {tid}",
                            frame)
                if is_write and cls in self._au_immutable:
                    self._unsound(
                        obj, vaddr, name,
                        f"claimed-immutable {cls} {vaddr:#x} field "
                        f"{name!r} written after construction", frame)
            super()._record_access(obj, obj_dict, vaddr, name,
                                   is_write, frame)

        def on_acquire(self, sync_obj: Any, thread: Any,
                       order: bool = True) -> None:
            if getattr(sync_obj, "_elide_ok", False):
                first = self._au_lock_first.setdefault(
                    id(sync_obj), thread.tid)
                if first != thread.tid:
                    self._report(Finding(
                        rule="AMBELIDE-UNSOUND",
                        obj_cls=type(sync_obj).__name__,
                        obj_vaddr=sync_obj.vaddr, field="<lock>",
                        message=(
                            f"elision-marked "
                            f"{type(sync_obj).__name__} "
                            f"{sync_obj.vaddr:#x} acquired by threads "
                            f"{first} and {thread.tid}"),
                        site=None))
            super().on_acquire(sync_obj, thread, order=order)

    return _AuditSanitizer()


def audit_run(run: Callable[[], Any]
              ) -> Tuple[Any, List[Any], List[Tuple[str, str, int]]]:
    """Run a program sanitized under the auditing sanitizer (the
    caller has activated an elision set in audit mode); returns its
    result, the findings, and where each marked lock was created."""
    from repro.analyze import runtime as _rt

    with _rt.sanitize_runs(_make_audit_sanitizer) as sanitizers:
        result = run()
    findings = [f for s in sanitizers for f in s.report().findings]
    marked = [site for s in sanitizers
              for site in getattr(s, "marked", ())]
    return result, findings, marked
