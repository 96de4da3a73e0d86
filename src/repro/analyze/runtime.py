"""Per-process registry of the active sanitizer and schedule controller.

This module is imported by the simulator's hot paths (``sim.kernel``,
``sim.sync``, ``sim.network``) and therefore imports nothing outside
the standard library: the hooks read :data:`ACTIVE` / :data:`CONTROLLER`
and bail on ``None``, so an uninstrumented run pays a single
module-attribute load per hook site.

Exactly one sanitizer can be active at a time (the simulator is
single-threaded, and a sanitizer's class-level attribute hooks are
process-global), and likewise exactly one schedule controller — the
:class:`repro.analyze.choice.ChoiceController` that AmberCheck installs
to record and force scheduling decisions.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analyze.choice import ChoiceController
    from repro.analyze.sanitizer import Sanitizer

#: The sanitizer observing the currently running simulation, if any.
ACTIVE: Optional["Sanitizer"] = None

#: The schedule controller driving the currently running simulation, if
#: any.  Consulted by the kernel (preemption points), the sync objects
#: (waiter hand-off), the network (delivery order), and the
#: :class:`repro.sim.scheduler.ControlledScheduler` (ready-queue picks).
CONTROLLER: Optional["ChoiceController"] = None

#: The innermost open :func:`sanitize_runs` block: its sanitizer
#: builder and the list its runs' sanitizers are appended to.
_BLOCK: Optional[Tuple[Callable[[], "Sanitizer"], List["Sanitizer"]]] = None


def install_controller(controller: "ChoiceController") -> None:
    """Make ``controller`` the process-wide schedule controller."""
    global CONTROLLER
    if CONTROLLER is not None:
        raise RuntimeError("a schedule controller is already installed")
    CONTROLLER = controller


def uninstall_controller() -> None:
    global CONTROLLER
    CONTROLLER = None


def sanitizer_for_run() -> Optional["Sanitizer"]:
    """The sanitizer for one :class:`repro.sim.program.AmberProgram`
    run: inside a :func:`sanitize_runs` block a new one, appended to
    the block's list; outside any block ``None``."""
    if _BLOCK is None:
        return None
    if ACTIVE is not None:
        raise RuntimeError("a sanitizer is already active")
    make, collected = _BLOCK
    sanitizer = make()
    collected.append(sanitizer)
    return sanitizer


@contextmanager
def sanitize_runs(make: Optional[Callable[[], "Sanitizer"]] = None
                  ) -> Iterator[List["Sanitizer"]]:
    """Sanitize every simulated program run in the block.

    Each run gets a fresh ``make()`` (default: a plain
    :class:`Sanitizer`; AmberCheck passes a tracing subclass).  Yields
    the list of every run's sanitizer, in run order.  A nested block
    restores the outer block's ``make`` and list on exit.
    """
    global _BLOCK
    if make is None:
        from repro.analyze.sanitizer import Sanitizer
        make = Sanitizer
    outer = _BLOCK
    collected: List["Sanitizer"] = []
    _BLOCK = (make, collected)
    try:
        yield collected
    finally:
        _BLOCK = outer
