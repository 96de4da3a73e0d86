"""The operation rule both kernels share (an object's public operations
are its whole interface)."""

from __future__ import annotations

from typing import Any

from repro.errors import InvocationError


def operation_of(obj: Any, method: str) -> Any:
    """The bound operation ``method`` of ``obj``.  An ``_`` name is
    internals, never an operation (``__init__`` would re-run the
    constructor)."""
    fn = None if method[:1] == "_" else getattr(obj, method, None)
    if fn is None or not callable(fn):
        raise InvocationError(
            f"{type(obj).__name__} has no operation {method!r}")
    return fn
