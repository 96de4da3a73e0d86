"""Structure of the live runtime (DESIGN.md, "Live threading model"):
each request's fate is decided in ``runtime/lifecycle.py``, which does
no I/O, so a test can drive it at any ``now``; the kernel reads the
clock and moves the frames.  ``ast`` only; no wall clock.
"""

import ast

from tests.test_kernel_layering import SRC

RUNTIME = SRC / "repro" / "runtime"
LIFECYCLE = RUNTIME / "lifecycle.py"

#: What the lifecycle may not import: the clock, sockets, queues,
#: randomness, logging, and the transport.
FORBIDDEN = ("socket", "time", "queue", "random", "logging",
             "repro.runtime.transport")

#: The lifecycle's classes, and its ladder and breaker state.
CLASSES = {"Dedup", "Pending", "PeerCircuits", "_Peer"}
FIELDS = {"rto_s", "rto_base_s", "resend_at", "give_up_at", "opened_at",
          "probe_at", "failures"}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}"
                        for alias in node.names)


def test_the_lifecycle_does_no_io():
    tree = ast.parse(LIFECYCLE.read_text())
    banned = [name for name in _imported(tree)
              if any(name == module or name.startswith(module + ".")
                     for module in FORBIDDEN)]
    assert not banned, banned
    clocks = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and "monotonic" in ast.unparse(node.func)]
    assert not clocks, clocks


def test_the_lifecycle_is_decided_in_one_module():
    assert not (RUNTIME / "circuit.py").exists()
    for path in sorted(RUNTIME.glob("*.py")):
        if path == LIFECYCLE:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.ClassDef)
                        and node.name in CLASSES), (path.name, node.name)
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in FIELDS), (path.name, node.attr)
