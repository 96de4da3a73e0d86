"""Structure of the live runtime (DESIGN.md, "Live threading model"):
each request's fate is decided in ``runtime/lifecycle.py``, which does
no I/O, so a test can drive it at any ``now``; the kernel reads the
clock and moves the frames.  Simulator program text reaches the live
runtime through one table (``runtime/programtext.py``), and only when a
program runs: ``import repro.runtime`` loads no simulator.  No wall
clock.
"""

import ast
import inspect
import json

from repro.runtime.programtext import REFUSED, request_table
from repro.sim import syscalls as sc
from tests.test_kernel_layering import SRC, run_python

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


def test_the_runtime_imports_no_simulator_or_analysis():
    loaded = json.loads(run_python(
        "import json, sys, repro.runtime\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    assert [name for name in loaded
            if name.split(".")[:2] in (["repro", "sim"],
                                       ["repro", "analyze"])] == []


def test_every_simulator_request_is_served_or_refused_live():
    requests = {cls for _, cls in inspect.getmembers(sc, inspect.isclass)
                if cls.__module__ == sc.__name__}
    served = set(request_table())
    refused = {cls for cls in requests if cls.__name__ in REFUSED}
    assert requests == served | refused
    assert not served & refused
    assert {cls.__name__ for cls in refused} == REFUSED
