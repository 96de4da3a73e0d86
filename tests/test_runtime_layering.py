"""Structure of the live runtime (DESIGN.md, "Live threading model"):
each request's fate is decided in ``runtime/lifecycle.py``, which does
no I/O, so a test can drive it at any ``now``; the kernel reads the
clock and moves the frames.  One transport carries every frame: only
``runtime/transport.py`` opens a socket, and the coordinator is a mesh
peer that holds a connection to the same handshake as a node.
Simulator program text reaches the live runtime through one table
(``runtime/programtext.py``), and only when a program runs: ``import
repro.runtime`` loads no simulator.  The frame format
(``runtime/frames.py``) and the worker pool (``runtime/workers.py``)
are modules of their own, and every user of a name that moved there
takes it from there.  No wall clock.
"""

import ast
import inspect
import json
import socket
from pathlib import Path

import pytest

from repro.runtime import messages as m
from repro.runtime import transport
from repro.runtime.coordinator import Coordinator
from repro.runtime.frames import _encode
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


def _imports_of(name):
    return set(_imported(ast.parse((RUNTIME / name).read_text())))


def _is_in(name, modules):
    return any(name == module or name.startswith(module + ".")
               for module in modules)


def test_the_codec_reads_a_connection_it_is_handed():
    imported = _imports_of("frames.py")
    assert {name for name in imported if name.startswith("repro")
            and not _is_in(name, ("repro.errors",
                                  "repro.runtime.messages"))} == set()
    assert not [name for name in imported
                if _is_in(name, ("socket", "threading"))]


def test_the_worker_pool_knows_no_requests():
    assert not [name for name in _imports_of("workers.py")
                if _is_in(name, ("repro",))]


def test_only_the_codec_packs_bytes():
    importers = sorted(path.name for path in RUNTIME.glob("*.py")
                       if any(_is_in(name, ("struct",))
                              for name in _imports_of(path.name)))
    assert importers == ["frames.py"]


#: Names that left a module, by the module they left.
MOVED = {
    "repro.runtime.kernel": {"_WorkerPool", "WORKER_IDLE_S", "_LATER"},
    "repro.runtime.transport": {
        "_LENGTH", "MAX_FRAME_BYTES", "READ_BUFFER_BYTES", "_CODES",
        "_ARITIES", "_RAW", "_encode", "_decode", "_recv_into_exact",
        "_read_frames"},
    "repro.analyze.check": {"ChoicePoint", "ChoiceController",
                            "RandomController"},
}


def test_a_moved_name_is_taken_from_its_new_home():
    """No ``from <old home> import <name>`` and no patch of
    ``"<old home>.<name>"`` in the sources or the tests: a patch left
    on the transport would change a name the codec never reads."""
    stale = []
    tests = Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *tests.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}"
                         for alias in node.names}
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names = {node.value}
            else:
                continue
            stale += [f"{path.name}: {name}" for name in names
                      if name.rpartition(".")[2]
                      in MOVED.get(name.rpartition(".")[0], ())]
    assert stale == []
    # Not even imported: the codec's ceilings are read where they live.
    assert not {"MAX_FRAME_BYTES",
                "READ_BUFFER_BYTES"} & vars(transport).keys()


def test_no_module_reaches_the_kernels_private_names():
    """``kernel._x``, ``cluster.kernel._x`` and the like: what the request
    bodies and the scenarios use of a ``NodeKernel`` is public, and its
    underscore names are its own (the simulator's owners keep the same
    rule, ``tests/test_kernel_layering.py``)."""
    reached = []
    for path in sorted(SRC.rglob("*.py")):
        if path == RUNTIME / "kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                continue
            owner = node.value
            name = (owner.attr if isinstance(owner, ast.Attribute)
                    else getattr(owner, "id", None))
            if name == "kernel":
                reached.append(f"{path.name}: {ast.unparse(node)}")
    assert reached == []


def test_only_the_transport_opens_sockets():
    importers = sorted(
        path.name for path in RUNTIME.glob("*.py")
        if any(name == "socket" or name.startswith("socket.")
               for name in _imported(ast.parse(path.read_text()))))
    assert importers == ["transport.py"]


@pytest.mark.parametrize("first", [
    m.Hello(0, version=m.PROTOCOL_VERSION - 1),
    m.Heartbeat(("127.0.0.1", 1)),
], ids=["old-hello", "no-hello"])
def test_the_coordinator_rejects_a_connection_without_a_current_hello(
        first):
    coordinator = Coordinator(expected_nodes=1)
    try:
        with socket.create_connection(coordinator.address,
                                      timeout=10) as raw:
            raw.sendall(_encode(first))
            assert raw.recv(1) == b""       # closed on us
        assert coordinator.mesh.stats["handshake_rejects"] == 1
        assert coordinator.suspected_nodes() == set()
        assert coordinator._registered == {}
    finally:
        coordinator.close()


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
