"""Structure of the simulator kernel (DESIGN.md, "Simulator kernel
structure"): crash recovery is attached and imported only when it is
configured, no class under ``src/repro/sim`` grows back into a monolith
(``tests/test_module_size.py`` holds the modules), no owner of a
mechanism reaches another's underscore names, and the public import
points stay where their users expect.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SIM = SRC / "repro" / "sim"
RECOVERY = SRC / "repro" / "recovery"

MAX_CLASS_METHODS = 60

#: How the modules under sim/ and recovery/ name the owners of the
#: kernel's mechanisms: the core, its three request owners, the chase's
#: crash path, recovery.
OWNERS = {"kernel", "_kernel", "thread_manager", "object_manager",
          "mobility", "repair", "recovery", "rec"}

_PROBE = """
import json, sys
from repro.recovery import RecoveryConfig
from repro.sim import AmberProgram, ClusterConfig, Invoke, New, SimObject

class Cell(SimObject):
    def get(self, ctx):
        return 7

def main(ctx):
    cell = yield New(Cell, on_node=1)
    return (yield Invoke(cell, "get"))

recovery = RecoveryConfig() if sys.argv[1] == "on" else None
result = AmberProgram(ClusterConfig(nodes=2, cpus_per_node=1),
                      recovery=recovery).run(main)
assert result.value == 7
print(json.dumps({
    "recovery_modules": sorted(name for name in sys.modules
                               if name.startswith("repro.recovery.")),
    "attached": type(result.cluster.kernel.recovery).__name__,
    "heartbeats": result.metrics.counter("heartbeats_sent").value,
}))
"""


def run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that sees only ``src/``;
    returns its stdout (``sys.modules`` there is not polluted by what
    the test session imported)."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return done.stdout


def _probe(recovery: str) -> dict:
    return json.loads(run_python(_PROBE, recovery))


def test_recovery_free_run_neither_imports_nor_attaches_recovery():
    seen = _probe("off")
    assert seen["recovery_modules"] == ["repro.recovery.config"]
    assert seen["attached"] == "NoneType"
    assert seen["heartbeats"] == 0


def test_configured_recovery_is_attached_and_ticks():
    seen = _probe("on")
    assert "repro.recovery.manager" in seen["recovery_modules"]
    assert seen["attached"] == "RecoveryManager"
    assert seen["heartbeats"] > 0


def test_recovery_package_import_stays_config_only():
    """The live runtime imports ``repro.recovery.config`` for its peer
    timeouts; importing the package must not pull in the simulator."""
    code = ("import sys, repro.recovery; print(sorted(m for m in "
            "sys.modules if m.startswith(('repro.recovery.', "
            "'repro.sim'))))")
    assert run_python(code).strip() == "['repro.recovery.config']"


def test_no_monolith_under_sim():
    for path in sorted(SIM.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = sum(isinstance(item, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))
                              for item in node.body)
                assert methods <= MAX_CLASS_METHODS, \
                    f"{path.name}: class {node.name} has {methods} methods"


def test_kernel_core_does_not_import_recovery_at_module_level():
    """Nowhere under sim/: only the kernel imports it, and only when a
    run configures it."""
    for path in sorted(SIM.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.startswith("repro.recovery")
                           for name in names), (path.name, ast.dump(node))


def test_no_owner_reaches_another_owners_private_names():
    """``kernel._x``, ``self.kernel._x``, ``kernel.mobility._x``,
    ``rec._x`` and the like: each owner's underscore names are its own."""
    reached = []
    for path in sorted([*SIM.glob("*.py"), *RECOVERY.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                continue
            owner = node.value
            name = (owner.attr if isinstance(owner, ast.Attribute)
                    else getattr(owner, "id", None))
            if name in OWNERS:
                reached.append(f"{path.name}: {ast.unparse(node)}")
    assert not reached, reached


def test_detector_uses_only_the_kernels_public_interface():
    source = (SRC / "repro" / "recovery" / "detector.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            owner = ast.unparse(node.value)
            assert owner == "self", f"{owner}.{node.attr}"


def test_public_import_points():
    import repro.sim
    import repro.sim.kernel
    import repro.sim.sync  # imports InvocationContext from sim.kernel

    assert repro.sim.AmberKernel is repro.sim.kernel.AmberKernel
    assert repro.sim.InvocationContext \
        is repro.sim.kernel.InvocationContext
