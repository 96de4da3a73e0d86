"""Application workloads built on the Amber reproduction.

``repro.apps.sor`` is the paper's evaluation application: Red/Black
Successive Over-Relaxation solving Laplace's equation on a plate (section
6) — a sequential baseline, the Amber version with the thread structure of
Figure 1, and an Ivy-style DSM port used by the section 4 ablations.

One table of bundled-app runs (:data:`WORKLOADS`) sits here, below the
CLI: ``repro run`` looks an app's name up in it, whatever it attaches
to the run (tracer, sanitizer, hot-loop profiler), so "the fast SOR
run" is one problem size everywhere; :func:`fingerprint` is what two
runs of one of them must agree on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict


def _run_sor(fast: bool, tracer: Any = None) -> Any:
    from repro.apps.sor import SorProblem, run_amber_sor
    if fast:
        problem = SorProblem(rows=40, cols=280, iterations=3)
        return run_amber_sor(problem, nodes=2, cpus_per_node=2,
                             tracer=tracer)
    problem = SorProblem(iterations=20)
    return run_amber_sor(problem, nodes=4, cpus_per_node=4, tracer=tracer)


def _run_queens(fast: bool, tracer: Any = None) -> Any:
    from repro.apps.queens import run_amber_queens
    return run_amber_queens(n=8 if fast else 10, nodes=2,
                            cpus_per_node=2 if fast else 4, tracer=tracer)


def _run_matmul(fast: bool, tracer: Any = None) -> Any:
    from repro.apps.matmul import run_matmul
    size = 48 if fast else 96
    return run_matmul(m=size, k=size, n=size, nodes=4, cpus_per_node=2,
                      tracer=tracer)


#: name -> ``run(fast, tracer=None)``, returning the program's result.
#: Each imports its app when it runs.
WORKLOADS: Dict[str, Callable[..., Any]] = {
    "sor": _run_sor,
    "queens": _run_queens,
    "matmul": _run_matmul,
}


def fingerprint(result: Any) -> str:
    """``events:elapsed`` of one simulated run: what two runs of a
    deterministic program must agree on."""
    return f"{result.cluster.sim.events_run}:{result.elapsed_us}"
