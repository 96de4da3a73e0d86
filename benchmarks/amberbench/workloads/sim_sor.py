"""``sim_sor``: the paper's Figure 2 grid on its largest machine.

``run_amber_sor`` of the 122 x 842 grid on 8 nodes x 4 CPUs.  numpy
sweeps (``repro.apps``) are about 45 % of host time, kernel + scheduler
the rest, so an app-level optimisation shows here and not on
``sim_mobility``.  The problem is the paper's fixed one: the seed changes
nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.apps.sor import (
    PAPER_COLS,
    PAPER_ROWS,
    SorProblem,
    run_amber_sor,
    run_sequential_sor,
)
from repro.bench.paper_data import PAPER_FIGURE2_SPEEDUPS
from repro.perf.hotprof import profile_runs
from repro.sim.trace import Tracer

from benchmarks.amberbench.workloads.base import Workload, sim_layer_metrics

NODES = 8
CPUS_PER_NODE = 4
SIZES = {
    # rows, cols, iterations of the paper-size run, of one round, of warm-up
    "full": (PAPER_ROWS, PAPER_COLS, 150, 20, 10),
    "smoke": (40, 280, 6, 3, 2),
}


class SimSor(Workload):
    name = "sim_sor"
    work_unit = "SOR iterations"

    def setup(self) -> None:
        rows, cols, full, per_round, warm = SIZES[self.size]

        def problem(iterations: int) -> SorProblem:
            return SorProblem(rows=rows, cols=cols, iterations=iterations)

        #: Figure 2's run: 150 iterations, 131,736 events, ~2 s of host
        #: time.  Run once per traced pass, for the exact counts.
        self.paper_problem = problem(full)
        #: What a round times: the same grid on the same machine for
        #: fewer iterations, so that host speed can be sampled every
        #: ~0.3 s instead of every 2 s (see runner.host_speed).
        self.round_problem = problem(per_round)
        self._warm_problem = problem(warm)
        self._fingerprint: Optional[tuple] = None
        self._last: Any = None
        with self.rec.span("sim_sor.warmup"):
            self._run(self._warm_problem)

    def _run(self, problem: SorProblem, **kwargs: Any) -> Any:
        return run_amber_sor(problem, nodes=NODES,
                             cpus_per_node=CPUS_PER_NODE, **kwargs)

    def round(self) -> int:
        """One whole run; work = SOR iterations completed."""
        with self.rec.span("apps.run_amber_sor"):
            if self.rec.enabled:
                with profile_runs():
                    result = self._run(self.round_problem, tracer=Tracer())
            else:
                result = self._run(self.round_problem)
        self._last = result
        fingerprint = (result.cluster.sim.events_run, result.elapsed_us)
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        # A deterministic simulator repeats (events, simulated time)
        # exactly; a run that does not is a failed operation.
        self.check(fingerprint == self._fingerprint)
        self.check(result.iterations_run == self.round_problem.iterations)
        self.attempted += result.iterations_run
        return result.iterations_run

    def finish(self) -> None:
        with self.rec.span("sim_sor.oracle"):
            checked = self._run(self.round_problem, collect_grid=True)
            expected = run_sequential_sor(self.round_problem).grid
            if self.flip_oracle:
                expected = expected.copy()
                expected[1, 1] += 1.0
            self.check(np.array_equal(checked.grid, expected))
            self.check(checked.elapsed_us == self._last.elapsed_us)

    def alloc_probe(self) -> int:
        self._probe = self._run(self._warm_problem)
        return self._warm_problem.iterations

    def layer_metrics(self, stages: Dict[str, float],
                      untraced_round_s: float) -> Dict[str, float]:
        with self.rec.span("apps.run_amber_sor.paper_size"):
            with profile_runs() as profiler:
                paper = self._run(self.paper_problem, tracer=Tracer())
        self.check(paper.iterations_run == self.paper_problem.iterations)
        out = sim_layer_metrics(paper.cluster, profiler.as_dict())
        # User code = the numpy sweeps: per iteration and colour each
        # section's coordinator sweeps its two boundary columns and each
        # of its workers one row band.
        last = self._last
        sweeps = last.iterations_run * 2 * last.sections
        user_s = (sweeps * last.workers_per_section
                  * stages["apps.sor_sweep_us"]
                  + sweeps * 2 * stages["apps.sor_edge_sweep_us"]) / 1e6
        out["apps.user_code_share"] = user_s / untraced_round_s
        out["sim_elapsed_us"] = paper.elapsed_us
        figure2 = PAPER_FIGURE2_SPEEDUPS[f"{NODES}Nx{CPUS_PER_NODE}P"]
        out["paper_speedup_err"] = abs(paper.speedup - figure2) / figure2
        return out
