"""The simulator's in-process profiler (see ``docs/PERF.md``).

:mod:`repro.perf.hotprof` attributes the host time of the simulator's
hot loop to phases, per-subsystem hook overhead included; ``repro run
--hotloop`` prints it and AmberBench's traced pass reads it.  Whether a
change is *faster* is measured in one place, ``python -m
benchmarks.amberbench``.

:mod:`repro.sim.program` imports ``hotprof`` on the simulator's import
path, so this package imports nothing else.
"""

from repro.perf.hotprof import HotLoopProfiler, profile_runs, render_hotloop

__all__ = ["HotLoopProfiler", "profile_runs", "render_hotloop"]
