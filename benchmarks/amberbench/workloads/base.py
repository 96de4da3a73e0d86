"""What the runner needs from a workload, and helpers the workloads share."""

from __future__ import annotations

from typing import Any, Dict

from benchmarks.amberbench.spans import OFF


class Workload:
    """One set of inputs the benchmark runs.

    ``setup`` builds the inputs from the seed, starts whatever the
    workload needs and warms it up; ``round`` is one measured repetition
    and returns the work it completed; ``finish`` runs the final oracle
    checks; ``close`` releases processes and runs on every exit path.
    Oracles call :meth:`check`; an operation that raises or returns a
    wrong value counts in ``failed``.
    """

    name = ""
    work_unit = ""
    #: Whether host speed is to be sampled with both CPUs loaded (see
    #: calibration.py); the simulator is one thread.
    keeps_all_cpus_busy = False

    def __init__(self, seed: int, size: str, flip_oracle: bool = False):
        self.seed = seed
        self.size = size
        #: Selftest only: corrupt one expected value, so a run that
        #: still reports success has a toothless oracle.
        self.flip_oracle = flip_oracle
        #: The runner swaps this between a Recorder and OFF per round.
        self.rec: Any = OFF
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> int:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Nothing to release by default."""

    def alloc_probe(self) -> int:
        """A short repetition run under ``tracemalloc``; returns its ops.
        The result must stay referenced so retained blocks are counted."""
        raise NotImplementedError

    def layer_metrics(self, stages: Dict[str, float],
                      untraced_round_s: float) -> Dict[str, float]:
        """Per-layer metrics read from this workload's own traced run."""
        raise NotImplementedError


def sim_layer_metrics(cluster: Any,
                      profile: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of one simulated run, from its public stats
    objects and the hot-loop profiler's phases."""
    stats = cluster.stats
    network = cluster.network.stats
    counters = cluster.metrics.as_dict()["counters"]
    out: Dict[str, float] = {
        "sim.engine.events": cluster.sim.events_run,
        "sim.kernel.local_invocations": stats.total_local_invocations,
        "sim.kernel.remote_invocations": stats.total_remote_invocations,
        "sim.kernel.thread_migrations": stats.thread_migrations,
        "sim.kernel.object_moves": stats.object_moves,
        "sim.kernel.forwarding_hops": stats.forwarding_hops_followed,
        "sim.kernel.locates": stats.locates,
        "sim.kernel.replications": stats.replications,
        "sim.sync.lock_elided_total": counters.get("lock_elided_total", 0),
        "sim.network.messages": network.messages,
        "sim.network.bytes": network.bytes,
        "sim.network.busy_us": network.busy_us,
        "sim.network.queueing_us": network.queueing_us,
    }
    total_s = profile["total_s"]
    phases = profile["phases_s"]
    out["sim.engine.events_per_s"] = profile["events"] / total_s
    out["sim.engine.heap_pop_share"] = phases["heap-pop"] / total_s
    out["sim.engine.heap_push_share"] = phases["heap-push"] / total_s
    out["sim.engine.loop_share"] = phases["loop"] / total_s
    out["sim.kernel.dispatch_share"] = phases["dispatch"] / total_s
    out["obs.hooks_share"] = sum(
        seconds for name, seconds in phases.items()
        if name.startswith("hook:")) / total_s
    return out
