"""The benchmark's vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is this catalogue written out
(``python -m benchmarks.amberbench manifest``); the smoke test holds the
two equal.  Host-time units are ``s``/``ms``/``us``/``ns``; simulated
time is ``sim_us`` so the two can never be confused.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: How long one contract run measures (``--seconds``), and its command.
RUN_SECONDS = 12
COMMAND = ["python3", "benchmarks/amberbench/run.py"]
PATHS = ["benchmarks/amberbench"]

WORKLOADS: List[Dict[str, str]] = [
    {"name": "sim_sor",
     "why": "Paper Figure 2: the 122x842 SOR grid on simulated 8 nodes x 4 "
            "CPUs, 20 iterations a round; numpy sweeps ~45% of host time, "
            "kernel+scheduler the rest. Unit: SOR iterations. Seed-free."},
    {"name": "sim_mobility",
     "why": "32x2 simulated nodes, 64 threads chase/move/locate 64 tokens "
            "from a seeded plan, 50 ops each a round; no user compute or "
            "sync objects: engine, kernel mobility, network. Unit: plan ops."},
    {"name": "live_fanout",
     "why": "3 live node processes, closed loop, 1 client, windows of 64 "
            "forks on 8 fixed counters, 30 windows a round: the request "
            "path saturated, nothing moves. Unit: calls. Seed-free."},
    {"name": "live_mobility",
     "why": "3 live node processes, 2 closed-loop clients each move a "
            "counter then call it through one forwarding hop, 300 pairs a "
            "round: move, install, chase, hints. Unit: move+call pairs."},
]

#: name, unit, better, bound.  Every workload reports every one of them.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("work_per_s", "1/s", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("cpu_ms_per_kop", "ms", "lower", 0.20),
]

#: name, unit, better.  ``stage`` metrics time one layer in isolation and
#: are measured in every traced run; the others are read from the traced
#: workload's own run and are 0 where the layer did not run.
PER_LAYER: List[Tuple[str, str, str]] = [
    # sim.engine
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("sim.engine.heap_pop_share", "ratio", "lower"),
    ("sim.engine.heap_push_share", "ratio", "lower"),
    ("sim.engine.loop_share", "ratio", "lower"),
    ("sim.engine.churn_ns_per_event", "ns", "lower"),
    # sim.kernel
    ("sim.kernel.dispatch_share", "ratio", "lower"),
    ("sim.kernel.local_invoke_host_us", "us", "lower"),
    ("sim.kernel.remote_invoke_host_us", "us", "lower"),
    ("sim.kernel.move_host_us", "us", "lower"),
    ("sim.kernel.fork_join_host_us", "us", "lower"),
    ("sim.kernel.local_invocations", "count", "lower"),
    ("sim.kernel.remote_invocations", "count", "lower"),
    ("sim.kernel.thread_migrations", "count", "lower"),
    ("sim.kernel.object_moves", "count", "lower"),
    ("sim.kernel.forwarding_hops", "count", "lower"),
    ("sim.kernel.locates", "count", "lower"),
    ("sim.kernel.replications", "count", "lower"),
    # sim.scheduler, sim.sync
    ("sim.scheduler.pick_ns", "ns", "lower"),
    ("sim.sync.lock_host_us", "us", "lower"),
    ("sim.sync.barrier_host_us", "us", "lower"),
    ("sim.sync.lock_elided_total", "count", "higher"),
    # sim.network (simulated)
    ("sim.network.messages", "count", "lower"),
    ("sim.network.bytes", "count", "lower"),
    ("sim.network.busy_us", "sim_us", "lower"),
    ("sim.network.queueing_us", "sim_us", "lower"),
    # apps, obs, analyze
    ("apps.sor_sweep_us", "us", "lower"),
    ("apps.user_code_share", "ratio", "lower"),
    ("obs.metrics.observe_ns", "ns", "lower"),
    ("obs.hooks_share", "ratio", "lower"),
    ("analyze.sanitizer.slowdown_x", "x", "lower"),
    ("analyze.check.schedules_per_s", "1/s", "higher"),
    # runtime.messages
    ("runtime.messages.encode_us", "us", "lower"),
    ("runtime.messages.decode_us", "us", "lower"),
    ("runtime.messages.frame_bytes", "count", "lower"),
    ("runtime.messages.encode_64k_us", "us", "lower"),
    ("runtime.messages.decode_64k_us", "us", "lower"),
    ("runtime.messages.frame_64k_bytes", "count", "lower"),
    # runtime.transport
    ("runtime.transport.mesh_roundtrip_us", "us", "lower"),
    ("runtime.transport.bulk_mib_per_s", "MiB/s", "higher"),
    ("runtime.transport.sends_per_op", "count", "lower"),
    ("runtime.transport.retries", "count", "lower"),
    ("runtime.transport.reconnects", "count", "lower"),
    # runtime.kernel
    ("runtime.kernel.call_local_us", "us", "lower"),
    ("runtime.kernel.call_onehop_p50_us", "us", "lower"),
    ("runtime.kernel.call_onehop_p99_us", "us", "lower"),
    ("runtime.kernel.call_forwarded_p50_us", "us", "lower"),
    ("runtime.kernel.fork_issue_us", "us", "lower"),
    ("runtime.kernel.request_path_us", "us", "lower"),
    ("runtime.kernel.execute_us", "us", "lower"),
    ("runtime.kernel.reply_path_us", "us", "lower"),
    ("runtime.kernel.overhead_x", "x", "lower"),
    ("runtime.kernel.forwards_per_op", "count", "lower"),
    ("runtime.kernel.hints_per_op", "count", "lower"),
    ("runtime.kernel.moves_per_op", "count", "lower"),
    ("runtime.kernel.resends", "count", "lower"),
    ("runtime.kernel.dedup_replayed", "count", "lower"),
    ("runtime.kernel.circuit_opens", "count", "lower"),
    # runtime.cluster: p50 of the driver's own log-bucket histograms, so
    # the value is a bucket's upper bound, not a continuous time.
    ("runtime.cluster.invoke_us_p50", "us_bucket", "lower"),
    ("runtime.cluster.move_us_p50", "us_bucket", "lower"),
    ("runtime.cluster.locate_us_p50", "us_bucket", "lower"),
    ("runtime.cluster.create_us_p50", "us_bucket", "lower"),
    # runtime.coordinator, runtime.sync
    ("runtime.coordinator.start_s", "s", "lower"),
    ("runtime.coordinator.shutdown_s", "s", "lower"),
    ("runtime.sync.lock_roundtrip_us", "us", "lower"),
    # whole run
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.alloc_blocks_per_op", "count", "lower"),
    ("host.calibration_ops_per_s", "1/s", "higher"),
    # Exact or zero by design, so they cannot carry a relative bound; the
    # issue's end-to-end table lists them, the contract puts them here.
    ("sim_elapsed_us", "sim_us", "lower"),
    ("paper_speedup_err", "ratio", "lower"),
    ("failed_ops_share", "ratio", "lower"),
]

#: Per-layer metrics that two runs of the same code on the same seed
#: must report bit-identically (``repeat`` fails otherwise).
EXACT = frozenset({
    "sim.engine.events",
    "sim.kernel.local_invocations", "sim.kernel.remote_invocations",
    "sim.kernel.thread_migrations", "sim.kernel.object_moves",
    "sim.kernel.forwarding_hops", "sim.kernel.locates",
    "sim.kernel.replications", "sim.sync.lock_elided_total",
    "sim.network.messages", "sim.network.bytes", "sim.network.busy_us",
    "sim.network.queueing_us",
    "runtime.messages.frame_bytes", "runtime.messages.frame_64k_bytes",
    "runtime.kernel.forwards_per_op", "runtime.kernel.hints_per_op",
    "runtime.kernel.moves_per_op", "runtime.kernel.resends",
    "runtime.kernel.dedup_replayed", "runtime.kernel.circuit_opens",
    "runtime.transport.sends_per_op", "runtime.transport.retries",
    "runtime.transport.reconnects",
    "sim_elapsed_us", "paper_speedup_err", "failed_ops_share",
})

END_TO_END_NAMES = [name for name, _, _, _ in END_TO_END]
PER_LAYER_NAMES = [name for name, _, _ in PER_LAYER]
UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
BOUNDS: Dict[str, float] = {name: bound for name, _, _, bound in END_TO_END}
WORKLOAD_NAMES = [workload["name"] for workload in WORKLOADS]


def manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }
