"""Observability for simulated Amber runs.

Three layers, usable independently:

* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  log-scale latency histograms (p50/p90/p99/max) in a
  :class:`MetricsRegistry`.  Every :class:`~repro.sim.cluster.SimCluster`
  owns one; the kernel feeds it operation latencies (local/remote
  invocation, migration, move, replication, locate), forwarding-chain
  lengths, lock wait/hold times, and network queueing.
* **Tracing** (:mod:`repro.obs.perfetto`) — an exporter from the
  bounded event ring of :class:`repro.sim.trace.Tracer` to
  Chrome/Perfetto trace-event JSON: per-node tracks, per-thread slices,
  migration flow arrows.
  ``python -m repro run sor --fast --trace trace.json``.
* **Profiling** (:mod:`repro.obs.profile`) — per-thread wall-time
  attribution into compute / migration / queue / lock-wait / blocked
  buckets, read off the kernel's per-thread state clocks, with a
  critical-path summary.
  ``python -m repro run sor --fast``.

This package deliberately imports nothing from :mod:`repro.sim` so the
simulator can depend on it without cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Held,
    LatencyHistogram,
    MetricsRegistry,
    merge_registries,
)
from repro.obs.perfetto import chrome_trace_events, export_chrome_trace
from repro.obs.profile import (
    BUCKETS,
    LOCK_WAIT_REASONS,
    ThreadProfile,
    bucket_for_state,
    critical_path,
    profile_result,
    render_profile,
)

__all__ = [
    "BUCKETS",
    "Counter",
    "Gauge",
    "Held",
    "LOCK_WAIT_REASONS",
    "LatencyHistogram",
    "MetricsRegistry",
    "ThreadProfile",
    "bucket_for_state",
    "chrome_trace_events",
    "critical_path",
    "export_chrome_trace",
    "merge_registries",
    "profile_result",
    "render_profile",
]
