"""Tests for the observability layer (``repro.obs``): metrics registry,
the Chrome/Perfetto exporter, and the profile report."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    _BUCKET_BASE,
    Counter,
    Gauge,
    Held,
    LatencyHistogram,
    MetricsRegistry,
    merge_registries,
)
from repro.obs.perfetto import chrome_trace_events, export_chrome_trace
from repro.obs.profile import (
    ThreadProfile,
    bucket_for_state,
    critical_path,
    profile_result,
    render_profile,
)
from repro.sim import (
    AmberProgram,
    ClusterConfig,
    Compute,
    Fork,
    Invoke,
    Join,
    New,
    Sleep,
    Tracer,
)
from repro.sim.objects import SimObject
from repro.sim.stats import ClusterStats, NodeStats
from repro.sim.sync import Lock
from repro.sim.trace import TraceEvent


class TestCounterGauge:
    def test_counter_increments_and_merges(self):
        a, b = Counter("x"), Counter("x")
        a.inc()
        a.inc(4)
        b.inc(2)
        a.merge(b)
        assert a.value == 7

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_tracks_last_max_mean(self):
        gauge = Gauge("queue")
        for value in (2, 8, 4):
            gauge.set(value)
        assert gauge.value == 4
        assert gauge.max == 8
        assert gauge.mean == pytest.approx(14 / 3)


class TestLatencyHistogram:
    def test_exact_count_sum_min_max(self):
        histogram = LatencyHistogram("lat")
        for value in (1.0, 10.0, 100.0, 1000.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(1111.0)
        assert histogram.min == 1.0
        assert histogram.max == 1000.0

    def test_percentiles_within_bucket_error(self):
        histogram = LatencyHistogram("lat")
        for value in range(1, 101):          # 1..100
            histogram.observe(float(value))
        # Buckets grow by 10**0.25 (~1.78x): estimates are conservative
        # but within one bucket of the true quantile.
        assert 50 <= histogram.percentile(50) <= 50 * 10 ** 0.25
        assert 90 <= histogram.percentile(90) <= 90 * 10 ** 0.25
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(0) >= 1.0

    def test_zero_values_get_dedicated_bucket(self):
        histogram = LatencyHistogram("lat")
        for _ in range(9):
            histogram.observe(0.0)
        histogram.observe(1000.0)
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(99) == pytest.approx(1000.0)

    def test_single_value_percentiles_are_exact(self):
        histogram = LatencyHistogram("lat")
        histogram.observe(123.0)
        for p in (1, 50, 99):
            assert histogram.percentile(p) == 123.0

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram("lat").percentile(99) == 0.0

    def test_rejects_negative_and_bad_percentile(self):
        histogram = LatencyHistogram("lat")
        with pytest.raises(ValueError):
            histogram.observe(-1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_merge_is_bucketwise(self):
        a, b = LatencyHistogram("lat"), LatencyHistogram("lat")
        for value in (1.0, 2.0, 3.0):
            a.observe(value)
        for value in (1000.0, 2000.0):
            b.observe(value)
        a.merge(b)
        assert a.count == 5
        assert a.min == 1.0
        assert a.max == 2000.0
        assert a.percentile(99) == 2000.0

    def test_summary_has_quantile_keys(self):
        histogram = LatencyHistogram("lat")
        histogram.observe(5.0)
        summary = histogram.summary()
        for key in ("count", "mean", "min", "p50", "p90", "p99", "max"):
            assert key in summary


def _reference_histogram(values):
    """What ``observe`` must leave behind, built the way the histogram
    was first written: ``min``/``max`` builtins and the two-argument
    ``math.log`` per value."""
    count, total, low, high, buckets = 0, 0.0, math.inf, 0.0, {}
    for value in values:
        value = float(value)
        count += 1
        total += value
        low = min(low, value)
        high = max(high, value)
        index = (LatencyHistogram._ZERO_BUCKET if value <= 0
                 else math.ceil(math.log(value, _BUCKET_BASE)))
        buckets[index] = buckets.get(index, 0) + 1
    return count, total, low, high, buckets


_OBSERVABLE = st.one_of(
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
    st.integers(min_value=0, max_value=10 ** 12),
    st.just(0.0),
    # Exact bucket boundaries, where a last-bit difference in the
    # logarithm would move a value to the neighbouring bucket.
    st.integers(min_value=-40, max_value=60).map(
        lambda k: _BUCKET_BASE ** k),
    st.integers(min_value=-12, max_value=15).map(lambda k: 10.0 ** k),
)


class TestHistogramObserveEquivalence:
    @given(st.lists(_OBSERVABLE, max_size=60))
    @example([_BUCKET_BASE ** k for k in range(-40, 61)])
    @example([10.0 ** k for k in range(-12, 16)])
    @example([0.0, 0, 1, 1.0, 5e-324, 1e15])
    @settings(max_examples=300, deadline=None)
    def test_observe_matches_reference(self, values):
        histogram = LatencyHistogram("lat")
        for value in values:
            histogram.observe(value)
        assert (histogram.count, histogram.sum, histogram.min,
                histogram.max, histogram.buckets) \
            == _reference_histogram(values)

    @given(st.floats(max_value=0.0, exclude_max=True, allow_nan=False))
    def test_negative_values_still_raise(self, value):
        histogram = LatencyHistogram("lat")
        with pytest.raises(ValueError, match="negative value"):
            histogram.observe(value)
        assert histogram.count == 0 and not histogram.buckets

    def test_gauge_set_matches_builtin_max(self):
        gauge = Gauge("g")
        seen = []
        for value in (3, 1.5, 7, 7, 2):
            gauge.set(value)
            seen.append(float(value))
            assert (gauge.value, gauge.max, gauge.samples, gauge.mean) \
                == (seen[-1], max(seen), len(seen),
                    sum(seen) / len(seen))


class TestHistogramQuantileAccuracy:
    """p50/p90/p99 against exact quantiles of known distributions: the
    log-scale estimate must land within one bucket (a factor of
    10**0.25) of the true order statistic, never below it except where
    clamping to the tracked max applies."""

    PERCENTILES = (50, 90, 99)

    @staticmethod
    def _exact(values, p):
        """The order statistic the histogram targets: the smallest
        element whose rank covers ``ceil(count * p / 100)``."""
        ordered = sorted(values)
        rank = max(1, min(math.ceil(len(ordered) * p / 100.0),
                          len(ordered)))
        return ordered[rank - 1]

    def _assert_within_one_bucket(self, values):
        histogram = LatencyHistogram("lat")
        for value in values:
            histogram.observe(value)
        for p in self.PERCENTILES:
            exact = self._exact(values, p)
            got = histogram.percentile(p)
            # Conservative: at or above the exact quantile (up to the
            # tracked max), and no more than one bucket width over.
            assert got >= min(exact, histogram.max) * (1 - 1e-12), \
                (p, exact, got)
            assert got <= max(exact * _BUCKET_BASE, histogram.min), \
                (p, exact, got)

    def test_uniform_distribution(self):
        self._assert_within_one_bucket(
            [float(v) for v in range(1, 1001)])

    def test_log_spaced_distribution(self):
        # Six decades: exercises many distinct buckets.
        self._assert_within_one_bucket(
            [10 ** (i / 100.0) for i in range(0, 600)])

    def test_heavy_tail_distribution(self):
        # 99% fast ops + 1% thousand-fold stragglers: p99 must not be
        # dragged down by the dense head.
        values = [1.0 + (i % 7) * 0.1 for i in range(990)]
        values += [1500.0 + i for i in range(10)]
        self._assert_within_one_bucket(values)

    def test_duplicates_only(self):
        self._assert_within_one_bucket([42.0] * 500)

    def test_subunit_values(self):
        # Below 1.0 the log indices go negative; accuracy must hold.
        self._assert_within_one_bucket(
            [0.001 * v for v in range(1, 400)])

    def test_empty_histogram_percentiles_are_zero(self):
        histogram = LatencyHistogram("lat")
        for p in self.PERCENTILES:
            assert histogram.percentile(p) == 0.0

    def test_single_sample_is_exact_at_every_percentile(self):
        histogram = LatencyHistogram("lat")
        histogram.observe(7.25)
        for p in (0, 1, 50, 90, 99, 100):
            assert histogram.percentile(p) == 7.25


class TestMetricsRegistry:
    def test_shorthands_and_as_dict(self):
        registry = MetricsRegistry()
        registry.inc("moves", 3)
        registry.sample("queue", 7.0)
        registry.observe("invoke_us", 250.0)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["moves"] == 3
        assert snapshot["gauges"]["queue"]["max"] == 7.0
        for quantile in ("p50", "p90", "p99"):
            assert quantile in snapshot["histograms"]["invoke_us"]

    def test_merge_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat", 10.0)
        b.observe("lat", 1000.0)
        b.inc("n")
        merged = merge_registries([a, b])
        assert merged.histograms["lat"].count == 2
        assert merged.counters["n"].value == 1
        # Inputs unchanged.
        assert a.histograms["lat"].count == 1

    def test_held_instruments_bind_on_first_use(self):
        registry = MetricsRegistry()
        hists = Held(registry.histogram)
        gauges = Held(registry.gauge)
        empty = registry.as_dict()
        assert empty == {"counters": {}, "gauges": {}, "histograms": {}}
        hists["lat"].observe(4.0)
        assert hists["lat"] is registry.histograms["lat"]
        assert registry.as_dict()["gauges"] == {}      # never sampled
        gauges["depth"].set(2)
        assert registry.gauges["depth"].max == 2.0

    def test_merge_of_held_registries_is_unchanged(self):
        """An emitter that holds its instruments and one that goes
        through the shorthands leave registries that merge alike."""
        def fill(registry, held):
            for value in (0.0, 3.0, 250.0):
                if held:
                    Held(registry.histogram)["lat"].observe(value)
                    Held(registry.gauge)["depth"].set(value)
                else:
                    registry.observe("lat", value)
                    registry.sample("depth", value)
            return registry

        held = merge_registries(
            [fill(MetricsRegistry(), True), fill(MetricsRegistry(), True)])
        plain = merge_registries(
            [fill(MetricsRegistry(), False), fill(MetricsRegistry(), False)])
        assert held.as_dict() == plain.as_dict()
        assert held.histograms["lat"].buckets \
            == plain.histograms["lat"].buckets

    def test_render_mentions_all_instruments(self):
        registry = MetricsRegistry()
        registry.observe("lat", 10.0)
        registry.inc("n", 2)
        registry.sample("depth", 3)
        text = registry.render(title="T")
        for token in ("T", "lat", "n", "depth", "p99"):
            assert token in text
        assert MetricsRegistry().render() == "(no metrics)"


def _sor_trace(fast_rows=16):
    """A small traced SOR run (2 nodes, guaranteed migrations)."""
    from repro.apps.sor import SorProblem, run_amber_sor
    tracer = Tracer()
    result = run_amber_sor(SorProblem(rows=fast_rows, cols=48,
                                      iterations=2),
                           nodes=2, cpus_per_node=2, sections=2,
                           tracer=tracer)
    return tracer, result


class TestPerfettoExporter:
    def test_export_writes_loadable_json(self, tmp_path):
        tracer, result = _sor_trace()
        path = tmp_path / "trace.json"
        count = export_chrome_trace(tracer.events, str(path),
                                    nodes=result.cluster.config.nodes)
        document = json.loads(path.read_text())
        assert set(document) >= {"traceEvents", "displayTimeUnit"}
        assert len(document["traceEvents"]) == count > 0
        for entry in document["traceEvents"]:
            assert {"name", "ph", "pid"} <= set(entry)

    def test_schema_timestamps_and_track_mapping(self):
        tracer, result = _sor_trace()
        entries = chrome_trace_events(tracer.events,
                                      nodes=result.cluster.config.nodes)
        nodes = result.cluster.config.nodes
        instant_ts = []
        for entry in entries:
            if entry["ph"] == "M":
                continue
            assert 0 <= entry["pid"] < nodes          # pid == node id
            assert entry["ts"] >= 0
            if entry["ph"] == "X":
                assert entry["dur"] > 0
            if entry["ph"] == "i":
                instant_ts.append(entry["ts"])
        # Events are sorted before export: instants are monotonic.
        assert instant_ts == sorted(instant_ts)

    def test_metadata_names_every_node_and_thread(self):
        tracer, result = _sor_trace()
        entries = chrome_trace_events(tracer.events,
                                      nodes=result.cluster.config.nodes)
        metadata = [e for e in entries if e["ph"] == "M"]
        process_names = {e["pid"]: e["args"]["name"] for e in metadata
                         if e["name"] == "process_name"}
        assert process_names == {0: "node 0", 1: "node 1"}
        thread_names = {e["args"]["name"] for e in metadata
                        if e["name"] == "thread_name"}
        assert "main" in thread_names
        assert "kernel" in thread_names

    def test_migrations_become_flow_pairs(self):
        tracer, _ = _sor_trace()
        entries = chrome_trace_events(tracer.events)
        starts = [e for e in entries if e["ph"] == "s"]
        finishes = [e for e in entries if e["ph"] == "f"]
        assert len(starts) > 0
        # Every finish closes a started flow id; ids are unique.
        start_ids = [e["id"] for e in starts]
        assert len(set(start_ids)) == len(start_ids)
        assert {e["id"] for e in finishes} <= set(start_ids)

    def test_compute_slices_are_backdated(self):
        events = [TraceEvent(100.0, "compute", 0, "t1", dur_us=40.0)]
        entries = [e for e in chrome_trace_events(events)
                   if e["ph"] == "X"]
        assert entries[0]["ts"] == pytest.approx(60.0)
        assert entries[0]["dur"] == pytest.approx(40.0)


def _hand_built_profiles():
    """Two threads with known buckets: t1 is the busier one."""
    return [
        ThreadProfile("t2", {"compute": 20.0, "blocked": 100.0}),
        ThreadProfile("t1", {"compute": 90.0, "migration": 30.0,
                             "queue": 20.0, "lock-wait": 20.0},
                      migrations=1),
    ]


class TestAnalyzeTrace:
    def test_critical_path_is_busiest_thread(self):
        profiles = _hand_built_profiles()
        assert critical_path(profiles).name == "t1"
        assert critical_path([]) is None

    def test_render_reports_buckets_and_critical_path(self):
        text = render_profile(_hand_built_profiles(), elapsed_us=160.0)
        for token in ("compute", "migration", "queue", "lock-wait",
                      "critical path: t1", "TOTAL"):
            assert token in text

    def test_bucket_for_state_classification(self):
        assert bucket_for_state("running") == "compute"
        assert bucket_for_state("ready") == "queue"
        assert bucket_for_state("transit") == "migration"
        assert bucket_for_state("blocked", "lock") == "lock-wait"
        assert bucket_for_state("blocked", "barrier") == "lock-wait"
        assert bucket_for_state("blocked", "join") == "blocked"

    def test_thread_profile_fractions(self):
        profile = ThreadProfile("t", {"compute": 75.0, "queue": 25.0})
        assert profile.total_us == 100.0
        assert profile.fraction("compute") == pytest.approx(0.75)
        assert ThreadProfile("idle").fraction("compute") == 0.0


class _LockUser(SimObject):
    def __init__(self, lock):
        self.lock = lock

    def work(self, ctx, us):
        yield Invoke(self.lock, "acquire")
        yield Compute(us)
        yield Invoke(self.lock, "release")


class TestProfileResult:
    def test_exact_accounting_covers_the_run(self):
        def main(ctx):
            yield Compute(400.0)
            yield Sleep(300.0)

        result = AmberProgram(ClusterConfig(nodes=1)).run(main)
        profiles = {p.name: p for p in profile_result(result)}
        main_profile = profiles["main"]
        assert main_profile.buckets["compute"] >= 400.0
        assert main_profile.buckets["blocked"] >= 300.0
        # All time is attributed somewhere within the run's span.
        assert main_profile.total_us <= result.elapsed_us + 1e-6

    def test_lock_contention_shows_as_lock_wait(self):
        def main(ctx):
            lock = yield New(Lock)
            user = yield New(_LockUser, lock)
            first = yield Fork(user, "work", 2000.0)
            second = yield Fork(user, "work", 2000.0)
            yield Join(first)
            yield Join(second)

        result = AmberProgram(
            ClusterConfig(nodes=1, cpus_per_node=4)).run(main)
        profiles = profile_result(result)
        assert sum(p.buckets.get("lock-wait", 0.0)
                   for p in profiles) > 0.0
        assert result.metrics.histograms["lock_wait_us"].count == 2
        assert result.metrics.histograms["lock_hold_us"].count == 2


class TestClusterStatsExtensions:
    def test_utilization_zero_elapsed(self):
        stats = NodeStats(node=0, cpus=4, cpu_busy_us=100.0)
        assert stats.utilization(0.0) == 0.0
        assert stats.utilization(-5.0) == 0.0

    def test_utilization_zero_cpus(self):
        stats = NodeStats(node=0, cpus=0, cpu_busy_us=100.0)
        assert stats.utilization(1000.0) == 0.0

    def test_utilization_normal(self):
        stats = NodeStats(node=0, cpus=2, cpu_busy_us=1000.0)
        assert stats.utilization(1000.0) == pytest.approx(0.5)

    def test_cluster_mean_utilization_edge_cases(self):
        assert ClusterStats().mean_utilization(1000.0) == 0.0
        stats = ClusterStats(nodes=[NodeStats(0, 2, cpu_busy_us=500.0)])
        assert stats.mean_utilization(0.0) == 0.0

    def test_as_dict_reports_histogram_quantiles(self):
        stats = ClusterStats(nodes=[NodeStats(0, 2)],
                             metrics=MetricsRegistry())
        stats.metrics.observe("migration_us", 500.0)
        out = stats.as_dict()
        assert out["migration_us_count"] == 1
        for key in ("migration_us_p50", "migration_us_p90",
                    "migration_us_p99", "migration_us_max"):
            assert key in out

    def test_as_dict_without_metrics_unchanged(self):
        out = ClusterStats(nodes=[NodeStats(0, 2)]).as_dict()
        assert "local_invocations" in out
        assert not any(key.endswith("_p99") for key in out)


class TestRunMetrics:
    def test_run_without_messages_has_no_net_instruments(self):
        """The network binds its instruments on first use: a run that
        sends nothing reports nothing about the wire."""
        def main(ctx):
            user = yield New(_LockUser, (yield New(Lock)))
            yield Invoke(user, "work", 10.0)

        result = AmberProgram(ClusterConfig(nodes=2, cpus_per_node=2)
                              ).run(main)
        assert result.cluster.network.stats.messages == 0
        snapshot = result.cluster.metrics.as_dict()
        names = [name for group in snapshot.values() for name in group]
        assert names and not [n for n in names if n.startswith("net_")]
        for name in ("migration_us", "forward_chain_hops",
                     "invoke_remote_us"):
            assert name not in snapshot["histograms"]

    def test_sor_run_populates_operation_histograms(self):
        _, result = _sor_trace()
        histograms = result.cluster.metrics.histograms
        for name in ("invoke_local_us", "invoke_remote_us",
                     "migration_us", "net_queue_us"):
            assert histograms[name].count > 0, name
        assert math.isfinite(histograms["invoke_remote_us"].percentile(99))

    def test_remote_invoke_slower_than_local(self):
        _, result = _sor_trace()
        histograms = result.cluster.metrics.histograms
        assert (histograms["invoke_remote_us"].percentile(50)
                > histograms["invoke_local_us"].percentile(50))
