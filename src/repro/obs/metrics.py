"""Metrics primitives: counters, gauges, and log-scale latency histograms.

The simulation's flat counters (:class:`repro.sim.stats.ClusterStats`) say
*how many* remote invocations a run made; they cannot say whether the p99
invocation took 3 ms or 300 ms.  This module provides the distributional
half of the story:

* :class:`Counter` — a monotonically increasing count.
* :class:`Gauge` — a sampled level (network queue depth, ready-queue
  length); remembers the last value, the max, and the mean of samples.
* :class:`LatencyHistogram` — log-scale buckets with exact ``count``,
  ``sum``, ``min``, ``max`` and quantile estimates (p50/p90/p99).  Buckets
  grow geometrically, so a single histogram spans nanoseconds to minutes
  in ~100 buckets with bounded (~12%) relative quantile error.
* :class:`MetricsRegistry` — names -> instruments, with ``as_dict()`` for
  machine-readable export and ``merge()`` for multi-run aggregation.

Everything here is plain arithmetic on dicts: safe to leave enabled on
every simulated run.  One ``LatencyHistogram.observe`` costs about half
a microsecond (AmberBench's ``obs.metrics.observe_ns``) and a
mobility-heavy run makes one per simulated event, hence the rule: an
emitter on the per-event path holds its instrument, bound on first use
(:class:`Held`), instead of naming it to the registry every time.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

#: Geometric bucket growth factor: 4 buckets per decade (~12% resolution).
_BUCKET_BASE = 10 ** 0.25
#: ``math.log(v, _BUCKET_BASE)`` is computed as ``log(v) / log(base)``;
#: dividing by the denominator kept here gives the bit-identical quotient
#: without re-deriving it on every observation.
_LOG_BASE = math.log(_BUCKET_BASE)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {n}")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A sampled level.  ``set`` records an observation; the gauge keeps
    the latest value plus max/mean across all samples."""

    __slots__ = ("name", "value", "max", "samples", "_sum")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max = 0.0
        self.samples = 0
        self._sum = 0.0

    def set(self, value: float) -> None:
        value = self.value = float(value)
        if value > self.max:
            self.max = value
        self.samples += 1
        self._sum += value

    @property
    def mean(self) -> float:
        return self._sum / self.samples if self.samples else 0.0

    def merge(self, other: "Gauge") -> None:
        self.value = other.value
        self.max = max(self.max, other.max)
        self.samples += other.samples
        self._sum += other._sum


class LatencyHistogram:
    """Log-scale histogram of non-negative values (latencies, lengths).

    Values land in geometric buckets; quantiles are estimated as the
    upper bound of the bucket containing the requested rank, so reported
    percentiles are conservative (never under the true value by more than
    one bucket's width).  Zero values get a dedicated bucket.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
        #: bucket index -> count; index -(2**30) holds exact zeros.
        self.buckets: Dict[int, int] = {}

    _ZERO_BUCKET = -(2 ** 30)

    @staticmethod
    def _upper_bound(index: int) -> float:
        if index == LatencyHistogram._ZERO_BUCKET:
            return 0.0
        return _BUCKET_BASE ** index

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(
                f"histogram {self.name} got negative value {value}")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = (self._ZERO_BUCKET if value <= 0
                 else math.ceil(math.log(value) / _LOG_BASE))
        buckets = self.buckets
        try:
            buckets[index] += 1
        except KeyError:
            buckets[index] = 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (``p`` in [0, 100])."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(self.count * p / 100.0)
        rank = max(1, min(rank, self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # Clamp to the exactly-tracked extremes.
                return min(max(self._upper_bound(index),
                               0.0 if self.min is math.inf else self.min),
                           self.max)
        return self.max  # pragma: no cover - unreachable

    def merge(self, other: "LatencyHistogram") -> None:
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "min": 0.0 if self.min is math.inf else round(self.min, 3),
            "p50": round(self.percentile(50), 3),
            "p90": round(self.percentile(90), 3),
            "p99": round(self.percentile(99), 3),
            "max": round(self.max, 3),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run (or, after
    :meth:`merge`, for an aggregate of runs)."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    # -- instrument access (created on first use) -----------------------

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            instrument = self.counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            instrument = self.gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        try:
            return self.histograms[name]
        except KeyError:
            instrument = self.histograms[name] = LatencyHistogram(name)
            return instrument

    # -- convenience shorthands -----------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def sample(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    # -- aggregation and export ------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place); returns self."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other.histograms.items():
            self.histogram(name).merge(histogram)
        return self

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: every histogram reports p50/p90/p99."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: {"last": g.value, "max": g.max,
                              "mean": round(g.mean, 3)}
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }

    def render(self, title: Optional[str] = None) -> str:
        """Human-readable dump of the registry (histograms first)."""
        lines: List[str] = []
        if title:
            lines.append(title)
        if self.histograms:
            header = (f"{'histogram':<28} {'count':>8} {'mean':>10} "
                      f"{'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}")
            lines.append(header)
            lines.append("-" * len(header))
            for name in sorted(self.histograms):
                s = self.histograms[name].summary()
                lines.append(
                    f"{name:<28} {s['count']:>8} {s['mean']:>10.2f} "
                    f"{s['p50']:>10.2f} {s['p90']:>10.2f} "
                    f"{s['p99']:>10.2f} {s['max']:>10.2f}")
        for name in sorted(self.counters):
            lines.append(f"{name:<28} {self.counters[name].value}")
        for name in sorted(self.gauges):
            gauge = self.gauges[name]
            lines.append(f"{name:<28} last={gauge.value:g} "
                         f"max={gauge.max:g} mean={gauge.mean:.2f}")
        return "\n".join(lines) if lines else "(no metrics)"


class Held(dict):
    """Instruments an emitter on a per-event path holds: ``held[name]``
    asks the registry accessor it was built from (``registry.histogram``,
    ``.gauge`` or ``.counter``) once, on first use, so a name that is
    never emitted adds nothing to ``as_dict()`` and every later emission
    is one dict subscript and the instrument's own method."""

    __slots__ = ("_bind",)

    def __init__(self, bind: Callable[[str], object]) -> None:
        self._bind = bind

    def __missing__(self, name: str) -> object:
        instrument = self[name] = self._bind(name)
        return instrument


def merge_registries(registries: Iterable[MetricsRegistry]
                     ) -> MetricsRegistry:
    """Aggregate several runs' registries into a fresh one."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged
