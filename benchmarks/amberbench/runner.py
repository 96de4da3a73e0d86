"""The workload process: set up, measure, check, report.

Runs inside the fresh subprocess :mod:`harness` starts for every pass.
An untraced pass times whole rounds and nothing else; a traced pass runs
every stage, then alternates untraced and traced rounds of the workload
so the two rates — and hence the tracing overhead — come from the same
process and the same minutes.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import time
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from benchmarks.amberbench import catalog, workloads
from benchmarks.amberbench.calibration import HostSpeed
from benchmarks.amberbench.spans import OFF, Recorder
from benchmarks.amberbench.workloads.base import Workload

OUT_DIR = Path(__file__).resolve().parent / "out"
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")

#: Rounds a pass measures at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3


def node_pids() -> List[int]:
    """Pids of the live cluster's node processes (children of this one)."""
    return [child.pid for child in multiprocessing.active_children()
            if child.pid is not None]


def cpu_seconds() -> float:
    """User+system CPU of this process and of the live cluster's node
    processes, so that "faster by spinning" shows."""
    total = time.process_time()
    for pid in node_pids():
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS_PER_S
    return total


def peak_rss_mib() -> float:
    """High-water resident set of this process plus the node processes."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in node_pids():
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def run(options: Dict[str, Any]) -> Dict[str, Any]:
    """One pass of one workload; returns the JSON-ready result."""
    size = options["size"]
    trace = bool(options["trace"])
    workload = workloads.load(options["workload"])(
        options["seed"], size, options["flip_oracle"])
    recorder = Recorder() if trace else OFF
    scale = 1.0 if size == "full" else 0.05
    result: Dict[str, Any] = {"workload": workload.name,
                              "work_unit": workload.work_unit}
    try:
        stages: Dict[str, float] = {}
        if trace:
            # Before the workload starts anything, so no idle node
            # process of its cluster competes with a stage.  Imported
            # here: an untraced pass (and its setup_s) never loads them.
            from benchmarks.amberbench import stages as stage_module
            stages = stage_module.sim_stages(recorder, scale)
            stages.update(stage_module.live_stages(recorder, scale))
        workload.rec = recorder
        with recorder.span("workload.setup"):
            workload.setup()
        setup_s = time.monotonic() - options["spawned_at"]
        # Set-up is one thread's work, whatever the workload does later.
        host = HostSpeed(parallel=False)
        result["setup_s"] = setup_s * host.sample()
        host.close()
        result["raw_setup_s"] = setup_s
        if options["mode"] == "setup":
            return result
        if trace:
            metrics = _traced(workload, recorder, stages,
                              options["seconds"], result)
        else:
            metrics = _untraced(workload, options["seconds"], result)
        workload.rec = recorder
        workload.finish()
        if trace:
            metrics["failed_ops_share"] = (workload.failed
                                           / max(1, workload.attempted))
            _write_trace(recorder, workload, options, metrics)
        result["metrics"] = metrics
        result["attempted"] = workload.attempted
        result["failed"] = workload.failed
    finally:
        workload.close()
        # A cluster that outlives its workload is a failure of the run.
        result["leaked_children"] = len(multiprocessing.active_children())
    return result


def _untraced(workload: Workload, seconds: float,
              result: Dict[str, Any]) -> Dict[str, float]:
    rates: List[float] = []
    raw_rates: List[float] = []
    cpu_ms_per_kop: List[float] = []
    deadline = perf_counter() + seconds
    host = HostSpeed(parallel=workload.keeps_all_cpus_busy)
    try:
        speed_before = host.sample()
        while True:
            cpu0, t0 = cpu_seconds(), perf_counter()
            ops = workload.round()
            wall = perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            speed_after = host.sample()
            speed = (speed_before + speed_after) / 2.0
            speed_before = speed_after
            raw_rates.append(ops / wall)
            rates.append(ops / wall / speed)
            cpu_ms_per_kop.append(cpu * 1e3 / (ops / 1e3) * speed)
            if (len(rates) >= MIN_ROUNDS
                    and perf_counter() + wall > deadline):
                break
    finally:
        host.close()
    result["round_rates"] = rates
    result["raw_round_rates"] = raw_rates
    return {
        "work_per_s": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib(),
        "cpu_ms_per_kop": statistics.median(cpu_ms_per_kop),
    }


def _traced(workload: Workload, recorder: Recorder,
            stages: Dict[str, float], seconds: float,
            result: Dict[str, Any]) -> Dict[str, float]:
    walls: Dict[bool, List[float]] = {False: [], True: []}
    rates: Dict[bool, List[float]] = {False: [], True: []}
    # Half the budget: the paper-size run and the stages need the rest.
    deadline = perf_counter() + seconds / 2.0
    while True:
        for traced in (False, True):
            workload.rec = recorder if traced else OFF
            t0 = perf_counter()
            ops = workload.round()
            wall = perf_counter() - t0
            walls[traced].append(wall)
            rates[traced].append(ops / wall)
        if perf_counter() + walls[False][-1] + walls[True][-1] > deadline:
            break
    workload.rec = OFF
    # tracemalloc multiplies host time several times over, so it gets a
    # short repetition of its own instead of riding on the traced rounds.
    tracemalloc.start()
    try:
        probe_ops = workload.alloc_probe()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(stat.count for stat in snapshot.statistics("filename"))

    workload.rec = recorder
    metrics = dict.fromkeys(catalog.PER_LAYER_NAMES, 0.0)
    metrics.update((name, value) for name, value in stages.items()
                   if name in metrics)
    metrics.update(workload.layer_metrics(
        stages, statistics.median(walls[False])))
    untraced_rate = statistics.median(rates[False])
    traced_rate = statistics.median(rates[True])
    metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    metrics["trace.alloc_blocks_per_op"] = retained / probe_ops
    result["untraced_work_per_s"] = untraced_rate
    result["traced_work_per_s"] = traced_rate
    return metrics


def _write_trace(recorder: Recorder, workload: Workload,
                 options: Dict[str, Any],
                 metrics: Dict[str, float]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(str(OUT_DIR / f"trace_{workload.name}.json"), {
        "workload": workload.name, "seed": options["seed"],
        "size": options["size"], "clock": "perf_counter_ns (host time)",
        "per_layer": metrics,
    })
