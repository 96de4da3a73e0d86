"""Parent side of a pass: fresh subprocesses, hard timeouts, hygiene.

Every pass of every workload runs in its own interpreter, started here
with its own session so that whatever it forks can be found again.  A
pass fails if the process exits non-zero, overruns its deadline, leaves a
live ``multiprocessing`` child behind, or if any process of its session
(an ``amber-node-*`` worker, say) survives it.  No environment variable
of the program is set: ``REPRO_PEER_TIMEOUT_S`` keeps its default.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.amberbench import catalog

RUN_PY = Path(__file__).resolve().parent / "run.py"
ROOT = RUN_PY.parents[2]

#: One pass, set-up samples included, must end within this (the contract
#: allows 180 s per run).
PASS_DEADLINE_S = 170.0
#: Fresh processes whose set-up time is measured per untraced pass; the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 5


class PassFailed(RuntimeError):
    """The workload process did not produce a trustworthy result."""


def run_pass(workload: str, seed: int, seconds: float, trace: bool,
             size: str = "full", flip_oracle: bool = False
             ) -> Dict[str, Any]:
    """One untraced or traced pass of one workload.

    Returns ``{"correct", "attempted", "failed", "metrics", "info"}``;
    ``metrics`` maps every end-to-end (untraced) or per-layer (traced)
    metric name to ``{"value", "unit"}``.
    """
    deadline = time.monotonic() + PASS_DEADLINE_S
    options = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "size": size,
               "flip_oracle": flip_oracle}
    setup_samples: List[float] = []
    if not trace and size == "full":
        for _ in range(SETUP_SAMPLES - 1):
            sample = _spawn(dict(options, mode="setup"), deadline)
            setup_samples.append(sample["setup_s"])
    result = _spawn(dict(options, mode="measure"), deadline)
    setup_samples.append(result["setup_s"])
    values = dict(result["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setup_samples)
    names = catalog.PER_LAYER_NAMES if trace else catalog.END_TO_END_NAMES
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name],
                           "unit": catalog.UNITS[name]} for name in names},
        "info": {key: result[key] for key in
                 ("work_unit", "round_rates", "raw_round_rates",
                  "raw_setup_s", "untraced_work_per_s",
                  "traced_work_per_s") if key in result}
                | {"setup_samples_s": setup_samples},
    }


def _spawn(options: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one workload process to completion and vet how it ended."""
    options["spawned_at"] = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(RUN_PY), "--child", json.dumps(options)],
        stdout=subprocess.PIPE, cwd=str(ROOT), start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(
            f"{options['workload']}: workload process overran its "
            f"deadline") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        survivors = _session_survivors(process.pid)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
    if survivors:
        raise PassFailed(f"{options['workload']}: processes {survivors} "
                         f"outlived the workload process")
    if process.returncode != 0:
        raise PassFailed(f"{options['workload']}: workload process exited "
                         f"with code {process.returncode}")
    lines = stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise PassFailed(f"{options['workload']}: no result printed")
    result = json.loads(lines[-1])
    if result["leaked_children"]:
        raise PassFailed(f"{options['workload']}: "
                         f"{result['leaked_children']} multiprocessing "
                         f"children still alive after shutdown")
    return result


def _session_survivors(session_leader: int) -> List[int]:
    """Live processes still in the process group the workload process
    led (it was started with its own session)."""
    survivors = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue    # exited while we were looking
        state, process_group = fields[0], int(fields[2])
        if process_group == session_leader and state != "Z":
            survivors.append(int(entry))
    return survivors


def environment() -> Dict[str, Any]:
    """What the numbers were measured on."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        revision = ""
    return {
        "git_rev": revision or "unknown",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }
