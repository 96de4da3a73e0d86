"""Golden identity of the simulator's per-event path.

Seven small fixed programs (``tests/hot_path_programs.py``: four
fault-free, three faulted or recovering) are run with a tracer attached
and every fixed point of the run — ``(events_run, elapsed_us)``,
``ClusterStats``, ``NetworkStats``, ``metrics.as_dict()``, every
thread's ``state_time_us`` and the full trace-event stream — is compared
against ``tests/golden/hot_path_identity.json``.  Each program
also runs untraced, and every fixed point but the trace must be the same:
the kernel emits trace events only when a tracer is attached, and that
guard must not move a single event.  The golden
file was generated before the per-event path was optimised; a change to
that path must leave this file untouched.  Regenerate (only for an
intended behaviour change) with::

    PYTHONPATH=src python -m tests.test_hot_path_identity
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.sim import Tracer
from tests import hot_path_programs as programs

GOLDEN = Path(__file__).parent / "golden" / "hot_path_identity.json"

PROGRAMS = {
    "sor_40x280_4Nx2P": programs.run_sor,
    "mobility_8Nx2P": programs.run_mobility,
    "forkjoin_lock_barrier_2Nx2P": programs.run_forkjoin,
    "faulted_stale_hint_3Nx2P": programs.run_stale_hint,
    "faulted_cyclic_chain_3Nx2P": programs.run_cyclic_chain,
    "recovering_permanent_crash_3Nx2P": programs.run_recovery,
    "move_race_4Nx1P": programs.run_move_race,
}


def observe(run, traced: bool = True) -> dict:
    """Every fixed point of one run, as JSON-ready data (floats
    round-trip exactly through ``json``); an untraced run has no trace
    keys."""
    tracer = Tracer(max_events=1_000_000) if traced else None
    result = run(tracer=tracer)
    cluster = result.cluster
    stats = dataclasses.asdict(
        dataclasses.replace(cluster.stats, metrics=None))
    del stats["metrics"]
    observed = {
        "events_run": cluster.sim.events_run,
        "elapsed_us": cluster.sim.now_us,
        "cluster_stats": stats,
        "network_stats": dataclasses.asdict(cluster.network.stats),
        "metrics": cluster.metrics.as_dict(),
        "state_time_us": {thread.name: thread.state_time_us
                          for thread in cluster.kernel.threads},
    }
    if traced:
        observed["trace_dropped"] = tracer.dropped
        observed["trace"] = [[event.t_us, event.kind, event.node,
                              event.thread, event.vaddr, event.detail,
                              event.dur_us]
                             for event in tracer.events]
    return observed


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_run_matches_golden(name, golden):
    # Through json once, so tuples/ints compare as the file stores them.
    observed = json.loads(json.dumps(observe(PROGRAMS[name])))
    expected = golden[name]
    assert sorted(observed) == sorted(expected)
    for key in expected:
        assert observed[key] == expected[key], f"{name}: {key} differs"


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_untraced_run_matches_golden(name, golden):
    """Without a tracer every fixed point but the trace is the traced
    run's, the metrics included: a tracer samples nothing of its own."""
    observed = json.loads(json.dumps(observe(PROGRAMS[name],
                                             traced=False)))
    expected = dict(golden[name])
    del expected["trace"], expected["trace_dropped"]
    assert sorted(observed) == sorted(expected)
    for key in expected:
        assert observed[key] == expected[key], f"{name}: {key} differs"


def test_golden_runs_are_not_trivial(golden):
    """The pinned programs really take the paths the file claims."""
    mobility = golden["mobility_8Nx2P"]
    assert mobility["cluster_stats"]["object_moves"] > 50
    assert mobility["cluster_stats"]["locates"] > 50
    nodes = mobility["cluster_stats"]["nodes"]
    assert sum(node["forward_hops"] for node in nodes) > 50
    assert sum(node["replicas_installed"] for node in nodes) > 0
    assert mobility["trace_dropped"] == 0
    forkjoin = golden["forkjoin_lock_barrier_2Nx2P"]
    assert forkjoin["metrics"]["histograms"]["lock_wait_us"]["max"] > 0
    assert forkjoin["metrics"]["histograms"]["barrier_wait_us"]["count"] \
        == 30
    sor = golden["sor_40x280_4Nx2P"]
    assert sor["network_stats"]["messages"] > 0

    def counters(name):
        return golden[name]["metrics"]["counters"]

    def traced(name, kind, thread):
        return sum(1 for event in golden[name]["trace"]
                   if event[1] == kind and bool(event[3]) == thread)

    stale = counters("faulted_stale_hint_3Nx2P")
    assert stale["hints_repaired"] == 1 and stale["home_fallbacks"] == 1
    assert stale["send_give_ups"] == 1
    # Probes and broadcast repairs from a migrating thread *and* from a
    # control message (trace events of the latter carry no thread).
    cyclic = "faulted_cyclic_chain_3Nx2P"
    assert traced(cyclic, "home-probe", True) == 1
    assert traced(cyclic, "home-probe", False) == 1
    assert counters(cyclic)["location_broadcasts"] == 2
    assert counters(cyclic)["recoveries"] == 1
    recovering = counters("recovering_permanent_crash_3Nx2P")
    assert recovering["objects_recovered"] == 2
    assert recovering["invocations_replayed"] == 2
    assert recovering["invocations_suppressed"] == 1
    assert recovering["threads_lost"] == 1
    assert recovering["checkpoints_shipped"] > 5    # 5 births + carried
    assert traced("recovering_permanent_crash_3Nx2P",
                  "home-fallback", True) == 1       # live promoted copy
    # Three remote moves ran the protocol four times: one lost the race
    # at setup_done and was re-routed; chases of the object in flight
    # were held at the move's source until the destination held it.
    race = golden["move_race_4Nx1P"]
    assert race["cluster_stats"]["object_moves"] == 3
    assert race["metrics"]["histograms"]["forward_chain_hops"]["count"] \
        > 3 + 4
    # No fault-free program needed the crash path's broadcast or probes.
    for name in ("sor_40x280_4Nx2P", "mobility_8Nx2P",
                 "forkjoin_lock_barrier_2Nx2P", "move_race_4Nx1P"):
        assert not {"location_broadcasts", "home_probes"} \
            & counters(name).keys(), name


def _dump(golden: dict) -> str:
    """One line per fixed point and per trace event: diffs stay local."""
    lines = ["{"]
    for name in sorted(golden):
        lines.append(f"{json.dumps(name)}: {{")
        for key in sorted(golden[name]):
            if key == "trace":
                continue
            lines.append(f"{json.dumps(key)}: "
                         f"{json.dumps(golden[name][key], sort_keys=True)},")
        lines.append('"trace": [')
        lines.append(",\n".join(json.dumps(event)
                                for event in golden[name]["trace"]))
        lines.append("]},")
    lines[-1] = "]}"
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({name: observe(run)
                             for name, run in PROGRAMS.items()}))
    print(f"wrote {GOLDEN}")
