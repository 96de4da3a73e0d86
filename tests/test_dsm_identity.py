"""Golden identity of the DSM baseline's page-fault protocol.

Every ``IvyCluster.MANAGER_MODES`` entry runs the same fixed programs —
Ivy SOR at three cluster shapes, a test-and-set lock, the RPC lock and
barrier services on two server nodes, and sixteen seeded random mixes
of every memory op — and every fixed point of each run is compared
against ``tests/golden/dsm_identity.json``: ``elapsed_us``,
``sim.events_run``, every ``IvyStats`` and ``NetworkStats`` field, each
node's ``cpu_busy_us``, the shared ``memory`` and each process's
``result``.  A change to ``repro.dsm.machine`` that is meant to preserve
behaviour leaves the file untouched.  Regenerate (only for an intended
behaviour change, in its own commit) with::

    PYTHONPATH=src python -m tests.test_dsm_identity

The random mixes are not padding: they oversubscribe the CPUs, so only
they put a writer on a page owner's node while that page is being
packed for a reader elsewhere.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from repro.apps.sor import ivy_sor
from repro.apps.sor.grid import SorProblem
from repro.dsm.machine import IvyCluster
from repro.dsm.ops import (
    Compute,
    Load,
    Read,
    RpcBarrier,
    RpcLockAcquire,
    RpcLockRelease,
    Store,
    TestAndSet,
    Write,
)

GOLDEN = Path(__file__).parent / "golden" / "dsm_identity.json"

SOR_PROBLEM = SorProblem(rows=31, cols=211, iterations=3)
PAGE = 1024
MIX_PAGES = 6
MIX_OPS = 120


def run_sor(nodes: int, cpus: int, mode: str) -> IvyCluster:
    """``run_ivy_sor`` returns a summary; keep the cluster it built."""
    built = []

    class Recording(IvyCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(ivy_sor, "IvyCluster", Recording):
        ivy_sor.run_ivy_sor(SOR_PROBLEM, nodes=nodes, cpus_per_node=cpus,
                            manager_mode=mode)
    (cluster,) = built
    return cluster


def run_tas_lock(mode: str) -> IvyCluster:
    lock_addr, data_addr = 0, 5 * PAGE

    def locker(cluster, rounds):
        spins = 0
        for _ in range(rounds):
            while (yield TestAndSet(lock_addr)):
                spins += 1
                yield Compute(40.0)
            value = yield Load(data_addr)
            yield Compute(25.0)
            yield Store(data_addr, (value or 0) + 1)
            yield Store(lock_addr, False)
        return spins

    cluster = IvyCluster(4, 2, manager_mode=mode)
    for node in range(4):
        for _ in range(2):
            cluster.spawn(node, locker, 4)
    cluster.run()
    return cluster


def run_rpc(server: int, mode: str) -> IvyCluster:
    data_addr = 3 * PAGE

    def worker(cluster, index, rounds):
        seen = []
        for round_no in range(rounds):
            yield RpcLockAcquire(7, server)
            value = yield Load(data_addr)
            yield Compute(30.0 + 5.0 * index)
            yield Store(data_addr, (value or 0) + 1)
            yield RpcLockRelease(7, server)
            yield RpcBarrier(round_no % 2, 6, server)
            seen.append((yield Load(data_addr)))
        return seen

    cluster = IvyCluster(3, 2, manager_mode=mode)
    for index in range(6):
        cluster.spawn(index % 3, worker, index, 4)
    cluster.run()
    return cluster


def mix_process(cluster, seed: int):
    """A seeded stream of every memory op over ``MIX_PAGES`` pages."""
    rng = random.Random(seed)
    seen = []
    for step in range(MIX_OPS):
        addr = rng.randrange(MIX_PAGES * PAGE)
        kind = rng.choice(("read", "write", "load", "store", "tas",
                           "compute"))
        span = min(rng.choice((1, 64, PAGE + 1)), MIX_PAGES * PAGE - addr)
        if kind == "read":
            yield Read(addr, span)
        elif kind == "write":
            yield Write(addr, span)
        elif kind == "load":
            seen.append((yield Load(addr - addr % 512)))
        elif kind == "store":
            yield Store(addr - addr % 512, seed * 1000 + step)
        elif kind == "tas":
            seen.append((yield TestAndSet(addr - addr % 512)))
        else:
            yield Compute(rng.choice((5.0, 90.0, 700.0)))
    return seen


def run_mix(seed: int, nodes: int, cpus: int, per_node: int,
            mode: str) -> IvyCluster:
    cluster = IvyCluster(nodes, cpus, manager_mode=mode)
    for index in range(nodes * per_node):
        cluster.spawn(index % nodes, mix_process, seed * 100 + index)
    cluster.run()
    return cluster


def _programs() -> dict:
    programs = {}
    for mode in IvyCluster.MANAGER_MODES:
        for nodes, cpus in ((4, 4), (3, 2), (1, 2)):
            programs[f"sor/{mode}/{nodes}Nx{cpus}P"] = (
                lambda n=nodes, c=cpus, m=mode: run_sor(n, c, m))
        programs[f"taslock/{mode}/4Nx2P"] = lambda m=mode: run_tas_lock(m)
        for server in (0, 2):
            programs[f"rpc-server{server}/{mode}/3Nx2P"] = (
                lambda s=server, m=mode: run_rpc(s, m))
        for seed in range(12):
            programs[f"mix{seed:02d}/{mode}/4Nx2P"] = (
                lambda s=seed, m=mode: run_mix(s, 4, 2, 3, m))
        for seed in range(12, 16):
            programs[f"mix{seed:02d}/{mode}/3Nx1P"] = (
                lambda s=seed, m=mode: run_mix(s, 3, 1, 2, m))
    return programs


PROGRAMS = _programs()


def observe(run) -> dict:
    """Every fixed point of one run, as JSON-ready data (floats
    round-trip exactly through ``json``)."""
    cluster = run()
    stats = dataclasses.asdict(cluster.stats)
    stats["transfers_by_page"] = sorted(stats["transfers_by_page"].items())
    return {
        "elapsed_us": cluster.elapsed_us,
        "events_run": cluster.sim.events_run,
        "ivy_stats": stats,
        "network_stats": dataclasses.asdict(cluster.network.stats),
        "cpu_busy_us": [node.cpu_busy_us for node in cluster.nodes],
        "memory": sorted(cluster.memory.items()),
        "results": [proc.result for proc in cluster.processes],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_names_every_program(golden):
    assert sorted(golden) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_run_matches_golden(name, golden):
    # Through json once, so tuples compare as the file stores them.
    observed = json.loads(json.dumps(observe(PROGRAMS[name])))
    expected = golden[name]
    assert sorted(observed) == sorted(expected)
    for key in expected:
        assert observed[key] == expected[key], f"{name}: {key} differs"


def test_golden_runs_are_not_trivial(golden):
    """The pinned programs really take the paths the file claims."""
    for mode in IvyCluster.MANAGER_MODES:
        sor = golden[f"sor/{mode}/4Nx4P"]["ivy_stats"]
        assert sor["page_transfers"] > 50 and sor["barrier_rounds"] == 3
        assert golden[f"sor/{mode}/1Nx2P"]["network_stats"]["messages"] == 0
        tas = golden[f"taslock/{mode}/4Nx2P"]
        assert tas["memory"] == [[0, False], [5 * PAGE, 32]]
        assert tas["ivy_stats"]["invalidations"] > 30
        for server in (0, 2):
            rpc = golden[f"rpc-server{server}/{mode}/3Nx2P"]
            assert rpc["ivy_stats"]["lock_rpcs"] == 48
            assert rpc["ivy_stats"]["barrier_rounds"] == 4
            assert rpc["memory"] == [[3 * PAGE, 24]]
        for seed in range(16):
            shape = "4Nx2P" if seed < 12 else "3Nx1P"
            mix = golden[f"mix{seed:02d}/{mode}/{shape}"]["ivy_stats"]
            assert mix["read_faults"] > 20 and mix["write_faults"] > 50
            assert mix["invalidations"] > 50
    dynamic = golden["mix00/dynamic/4Nx2P"]["ivy_stats"]
    assert dynamic["owner_forwards"] > 50


def _dump(golden: dict) -> str:
    """One line per run: a diff names exactly the rows that moved."""
    lines = [f"{json.dumps(name)}: "
             f"{json.dumps(golden[name], sort_keys=True)}"
             for name in sorted(golden)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({name: observe(run)
                             for name, run in PROGRAMS.items()}))
    print(f"wrote {GOLDEN}")
