"""Which numbers configure a run: one check, ``repro.errors.finite``.

Every configuration class refuses a number it cannot run with at
construction, with its own error type and a message that starts with
the setting's name.  A value it accepts runs a small program to a
result or an :class:`~repro.errors.AmberError`, never to a builtin
exception raised deep inside a run.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.apps.sor import SorProblem, run_amber_sor
from repro.core.costs import MAX_NODES_OR_CPUS, CostModel
from repro.dsm.machine import IvyCluster
from repro.errors import AmberError, ClusterError, SimulationError, finite
from repro.faults import FaultPlan, NodeCrash, Partition
from repro.runtime import Cluster
from repro.sim import (
    AmberProgram,
    ClusterConfig,
    Fork,
    Invoke,
    Join,
    MoveTo,
    New,
)
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from tests.helpers import Cell

NAN = float("nan")
INF = float("inf")


class TestChecker:
    def test_returns_the_value_it_accepts(self):
        assert finite("n", 3, ValueError, 1, integral=True) == 3
        count = np.int64(3)
        assert finite("n", count, ValueError, 1, integral=True) is count

    @pytest.mark.parametrize("value", [True, 2.0, "3", None, NAN, INF])
    def test_a_count_is_an_integer_and_not_a_bool(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            finite("n", value, ValueError, 1, integral=True)

    def test_only_an_admitted_infinity_passes(self):
        assert finite("t", INF, ValueError, open_low=True,
                      allow_inf=True) == INF
        for value in (NAN, -INF, 0.0):
            with pytest.raises(ValueError, match=r"^t must be a number "
                               r"with t > 0, got"):
                finite("t", value, ValueError, open_low=True,
                       allow_inf=True)
        with pytest.raises(ValueError, match=r"^t must be a finite"):
            finite("t", INF, ValueError)

    def test_message_names_both_ends_of_a_bounded_range(self):
        with pytest.raises(SimulationError,
                           match=r"^r must be a finite number with "
                                 r"0 <= r <= 1, got 1\.5$"):
            finite("r", 1.5, SimulationError, 0, 1)


# One test per site: each of these was accepted, or failed with a
# builtin error, before the check.

@pytest.mark.parametrize("changes", [
    dict(remote_trap_us=NAN), dict(page_bytes=NAN),
], ids=["remote_trap_us", "page_bytes"])
def test_cost_model_refuses_nan(changes):
    (name,) = changes
    with pytest.raises(ValueError, match=f"^{name} "):
        CostModel(**changes)


@pytest.mark.parametrize("changes", [
    dict(remote_trap_us=1e308), dict(thread_packet_bytes=10**400),
], ids=["remote_trap_us", "thread_packet_bytes"])
def test_cost_model_refuses_a_charge_the_clock_cannot_hold(changes):
    (name,) = changes
    with pytest.raises(ValueError, match=f"^{name} "):
        CostModel(**changes)


@pytest.mark.parametrize("changes", [
    dict(delay_max_us=NAN), dict(rto_us=NAN), dict(rto_cap_us=INF),
    dict(max_attempts=1e400), dict(max_attempts=1025),
    dict(delay_max_us=1e308),
], ids=["delay_max_us", "rto_us", "rto_cap_us", "max_attempts",
        "max_attempts-past-the-float-backoff",
        "delay_max_us-past-the-nanosecond-clock"])
def test_fault_plan_refuses_durations_it_cannot_time(changes):
    (name,) = changes
    with pytest.raises(SimulationError, match=f"^{name} "):
        FaultPlan(**changes)


def test_crash_and_partition_refuse_nan_times():
    with pytest.raises(SimulationError, match="^at_us "):
        NodeCrash(1, NAN)
    with pytest.raises(SimulationError, match="^at_us "):
        NodeCrash(1, 1e308)     # past the nanosecond clock
    with pytest.raises(SimulationError, match="^start_us "):
        Partition((1,), NAN, 5.0)
    with pytest.raises(SimulationError, match="^nodes "):
        Partition((1.5,), 0.0, 5.0)


def test_cluster_config_refuses_a_fractional_node_count():
    with pytest.raises(SimulationError, match="^nodes "):
        ClusterConfig(nodes=2.5)
    assert ClusterConfig(nodes=np.int64(2)).total_cpus == 8


def test_simulator_refuses_a_backstop_that_never_trips():
    with pytest.raises(SimulationError, match="^max_events "):
        Simulator(max_events=NAN)


def test_tracer_refuses_nan_with_a_value_error():
    with pytest.raises(ValueError, match="^max_events "):
        Tracer(max_events=NAN)


@pytest.mark.parametrize("nodes", [2.5, MAX_NODES_OR_CPUS + 1, 10**400],
                         ids=["fractional", "past-the-ceiling", "10**400"])
def test_live_cluster_refuses_a_fractional_node_count(nodes, monkeypatch):
    def no_processes(*args):
        raise AssertionError("a refused node count started a cluster")

    # The check comes first: nothing is started for a count it refuses.
    monkeypatch.setattr("repro.runtime.cluster.Coordinator", no_processes)
    with pytest.raises(ClusterError, match="^nodes "):
        Cluster(nodes=nodes)


@pytest.mark.parametrize("count", [2.5, NAN, True, MAX_NODES_OR_CPUS + 1],
                         ids=["fractional", "nan", "bool", "past-the-ceiling"])
@pytest.mark.parametrize("name", ["nodes", "cpus_per_node"])
def test_dsm_cluster_refuses_a_count_that_is_not_a_machine(name, count):
    shape = dict(nodes=2, cpus_per_node=1)
    shape[name] = count
    with pytest.raises(SimulationError, match=f"^{name} "):
        IvyCluster(**shape)


@pytest.mark.parametrize("kwargs,name", [
    (dict(sections=2.5), "sections"),
    (dict(workers_per_section=1.5), "workers_per_section"),
    (dict(rows=2.5), "rows"),
    (dict(rows=NAN), "rows"),
    (dict(rows=0), "rows"),
    (dict(cols=2.5), "cols"),
    (dict(iterations=NAN), "iterations"),
    (dict(iterations=-1), "iterations"),
], ids=["sections", "workers_per_section", "rows-2.5", "rows-nan",
        "rows-0", "cols-2.5", "iterations-nan", "iterations--1"])
def test_sor_refuses_a_fractional_shape(kwargs, name):
    shape, options = dict(rows=6, cols=8, iterations=2), {}
    for key, value in kwargs.items():
        (shape if key in shape else options)[key] = value
    with pytest.raises(ValueError, match=f"^{name} "):
        run_amber_sor(SorProblem(**shape), nodes=1, **options)


# ---------------------------------------------------------------------------
# Every numeric field, every hostile value
# ---------------------------------------------------------------------------

#: ``1e308`` is finite but too long for the nanosecond clock; ``10**400``
#: is an integer no float holds, and a node count no machine builds.
HOSTILE = (NAN, INF, -INF, 1e400, 1e308, 10**400, 0, -1, 2.5)

#: class -> (a valid instance to vary, the error it raises, how an
#: instance configures a 2-node run: AmberProgram keyword arguments).
SITES = {
    CostModel: (CostModel(), ValueError, lambda c: dict(costs=c)),
    FaultPlan: (FaultPlan(delay_rate=0.1, delay_max_us=1_000.0),
                SimulationError, lambda p: dict(faults=p)),
    NodeCrash: (NodeCrash(1, 2_000.0, 6_000.0), SimulationError,
                lambda c: dict(faults=FaultPlan(crashes=(c,)))),
    Partition: (Partition((1,), 2_000.0, 6_000.0), SimulationError,
                lambda w: dict(faults=FaultPlan(partitions=(w,)))),
    ClusterConfig: (ClusterConfig(2, 2), SimulationError,
                    lambda c: dict(config=c)),
}


def _small_program(ctx):
    cell = yield New(Cell, 1, on_node=1)
    yield Invoke(cell, "add", 2)
    child = yield Fork(cell, "add", 3)
    yield Join(child)
    yield MoveTo(cell, 0)
    return (yield Invoke(cell, "get"))


def _run(config=ClusterConfig(2, 2), **kwargs):
    try:
        return AmberProgram(config, **kwargs).run(_small_program).value
    except AmberError as error:
        return error


@pytest.mark.parametrize("cls", list(SITES), ids=lambda c: c.__name__)
def test_every_numeric_field_refuses_at_construction_or_runs(cls):
    base, error, configure = SITES[cls]
    assert _run(**configure(base)) == 6
    numeric = [f for f in dataclasses.fields(cls)
               if isinstance(getattr(base, f.name), (int, float))
               and not isinstance(getattr(base, f.name), bool)]
    assert numeric
    for f in numeric:
        integral = isinstance(getattr(base, f.name), int)
        for value in HOSTILE:
            case = f"{cls.__name__}({f.name}={value!r})"
            try:
                config = dataclasses.replace(base, **{f.name: value})
            except error as refused:
                assert str(refused).startswith(f"{f.name} "), case
                continue
            assert not (integral and value == 2.5), case
            assert not (isinstance(value, float) and math.isnan(value)), \
                case
            assert value != INF or f.name == "timeslice_us", case
            # A builtin exception here escapes _run and fails the test.
            _run(**configure(config))
