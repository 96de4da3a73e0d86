"""Ablation A7: higher-level object placement software (§2.3's outlook).

"the best policy for managing location is application-specific and is
best left to the program or higher-level object placement software."

The AffinityRebalancer is that software: it mines the kernel's access log
and *suggests* moves; the program applies them with ordinary MoveTo.
This benchmark measures how much of the hand-placed optimum the advisor
recovers on a phase-structured workload with a deliberately bad initial
placement.
"""

import pytest

from repro.placement import AffinityRebalancer
from repro.sim.objects import SimObject
from repro.sim.program import run_program
from repro.sim.syscalls import Compute, Fork, Invoke, Join, MoveTo, New

NODES = 4
OBJECTS_PER_NODE = 2
ACCESSES = 12


class Record(SimObject):
    def __init__(self):
        self.hits = 0

    def touch(self, ctx):
        yield Compute(5.0)
        self.hits += 1


class Clients(SimObject):
    """One per node: hammers the records assigned to this node."""

    def consume(self, ctx, records, accesses):
        for _ in range(accesses):
            for record in records:
                yield Invoke(record, "touch")


def phase_workload(placement: str):
    """Each node repeatedly touches its own records, which start piled on
    node 0.  ``placement``: 'static' (leave them), 'advised' (apply the
    rebalancer's suggestions between a warmup and the measured phase), or
    'oracle' (hand-move each record to its consumer up front)."""

    def main(ctx):
        assignments = {}
        for node in range(NODES):
            records = []
            for _ in range(OBJECTS_PER_NODE):
                records.append((yield New(Record)))   # all on node 0
            assignments[node] = records
        consumers = {}
        for node in range(NODES):
            consumers[node] = yield New(Clients, on_node=node)

        if placement == "oracle":
            for node, records in assignments.items():
                for record in records:
                    yield MoveTo(record, node)

        def run_phase(accesses):
            threads = []
            for node in range(NODES):
                threads.append((yield Fork(consumers[node], "consume",
                                           assignments[node], accesses)))
            for thread in threads:
                yield Join(thread)

        # Warmup phase (generates the access log).
        yield from run_phase(3)

        if placement == "advised":
            rebalancer = AffinityRebalancer(min_accesses=2)
            suggestions = rebalancer.suggest(ctx.cluster)
            for suggestion in suggestions:
                yield MoveTo(suggestion.obj, suggestion.dest)
            rebalancer.reset_log(ctx.cluster)

        # Measured phase.
        t0 = ctx.now_us
        yield from run_phase(ACCESSES)
        return ctx.now_us - t0

    return main


@pytest.fixture(scope="module")
def results():
    out = {}
    for placement in ("static", "advised", "oracle"):
        out[placement] = run_program(phase_workload(placement),
                                     nodes=NODES, cpus_per_node=2).value
    return out


def test_regenerates(results):
    assert set(results) == {"static", "advised", "oracle"}


def test_advice_beats_static_placement(results):
    assert results["advised"] < results["static"] / 3


def test_advice_recovers_most_of_oracle(results):
    """The advisor should land within 25% of hand placement."""
    assert results["advised"] <= results["oracle"] * 1.25


def test_oracle_is_the_floor(results):
    assert results["oracle"] <= results["advised"] * 1.01
