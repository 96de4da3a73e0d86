"""Shared helpers for the simulator test suite."""

from __future__ import annotations

from repro.core.costs import CostModel
from repro.sim.cluster import ClusterConfig
from repro.sim.objects import SimObject
from repro.sim.program import AmberProgram
from repro.sim.syscalls import Charge, Compute


def run(main_fn, *args, nodes=2, cpus=2, costs=None):
    """Run a main generator on a small cluster with Table 1 costs."""
    program = AmberProgram(ClusterConfig(nodes=nodes, cpus_per_node=cpus),
                           costs or CostModel.firefly())
    return program.run(main_fn, *args)


def run_free(main_fn, *args, nodes=2, cpus=2):
    """Run with the zero-cost model: pure semantics, no timing noise."""
    return run(main_fn, *args, nodes=nodes, cpus=cpus,
               costs=CostModel.free())


class Cell(SimObject):
    """A tiny mutable object used across kernel tests."""

    SIZE_BYTES = 128

    def __init__(self, value=0):
        self.value = value

    def get(self, ctx):
        if False:
            yield None
        return self.value

    def set(self, ctx, value):
        yield Charge(1.0)
        self.value = value
        return self.value

    def add(self, ctx, n):
        yield Compute(2.0)
        self.value += n
        return self.value

    def where(self, ctx):
        """Reports the node this operation executes on."""
        if False:
            yield None
        return ctx.node

    def get_atomic(self, ctx):
        return self.value

    def boom(self, ctx):
        yield Charge(1.0)
        raise ValueError("boom")
