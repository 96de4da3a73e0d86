"""Tests for the simulation tracer and its renderings."""

import pytest

from repro.sim.cluster import ClusterConfig
from repro.sim.program import AmberProgram
from repro.sim.syscalls import Fork, Invoke, Join, MoveTo, New, SetImmutable
from repro.sim.trace import (
    TraceEvent,
    Tracer,
    render_log,
    render_migration_matrix,
)
from tests.helpers import Cell


def traced_run(main):
    tracer = Tracer()
    program = AmberProgram(ClusterConfig(nodes=3, cpus_per_node=2))
    result = program.run(main, tracer=tracer)
    return tracer, result


class TestTracer:
    def test_invocations_traced(self):
        def main(ctx):
            cell = yield New(Cell)
            yield Invoke(cell, "get")
            yield MoveTo(cell, 1)
            yield Invoke(cell, "get")

        tracer, _ = traced_run(main)
        kinds = tracer.by_kind()
        assert kinds.get("invoke-local", 0) >= 1
        assert kinds.get("invoke-remote", 0) >= 1
        assert kinds.get("move", 0) == 1

    def test_migration_pairing(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 2)
            yield Invoke(cell, "get")   # main: 0 -> 2 -> 0

        tracer, _ = traced_run(main)
        moves = tracer.migrations()
        assert ("main", 0, 2) in moves
        assert ("main", 2, 0) in moves

    def test_replication_traced(self):
        def main(ctx):
            cell = yield New(Cell)
            yield SetImmutable(cell)
            yield MoveTo(cell, 1)

        tracer, _ = traced_run(main)
        assert tracer.by_kind().get("replicate", 0) == 1

    def test_events_are_time_ordered(self):
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            yield Invoke(cell, "add", 1)
            worker = yield Fork(cell, "add", 2)
            yield Join(worker)

        tracer, _ = traced_run(main)
        times = [event.t_us for event in tracer.events]
        assert times == sorted(times)
        assert len(tracer.events) >= 4

    def test_bounded_buffer_drops_oldest(self):
        tracer = Tracer(max_events=3)
        for i in range(6):
            tracer.emit(float(i), "invoke-local", 0)
        assert tracer.dropped == 3
        assert [event.t_us for event in tracer.events] == [3.0, 4.0, 5.0]

    def test_rejects_max_events_below_one(self):
        with pytest.raises(ValueError, match="max_events >= 1"):
            Tracer(max_events=0)

    def test_no_tracer_no_overhead(self):
        """Runs without a tracer behave identically (and don't crash)."""
        def main(ctx):
            cell = yield New(Cell)
            yield MoveTo(cell, 1)
            return (yield Invoke(cell, "get"))

        program = AmberProgram(ClusterConfig(nodes=2))
        with_tracer = program.run(main, tracer=Tracer())
        without = program.run(main)
        assert with_tracer.elapsed_us == without.elapsed_us


class TestRenderings:
    def test_render_log(self):
        events = [TraceEvent(1.5, "invoke-local", 0, "main", 0x1000, "get"),
                  TraceEvent(9.0, "migrate-out", 0, "main", 0x1000)]
        out = render_log(events)
        assert "invoke-local" in out
        assert "0x1000" in out
        assert "migrate-out" in out

    def test_render_log_truncates(self):
        events = [TraceEvent(float(i), "invoke-local", 0)
                  for i in range(10)]
        out = render_log(events, limit=4)
        assert "... 6 more events" in out

    def test_migration_matrix(self):
        tracer = Tracer()
        tracer.emit(1.0, "migrate-out", 0, "t")
        tracer.emit(2.0, "migrate-in", 2, "t")
        tracer.emit(3.0, "migrate-out", 2, "t")
        tracer.emit(4.0, "migrate-in", 0, "t")
        out = render_migration_matrix(tracer, nodes=3)
        lines = out.splitlines()
        assert lines[0].startswith("src\\dst")
        # Row for node 0 shows one migration to node 2 and vice versa.
        assert lines[1].split() == ["0", "0", "0", "1"]
        assert lines[3].split() == ["2", "1", "0", "0"]
