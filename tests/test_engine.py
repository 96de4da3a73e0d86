"""Tests for the discrete-event engine and the Ethernet model."""

import pytest

from repro.core.costs import CostModel
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import Ethernet


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_us(30, lambda: order.append("c"))
        sim.schedule_us(10, lambda: order.append("a"))
        sim.schedule_us(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule_us(10, lambda: order.append(1))
        sim.schedule_us(10, lambda: order.append(2))
        sim.schedule_us(10, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_us(12.5, lambda: seen.append(sim.now_us))
        sim.run()
        assert seen == [pytest.approx(12.5)]

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now_us)
            sim.schedule_us(5, lambda: times.append(sim.now_us))

        sim.schedule_us(10, first)
        sim.run()
        assert times == [pytest.approx(10), pytest.approx(15)]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        entry = sim.schedule_at_ns(10_000, lambda: fired.append(1))
        sim.schedule_us(20, lambda: fired.append(2))
        assert sim.pending() == 2
        sim.cancel(entry)
        assert sim.pending() == 1
        sim.run()
        assert fired == [2]
        assert sim.pending() == 0
        # A cancelled entry is skipped, not run: it is no event.
        assert sim.events_run == 1

    def test_schedule_us_handle_cancels_itself(self):
        """``schedule_us`` returns an entry that also answers
        ``cancel()``, for a caller that holds it but not the simulator."""
        sim = Simulator()
        fired = []
        sim.schedule_us(10, lambda: fired.append(1)).cancel()
        sim.run()
        assert fired == [] and sim.events_run == 0

    def test_entries_order_on_time_then_scheduling_order(self):
        """An entry is ``[time_ns, seq, fn]``; the heap orders on the
        two integers alone."""
        sim = Simulator()

        def noop():
            pass

        entries = [sim.schedule_at_ns(5, noop), sim.call_now(noop),
                   sim.schedule_us(0.005, noop)]
        assert [entry[:2] for entry in entries] == [[5, 0], [0, 1], [5, 2]]
        assert sorted(sim.queue) == [entries[1], entries[0], entries[2]]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_us(-1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_us(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at_ns(5, lambda: None)

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_us(10, lambda: fired.append(10))
        sim.schedule_us(100, lambda: fired.append(100))
        sim.run(until_us=50)
        assert fired == [10]
        sim.run()
        assert fired == [10, 100]

    def test_max_events_backstop(self):
        sim = Simulator(max_events=100)

        def loop():
            sim.schedule_us(1, loop)

        sim.schedule_us(1, loop)
        with pytest.raises(SimulationError):
            sim.run()

    def test_call_now_preserves_order(self):
        sim = Simulator()
        order = []
        sim.schedule_us(0, lambda: order.append("queued-first"))
        sim.call_now(lambda: order.append("called-second"))
        sim.run()
        assert order == ["queued-first", "called-second"]

    def test_integer_nanosecond_clock(self):
        sim = Simulator()
        sim.schedule_us(0.0001, lambda: None)  # rounds to 0.1ns -> 0ns
        sim.run()
        assert sim.now_ns == 0


class TestEthernet:
    def make(self):
        sim = Simulator()
        net = Ethernet(sim, CostModel.firefly())
        return sim, net

    def test_uncontended_delivery_time(self):
        sim, net = self.make()
        times = []
        net.send(0, 1, 1000, lambda: times.append(sim.now_us))
        sim.run()
        # 1000 bytes * 0.8 us/B + 800 us latency.
        assert times == [pytest.approx(1600)]

    def test_transmissions_serialize_on_shared_medium(self):
        """Two simultaneous sends: the second queues behind the first's
        transmission time; the fixed latency overlaps."""
        sim, net = self.make()
        times = {}
        net.send(0, 1, 1000, lambda: times.setdefault("a", sim.now_us))
        net.send(2, 3, 1000, lambda: times.setdefault("b", sim.now_us))
        sim.run()
        assert times["a"] == pytest.approx(1600)
        assert times["b"] == pytest.approx(2400)   # +800 of queueing

    def test_stats_accumulate(self):
        sim, net = self.make()
        net.send(0, 1, 1000, lambda: None)
        net.send(1, 0, 500, lambda: None)
        sim.run()
        assert net.stats.messages == 2
        assert net.stats.bytes == 1500
        assert net.stats.busy_us == pytest.approx(1200)
        assert net.stats.queueing_us == pytest.approx(800)

    def test_utilization(self):
        sim, net = self.make()
        net.send(0, 1, 1000, lambda: None)
        sim.run()
        assert net.stats.utilization(8000) == pytest.approx(0.1)

    def test_wire_frees_up_over_time(self):
        sim, net = self.make()
        times = []
        net.send(0, 1, 1000, lambda: times.append(sim.now_us))
        sim.run()
        # Much later, the wire is idle again: no queueing.
        sim.schedule_us(10_000 - sim.now_us, lambda: net.send(
            0, 1, 1000, lambda: times.append(sim.now_us)))
        sim.run()
        assert times[1] == pytest.approx(11_600)
