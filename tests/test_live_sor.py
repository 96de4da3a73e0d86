"""Integration test: the paper's application on the live runtime.

Red/Black SOR across real OS processes, with edge columns shipped as
invocations and a distributed barrier per iteration — bitwise identical
to the sequential solver.
"""

import time

import numpy as np
import pytest

from repro.apps.sor import SorProblem, run_sequential_sor
from repro.apps.sor.grid import BLACK
from repro.apps.sor.live_sor import LiveSorSection, run_live_sor
from repro.recovery.config import peer_timeout_s
from repro.runtime import Cluster

PROBLEM = SorProblem(rows=10, cols=24, iterations=6)


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=3) as c:
        yield c


class TestLiveSor:
    def test_bitwise_identical_to_sequential(self, cluster):
        sequential = run_sequential_sor(PROBLEM)
        grid = run_live_sor(PROBLEM, sections=3, cluster=cluster)
        assert np.array_equal(sequential.grid, grid)

    def test_more_sections_than_nodes(self, cluster):
        sequential = run_sequential_sor(PROBLEM)
        grid = run_live_sor(PROBLEM, sections=5, cluster=cluster)
        assert np.array_equal(sequential.grid, grid)

    def test_single_section_degenerate(self, cluster):
        sequential = run_sequential_sor(PROBLEM)
        grid = run_live_sor(PROBLEM, sections=1, cluster=cluster)
        assert np.array_equal(sequential.grid, grid)

    def test_uneven_columns(self, cluster):
        problem = SorProblem(rows=8, cols=23, iterations=4)
        sequential = run_sequential_sor(problem)
        grid = run_live_sor(problem, sections=3, cluster=cluster)
        assert np.array_equal(sequential.grid, grid)


class TestPeerWaits:
    """Both waits of a section derive from ``REPRO_PEER_TIMEOUT_S``
    (``repro.recovery.config``): no neighbour, no cluster needed."""

    class RecordingBarrier:
        def __init__(self):
            self.timeouts = []

        def wait(self, timeout):
            self.timeouts.append(timeout)

    def test_silent_neighbour_times_out_within_the_peer_budget(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_PEER_TIMEOUT_S", "0.5")
        section = LiveSorSection(0, PROBLEM, 0, 8)
        section.configure(None, object(), None)   # right never sends
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="never arrived"):
            section._await_edges(0, BLACK)
        assert 0.5 <= time.monotonic() - started < 5.0

    @pytest.mark.parametrize("env,edge_s,barrier_s", [
        (None, 30.0, 60.0),        # the values the literals had
        ("0.5", 0.5, 1.0),
    ])
    def test_waits_follow_the_knob(self, monkeypatch, env, edge_s,
                                   barrier_s):
        if env is None:
            monkeypatch.delenv("REPRO_PEER_TIMEOUT_S", raising=False)
        else:
            monkeypatch.setenv("REPRO_PEER_TIMEOUT_S", env)
        assert peer_timeout_s() == edge_s
        section = LiveSorSection(0, PROBLEM, 0, PROBLEM.cols)
        barrier = self.RecordingBarrier()
        section.configure(None, None, barrier)
        section.run_iterations()
        assert barrier.timeouts == [barrier_s] * PROBLEM.iterations
