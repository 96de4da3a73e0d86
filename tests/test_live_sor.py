"""The SOR program's waits on the live runtime.

On the live runtime every wait of ``sor_main`` — for a neighbour's edge,
for the workers, for the iteration verdict — is a ``Suspend``, bounded by
``REPRO_PEER_TIMEOUT_S`` (``repro.recovery.config``): a section whose
neighbour falls silent raises a typed error instead of hanging.
"""

import time

import pytest

from repro.apps.sor import SorProblem
from repro.apps.sor.amber_sor import SorSection
from repro.errors import SynchronizationError
from repro.recovery.config import PEER_TIMEOUT_ENV, peer_timeout_s
from repro.runtime import Cluster
from repro.runtime.programtext import WakeupToken
from repro.sim import syscalls as sc

PROBLEM = SorProblem(rows=10, cols=24, iterations=6)


def silent_right_main(ctx, problem):
    """Section 0 of two, with one worker; section 1 (node 1) is never
    started, so its edge never arrives.  Returns what joining section
    0's coordinator, then its worker, gave back."""
    half = problem.cols // 2
    left = yield sc.New(SorSection, 0, 2, problem, 0, half, 1, 0.0, True,
                        on_node=0)
    right = yield sc.New(SorSection, 1, 2, problem, half,
                         problem.cols - half, 1, 0.0, True, on_node=1)
    yield sc.Invoke(left, "configure", None, None, right)
    worker = yield sc.Fork(left, "worker", 0)
    coordinator = yield sc.Fork(left, "run")
    outcomes = []
    for thread in (coordinator, worker):
        try:
            outcomes.append((yield sc.Join(thread)))
        except SynchronizationError as error:
            outcomes.append(str(error))
    return outcomes


class TestPeerWaits:
    """Both the edge wait and the worker's phase wait derive from
    ``REPRO_PEER_TIMEOUT_S``."""

    class RecordingCondition:
        """Stands in for a token's condition: records each wait's bound
        and reports it expired, so no wait is slept out."""

        def __init__(self):
            self.timeouts = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def wait_for(self, predicate, timeout):
            self.timeouts.append(timeout)
            return False

    def test_silent_neighbour_times_out_within_the_peer_budget(
            self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "0.5")     # bound: 4 x 0.5 / 2 s
        with Cluster(nodes=2) as cluster:
            started = time.monotonic()
            outcomes = cluster.run(silent_right_main, PROBLEM)
            elapsed = time.monotonic() - started
        # Each names what it waited for: an edge, then the next phase.
        assert outcomes == [f"Suspend({reason!r}): no Wakeup within 1 s"
                            for reason in ("sor-edges", "sor-phase")]
        assert 1.0 <= elapsed < 5.0

    @pytest.mark.parametrize("env,peer_s,suspend_s", [
        (None, 30.0, 60.0),        # the default knob
        ("0.5", 0.5, 1.0),
    ])
    def test_waits_follow_the_knob(self, monkeypatch, env, peer_s,
                                   suspend_s):
        if env is None:
            monkeypatch.delenv(PEER_TIMEOUT_ENV, raising=False)
        else:
            monkeypatch.setenv(PEER_TIMEOUT_ENV, env)
        assert peer_timeout_s() == peer_s
        token = WakeupToken((0, 1))
        token._changed = condition = self.RecordingCondition()
        with pytest.raises(SynchronizationError,
                           match=f"no Wakeup within {suspend_s:g} s"):
            token.suspend("edge")
        assert condition.timeouts == [suspend_s]
