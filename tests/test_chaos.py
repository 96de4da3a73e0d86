"""AmberChaos units: live fault decisions, at-most-once dedup, circuit
breakers, the one resend ladder, the reply slot, a move's drain, and
wait_reply timeout races.

The live *scenario* suite (``repro chaos``) exercises these end to end;
here each hardening layer is pinned down in isolation so a regression
names the broken layer, not just a wedged workload.  The request
lifecycle (dedup, ladder, breakers) reads no clock: its units pass
``now`` in.
"""

import contextlib
import itertools
import socket
import sys
import threading
import time

import pytest

from repro.core.address_space import AddressSpaceServer
from repro.errors import AmberError, NodeFailure
from repro.faults.live import (
    LiveFaultInjector,
    decide_frame,
    schedule_fingerprint,
)
from repro.faults.plan import FaultPlan, Partition
from repro.recovery.config import PEER_TIMEOUT_ENV
from repro.runtime import AmberObject, Cluster
from repro.runtime import messages as m
from repro.runtime import objects as runtime_objects
from repro.runtime.kernel import NodeKernel
from repro.runtime.lifecycle import (
    COOLDOWN_S,
    FAILURE_THRESHOLD,
    RTO_CAP_FACTOR,
    Dedup,
    Pending,
    PeerCircuits,
)
from repro.runtime.objtable import ObjectTable
from tests.live_helpers import move_behind_the_drivers_back


# ---------------------------------------------------------------------------
# Live fault decisions: pure, deterministic, rate-respecting
# ---------------------------------------------------------------------------


class TestDecideFrame:
    def test_pure_function_of_seed_src_dst_seq(self):
        plan = FaultPlan(seed=7, drop_rate=0.2, dup_rate=0.2,
                         delay_rate=0.2, delay_min_us=10.0,
                         delay_max_us=100.0)
        for seq in range(50):
            a = decide_frame(plan, 0, 1, seq)
            b = decide_frame(plan, 0, 1, seq)
            assert a == b

    def test_links_have_independent_streams(self):
        plan = FaultPlan(seed=3, drop_rate=0.5)
        fates_01 = [decide_frame(plan, 0, 1, s).drop for s in range(64)]
        fates_10 = [decide_frame(plan, 1, 0, s).drop for s in range(64)]
        assert fates_01 != fates_10

    def test_zero_rates_are_clean(self):
        plan = FaultPlan(seed=0)
        for seq in range(64):
            decision = decide_frame(plan, 0, 1, seq)
            assert not (decision.drop or decision.duplicate
                        or decision.reset or decision.delay_s)

    def test_partition_window_drops(self):
        plan = FaultPlan(seed=0, partitions=(
            Partition(nodes=(0,), start_us=0.0, end_us=1_000.0),))
        inside = decide_frame(plan, 0, 1, 0, now_us=500.0)
        outside = decide_frame(plan, 0, 1, 0, now_us=2_000.0)
        assert inside.drop and inside.partition
        assert not outside.drop

    def test_fingerprint_stable_and_seed_sensitive(self):
        kw = dict(drop_rate=0.1, dup_rate=0.1)
        assert schedule_fingerprint(FaultPlan(seed=1, **kw), 3) \
            == schedule_fingerprint(FaultPlan(seed=1, **kw), 3)
        assert schedule_fingerprint(FaultPlan(seed=1, **kw), 3) \
            != schedule_fingerprint(FaultPlan(seed=2, **kw), 3)

    def test_injector_counts_fates(self):
        plan = FaultPlan(seed=5, drop_rate=0.3, dup_rate=0.3)
        injector = LiveFaultInjector(plan, node=0)
        for _ in range(200):
            injector.on_send(1, object())
        stats = injector.stats
        assert stats["chaos_frames"] == 200
        assert stats["chaos_dropped"] > 0
        assert stats["chaos_duplicated"] > 0
        assert stats["chaos_dropped"] + stats["chaos_duplicated"] < 200


# ---------------------------------------------------------------------------
# Receive-side at-most-once dedup
# ---------------------------------------------------------------------------


class TestDedup:
    """Keys are ``(origin, request id)``, as the kernel's are; one
    origin's ids are consecutive from wherever its kernel started."""

    def test_claim_then_replay(self):
        dedup = Dedup()
        assert dedup.claim(("a", 1)) == ("new", None)
        assert dedup.claim(("a", 1)) == ("in_progress", None)
        dedup.complete(("a", 1), "cached-reply")
        assert dedup.claim(("a", 1)) == ("replay", "cached-reply")

    def test_peek_does_not_claim(self):
        dedup = Dedup()
        assert dedup.claim(("a", 1), take=False) == ("absent", None)
        assert dedup.claim(("a", 1)) == ("new", None)
        assert dedup.claim(("a", 1), take=False) == ("in_progress", None)
        dedup.complete(("a", 1), 42)
        assert dedup.claim(("a", 1), take=False) == ("replay", 42)

    def test_distinct_origins_do_not_collide(self):
        dedup = Dedup()
        assert dedup.claim((1, 99)) == ("new", None)
        assert dedup.claim((2, 99)) == ("new", None)
        dedup.complete((1, 99), "one")
        assert dedup.claim((2, 99), take=False) == ("in_progress", None)
        dedup.complete((2, 99), "two")
        assert dedup.claim((1, 99)) == ("replay", "one")
        assert dedup.claim((2, 99)) == ("replay", "two")

    def test_bounded_fifo_eviction(self):
        dedup = Dedup(capacity=4)
        for i in range(8):
            dedup.claim(("n", i))
            dedup.complete(("n", i), i)
        assert len(dedup) == 4
        assert dedup.claim(("n", 7)) == ("replay", 7)
        # The oldest completions were evicted: a duplicate of one now
        # re-executes (documented capacity/at-most-once trade-off).
        assert dedup.claim(("n", 0)) == ("new", None)

    def test_capacity_is_per_origin_whatever_its_base(self):
        dedup = Dedup(capacity=4)
        bases = {1: 0, 2: (1 << 61) + 3}    # the ring indexes by sequence
        for origin, base in bases.items():
            for i in range(6):
                dedup.claim((origin, base + i))
                dedup.complete((origin, base + i), (origin, i))
        assert len(dedup) == 8
        for origin, base in bases.items():
            assert dedup.claim((origin, base + 5)) == \
                ("replay", (origin, 5))
            assert dedup.claim((origin, base + 2)) == \
                ("replay", (origin, 2))
            assert dedup.claim((origin, base + 1)) == ("new", None)

    def test_in_progress_is_never_evicted(self):
        """However many later requests are admitted and answered, the
        re-sent twin of one still executing must not run again."""
        dedup = Dedup(capacity=2)
        a, b, c, d, e, f, g = ((0, 40 + i) for i in range(7))
        for key in (a, b, c):
            assert dedup.claim(key) == ("new", None)
        assert dedup.claim(a) == ("in_progress", None)
        for key in (b, c, d, e, f, g):
            dedup.claim(key)
            dedup.complete(key, ("reply", key))
        assert dedup.claim(a, take=False) == ("in_progress", None)
        assert dedup.claim(a) == ("in_progress", None)
        dedup.complete(a, "A")
        assert dedup.claim(a) == ("replay", "A")
        assert len(dedup) == 2

    def test_a_full_ring_does_not_grow(self):
        """Bounded state: once an origin's ring exists, ten times its
        capacity in further completions allocate nothing that stays."""
        capacity = 64
        dedup = Dedup(capacity=capacity)

        def footprint():
            return (sys.getsizeof(dedup._rings)
                    + sum(sys.getsizeof(part)
                          for ring in dedup._rings.values()
                          for part in (ring, *ring))
                    + sys.getsizeof(dedup._executing))

        def run(start, count):
            for request_id in range(start, start + count):
                for origin in (1, 2):
                    assert dedup.claim((origin, request_id)) == \
                        ("new", None)
                    dedup.complete((origin, request_id), "reply")

        run(0, capacity)
        full = footprint()
        assert len(dedup) == 2 * capacity
        run(capacity, 10 * capacity)
        assert footprint() == full
        assert len(dedup) == 2 * capacity
        assert all(len(part) == capacity
                   for ring in dedup._rings.values() for part in ring)


# ---------------------------------------------------------------------------
# Per-peer circuit breakers
# ---------------------------------------------------------------------------


class TestPeerCircuits:
    """The breaker state machine, at an explicit ``now``."""

    def _opened(self, node, now=10.0):
        circuits = PeerCircuits(0)
        for _ in range(FAILURE_THRESHOLD):
            circuits.record_failure(node, now)
        return circuits

    def test_opens_after_threshold(self):
        circuits = PeerCircuits(0)
        for _ in range(FAILURE_THRESHOLD - 1):
            circuits.record_failure(1, 10.0)
        assert circuits.check(1, False, 10.0) == "closed"
        circuits.record_failure(1, 10.0)
        assert circuits.check(1, False, 10.0) == "open"
        assert circuits.stats["circuit_opens"] == 1

    def test_success_closes(self):
        circuits = self._opened(2)
        assert circuits.check(2, False, 10.0) == "open"
        circuits.record_success(2)
        assert circuits.check(2, False, 10.0) == "closed"
        assert circuits.stats["circuit_closes"] == 1

    def test_failures_must_be_consecutive(self):
        circuits = PeerCircuits(0)
        for _ in range(FAILURE_THRESHOLD - 1):
            circuits.record_failure(1, 10.0)
        circuits.record_success(1)
        circuits.record_failure(1, 10.0)
        assert circuits.check(1, False, 10.0) == "closed"

    def test_suspicion_forces_open_and_retraction_probes(self):
        circuits = PeerCircuits(0)
        assert circuits.check(3, True, 5.0) == "open"
        assert circuits.check(3, True, 50.0) == "open"
        # Retraction (peer no longer suspected): an immediate probe is
        # allowed rather than waiting out the cooldown.
        assert circuits.check(3, False, 50.0) == "probe"

    def test_probe_after_cooldown(self):
        circuits = self._opened(4)
        assert circuits.check(4, False, 10.0 + 0.9 * COOLDOWN_S) == "open"
        assert circuits.check(4, False, 10.0 + COOLDOWN_S) == "probe"
        # While one probe is in flight others still fail fast.
        assert circuits.check(4, False, 10.0 + 2 * COOLDOWN_S) == "open"
        circuits.record_success(4)
        assert circuits.check(4, False, 10.0 + 2 * COOLDOWN_S) == "closed"
        assert circuits.stats["circuit_probes"] == 1

    def test_a_failed_probe_restarts_the_cooldown(self):
        circuits = self._opened(4)
        probe_at = 10.0 + COOLDOWN_S
        assert circuits.check(4, False, probe_at) == "probe"
        circuits.record_failure(4, probe_at + 0.5)
        assert circuits.check(4, False, probe_at + 0.5 + 0.9 * COOLDOWN_S) \
            == "open"
        assert circuits.check(4, False, probe_at + 0.5 + COOLDOWN_S) == \
            "probe"
        assert circuits.stats["circuit_opens"] == 1

    def test_a_probe_never_answered_frees_its_slot(self):
        circuits = self._opened(4)
        probe_at = 10.0 + COOLDOWN_S
        assert circuits.check(4, False, probe_at) == "probe"
        assert circuits.check(4, False, probe_at + 2.9 * COOLDOWN_S) == "open"
        assert circuits.check(4, False, probe_at + 3 * COOLDOWN_S) == "probe"

    def test_route_goes_home_around_an_open_breaker_or_fails_fast(self):
        circuits = self._opened(4)
        assert circuits.route(5, set(), 10.0) == 5
        assert circuits.route(4, set(), 10.0, lambda: 2) == 2
        with pytest.raises(NodeFailure, match="node 4 is unavailable"):
            circuits.route(4, set(), 10.0)          # a fixed target
        with pytest.raises(NodeFailure):
            circuits.route(4, set(), 10.0, lambda: 0)   # home is here
        with pytest.raises(NodeFailure, match="suspected dead"):
            circuits.route(4, {4, 2}, 10.0, lambda: 2)
        assert circuits.stats["circuit_reroutes"] == 1
        assert circuits.stats["circuit_fast_fails"] == 3

    def test_deadline_verdict(self):
        circuits = PeerCircuits(0)
        entry = _pending(0.0)
        assert isinstance(circuits.deadline_verdict(entry, 1.0, {4}, 1.0),
                          TimeoutError)        # never sent
        entry.last_target = 4
        verdicts = [circuits.deadline_verdict(entry, 1.0, suspected, 1.0)
                    for suspected in (set(), set(), {4})]
        assert [type(verdict) for verdict in verdicts] == \
            [TimeoutError, TimeoutError, NodeFailure]
        assert "within 1.0s" in str(verdicts[0])
        # Each verdict was a breaker failure.
        assert circuits.check(4, False, 1.0) == "open"


def _pending(now, joinable=True, on_reply=lambda outcome: None):
    """A request on object 0x10 made at ``now``, with a slot to join it
    by or (``joinable`` false) the continuation ``on_reply``."""
    return Pending(m.InvokeMsg(1, 0, 0x10, "poke", (), {}, (0,)), None,
                   0x10, None if joinable else on_reply, now)


class TestLadder:
    """The resend ladder, at an explicit ``now``: 3 s peer timeout, so
    a 12 s reply ceiling and a 0.5 s base timeout."""

    @pytest.fixture(autouse=True)
    def _timeout(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")

    def test_doubling_with_cap_and_jitter_bounds(self):
        for jitter in (0.0, 0.5, 0.999):
            entry = _pending(100.0)
            assert (entry.reply_s, entry.rto_s, entry.resend_at,
                    entry.give_up_at) == (12.0, 0.5, 100.5, 112.0)
            cap = entry.rto_base_s * RTO_CAP_FACTOR
            now = 100.0
            for _ in range(6):
                doubled = min(2 * entry.rto_s, cap)
                entry.backoff(now, jitter)
                assert doubled <= entry.rto_s < 1.25 * doubled
                assert entry.rto_s == doubled * (1 + 0.25 * jitter)
                assert entry.resend_at == now + entry.rto_s
                now = entry.resend_at
            assert cap <= entry.rto_s < 1.25 * cap

    def test_a_due_request_is_taken_once(self):
        entry = _pending(0.0)
        assert not entry.take_due(0.4)
        assert entry.take_due(0.5)
        assert not entry.take_due(5.0)      # off the ladder ...
        entry.backoff(5.0, 0.0)
        assert entry.take_due(6.0)          # ... until it is back on

    def test_no_resend_past_give_up_at(self):
        entry = _pending(0.0)
        entry.resend_at = 11.0
        assert not entry.take_due(12.0)
        assert not entry.expired(12.0)      # a box waits for a join

    def test_a_join_rearms_the_ladder(self):
        entry = _pending(0.0)
        entry.resend_at = 11.0
        assert not entry.take_due(20.0)
        assert entry.join(20.0, timeout=0.5) == 0.5
        assert entry.give_up_at == 20.5
        assert entry.take_due(20.0)
        with pytest.raises(AmberError, match="already joined"):
            entry.join(20.0)

    def test_a_join_never_shortens_the_deadline(self):
        entry = _pending(0.0)
        assert entry.join(1.0, timeout=-3) == 0.0
        assert entry.give_up_at == 12.0

    def test_a_continuation_never_joined_gets_its_verdict(self):
        entry = _pending(0.0, joinable=False)
        assert not entry.expired(11.9)
        entry.resend_at = 11.0
        assert entry.take_due(12.0)         # due its verdict ...
        assert entry.expired(12.0)          # ... not a re-send


class TestReplySlot:
    """A joinable entry keeps its outcome in a slot: a delivery stores
    it and wakes a joiner only if one is parked; a join finds it there
    or parks on a lock of its own."""

    def test_an_outcome_delivered_before_the_join_is_read_at_once(self):
        entry = _pending(0.0)
        entry.deliver((True, 7, None))
        assert entry.wait(60.0) == (True, 7, None)
        assert entry.waiter is None         # never parked

    def test_a_parked_joiner_is_woken_by_a_delivery(self):
        entry = _pending(0.0)
        got = []
        joiner = threading.Thread(target=lambda: got.append(entry.wait(60.0)))
        joiner.start()
        deadline = time.monotonic() + 10
        while entry.waiter is None:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        entry.deliver((False, None, KeyError("k")))
        joiner.join(timeout=10)
        assert not joiner.is_alive()
        assert got[0][0] is False and isinstance(got[0][2], KeyError)

    def test_a_deadline_with_no_delivery_returns_no_outcome(self):
        entry = _pending(0.0)
        assert entry.wait(0.02) is None
        entry.deliver((True, 1, None))      # a late one: nobody reads it
        assert entry.outcome == (True, 1, None)

    def test_a_continuation_never_touches_the_slot(self):
        seen = []
        entry = _pending(0.0, joinable=False, on_reply=seen.append)
        entry.deliver((True, 3, None))
        assert seen == [(True, 3, None)]
        assert entry.outcome is None and entry.waiter is None

    def test_many_deliverers_each_joiner_gets_its_own_outcome_once(self):
        """Joiners and deliverers race on every entry.  A lost wakeup
        parks a joiner until its deadline: ``None`` here, or a hang."""
        entries = [_pending(0.0) for _ in range(4000)]
        got = [None] * len(entries)

        def join(start):
            for index in range(start, len(entries), 4):
                got[index] = entries[index].wait(20.0)

        def deliver(start):
            for index in range(start, len(entries), 3):
                entries[index].deliver((True, index, None))

        threads = [threading.Thread(target=join, args=(start,))
                   for start in range(4)]
        threads += [threading.Thread(target=deliver, args=(start,))
                    for start in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads between bytecodes
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [(True, index, None) for index in range(len(entries))]

    def test_the_kernels_deadline_verdict_is_unchanged(self, monkeypatch):
        """No reply within the join's deadline: out of ``_pending``, no
        longer held by the peer, a typed verdict — NodeFailure once the
        detector suspects the peer — and a late reply finds nothing."""

        class Detector:
            suspected = frozenset()

            def failed_peers(self):
                return self.suspected

        detector = Detector()
        kernel, _ = _stubbed_kernel(monkeypatch, detector)
        try:
            quiet = kernel.start(2, None, m.ControlMsg, -1, "stats")
            with pytest.raises(TimeoutError, match="no reply to ControlMsg"):
                kernel.wait_reply(quiet, timeout=0.02)
            suspect = kernel.start(2, None, m.ControlMsg, -1, "stats")
            detector.suspected = frozenset({2})
            with pytest.raises(NodeFailure, match="suspects it dead"):
                kernel.wait_reply(suspect, timeout=0.02)
            assert not kernel._pending and not kernel._unanswered[2]
            kernel._on_message(
                2, m.ResultMsg(quiet.message.request_id, True, 1))
            assert quiet.outcome is None
        finally:
            kernel._resender_stop.set()
            kernel._workers.close()


def _stubbed_kernel(monkeypatch, coordinator_client=None):
    """A lone node 1 whose mesh records what it is asked to post; the
    process kernel is restored after the test."""
    monkeypatch.setattr(runtime_objects, "_process_kernel",
                        runtime_objects._process_kernel)
    kernel = NodeKernel(1, coordinator_client)
    sent = []

    class StubMesh:
        def post(self, node, message):
            sent.append((node, message))
            return True

        def flush(self, node):
            pass

    kernel.mesh.close()
    kernel.mesh = StubMesh()
    return kernel, sent


class Bumper(AmberObject):
    def __init__(self):
        self.bumps = 0

    def bump(self, gate=None):
        if gate is not None:
            gate.wait(30)
        self.bumps += 1
        return self.bumps


class TestDrain:
    """A move drains its object's invocations: ``execute`` wakes the
    drain only while one waits."""

    @pytest.fixture
    def table(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "10")
        table = ObjectTable(1, AddressSpaceServer(), dict.fromkeys(
            ("invocations_executed", "hints"), 0))
        notified = []
        wake = table._drained.notify_all
        table._drained.notify_all = lambda: (notified.append(1), wake())
        table.notified = notified
        return table

    def test_execute_with_no_drain_waiting_notifies_nobody(self, table):
        obj = table.objects[table.create(Bumper, (), {})]
        assert [table.execute(obj, "bump", (), {}) for _ in range(3)] == \
            [1, 2, 3]
        assert table.notified == []

    def test_a_drain_wakes_when_the_last_invocation_ends(self, table):
        vaddr = table.create(Bumper, (), {})
        obj = table.objects[vaddr]
        gates = [threading.Event() for _ in range(3)]
        running = [threading.Thread(
            target=table.execute, args=(obj, "bump", (gate,), {}))
            for gate in gates]
        for thread in running:
            thread.start()
        deadline = time.monotonic() + 10
        while table._bind.get(vaddr, 0) < len(gates):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        taken = []
        mover = threading.Thread(target=lambda: taken.append(
            table.take_group(vaddr, 2, may_wait=True)))
        mover.start()
        while table._draining == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        for gate, thread in zip(gates, running):
            assert not taken
            gate.set()
            thread.join(timeout=10)
        mover.join(timeout=10)
        assert taken and taken[0][0] == {vaddr: obj}
        assert obj.bumps == 3 and table._draining == 0
        assert table.notified == [1]       # the last one only


# ---------------------------------------------------------------------------
# A reply from a peer closes its breaker
# ---------------------------------------------------------------------------


class TestAnyReplyClosesTheBreaker:
    """Regression: only an ``ok`` reply that a joiner read closed a
    breaker, so a half-open probe answered with an error, or sent as a
    fork nobody joins, left it open: calls failed fast for up to three
    cooldowns."""

    def _open_with_cooldown_served(self, kernel):
        for _ in range(FAILURE_THRESHOLD):
            kernel._circuits.record_failure(1, time.monotonic() - COOLDOWN_S)

    def test_a_probe_answered_with_an_error(self, cluster):
        handle = cluster.create(Napper, node=1)
        self._open_with_cooldown_served(cluster.kernel)
        with pytest.raises(ValueError):
            cluster.call(handle, "sulk")
        assert cluster.call(handle, "poke") == "ok"

    def test_a_probe_sent_as_a_fork_nobody_joins(self, cluster):
        handle = cluster.create(Napper, node=1)
        kernel = cluster.kernel
        self._open_with_cooldown_served(kernel)
        probe = cluster.fork(handle, "poke")
        deadline = time.monotonic() + 10
        while probe._entry.message.request_id in kernel._pending:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert cluster.call(handle, "poke") == "ok"

    def test_a_probe_forwarded_by_its_target(self):
        """The probe's target relays it to the object's new holder, whose
        reply closes the relay's breaker too."""
        with Cluster(nodes=3) as cluster:
            moved = cluster.create(Napper, node=1)
            stays = cluster.create(Napper, node=1)
            move_behind_the_drivers_back(cluster, moved, 2)
            forwards = cluster.node_stats(1)["forwards"]
            self._open_with_cooldown_served(cluster.kernel)
            assert cluster.call(moved, "poke") == "ok"
            assert cluster.call(stays, "poke") == "ok"
            assert cluster.node_stats(1)["forwards"] == forwards + 1


# ---------------------------------------------------------------------------
# Live kernel: wait_reply races + the resend ladder
# ---------------------------------------------------------------------------


class Napper(AmberObject):
    def __init__(self):
        self.naps = 0

    def nap(self, seconds):
        self.naps += 1
        time.sleep(seconds)
        return self.naps

    def poke(self):
        return "ok"

    def sulk(self):
        raise ValueError("sulking")

    def count(self):
        return self.naps


@contextlib.contextmanager
def _losing_frames(kernel, lost):
    """``kernel.mesh.post`` — the one seam every outbound frame passes,
    written at once or not — swallows ``nap`` invocations while
    ``lost(swallowed so far)`` says so; yields the swallowed frames."""
    mesh_post = kernel.mesh.post
    dropped = []

    def lossy_post(node, message):
        if getattr(message, "method", None) == "nap" and lost(dropped):
            dropped.append(message)
            return False        # swallowed: never reaches the outbox
        return mesh_post(node, message)

    kernel.mesh.post = lossy_post
    try:
        yield dropped
    finally:
        kernel.mesh.post = mesh_post


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=2) as c:
        yield c


class TestWaitReplyRaces:
    def test_timeout_leaves_no_pending_leak(self, cluster):
        handle = cluster.create(Napper, node=1)
        thread = cluster.fork(handle, "nap", 0.3)
        with pytest.raises(TimeoutError):
            thread.join(timeout=0.05)
        assert thread._entry.message.request_id not in cluster.kernel._pending
        # The late ResultMsg lands on an unknown request id and is
        # dropped; the kernel stays healthy for new traffic.
        assert cluster.call(handle, "poke") == "ok"
        time.sleep(0.4)
        assert cluster.call(handle, "poke") == "ok"

    def test_second_join_is_a_typed_error(self, cluster):
        handle = cluster.create(Napper, node=1)
        thread = cluster.fork(handle, "nap", 0.5)
        with pytest.raises(TimeoutError):
            thread.join(timeout=0.05)
        with pytest.raises(AmberError):
            thread.join(timeout=0.05)

    def test_join_after_completion_returns_result(self, cluster):
        handle = cluster.create(Napper, node=1)
        thread = cluster.fork(handle, "nap", 0.0)
        time.sleep(0.3)
        assert isinstance(thread.join(timeout=5), int)


class TestDetachedResender:
    def test_dropped_fork_frame_recovers_without_join(self, cluster):
        """A fork whose very first frame is lost must still execute —
        the resender retransmits it even if nobody joins."""
        handle = cluster.create(Napper, node=1)
        assert cluster.call(handle, "count") == 0
        kernel = cluster.kernel
        resends = kernel.stats["resends"]
        with _losing_frames(kernel, lambda seen: not seen) as dropped:
            thread = cluster.fork(handle, "nap", 0.0)
        assert dropped, "the fork frame should have been dropped"
        # No join: only the resender can recover this.
        deadline = time.monotonic() + 30
        while cluster.call(handle, "count") == 0:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert kernel.stats["resends"] >= resends + 1
        assert thread.join(timeout=10) == 1

    def test_detached_entry_cleared_after_reply(self, cluster):
        handle = cluster.create(Napper, node=1)
        thread = cluster.fork(handle, "nap", 0.0)
        thread.join(timeout=10)
        assert thread._entry.message.request_id not in cluster.kernel._pending


class TestResendLadder:
    """Joined or not, a request is re-sent by the same ladder."""

    def test_synchronous_call_recovers_from_a_dropped_frame(
            self, cluster, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")   # RTO base 0.5 s
        handle = cluster.create(Napper, node=1)
        kernel = cluster.kernel
        resends = kernel.stats["resends"]
        with _losing_frames(kernel, lambda seen: not seen) as dropped:
            assert cluster.call(handle, "nap", 0.0) == 1
        assert len(dropped) == 1
        assert kernel.stats["resends"] >= resends + 1
        assert cluster.call(handle, "count") == 1      # executed once


class TestPendingLifetime:
    """``_pending`` holds the requests without an outcome, nothing
    else: a reply takes its entry out, joined or not."""

    def test_answered_unjoined_forks_leave_nothing_pending(self, cluster):
        handle = cluster.create(Adder, node=1)
        kernel = cluster.kernel
        threads = [cluster.fork(handle, "add", 1) for _ in range(2000)]
        deadline = time.monotonic() + 60
        while kernel._pending:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert len(kernel._pending) == 0
        assert not kernel._unanswered[1]
        # Each reply waits in its handle for the one join it allows.
        assert sorted(thread.join(timeout=15) for thread in threads) == \
            list(range(1, 2001))
        with pytest.raises(AmberError):
            threads[0].join(timeout=1)

    def test_rerouted_resend_racing_its_reply_leaves_no_peer_busy(
            self, monkeypatch):
        """Driven by hand: the reply lands after the re-send has been
        routed to a new peer and before it is recorded there.  The id
        must not stay in that peer's unanswered set — nothing would ever
        take it out, and every fork to the peer would be posted, never
        written inline."""
        kernel, sent = _stubbed_kernel(monkeypatch)
        try:
            targets = iter((2, 3))

            def route(_entry):
                target = next(targets)
                if target == 3:
                    kernel._on_message(
                        2, m.ResultMsg(entry.message.request_id, True, 7))
                return target

            kernel._route = route
            entry = kernel.start(None, 0x1100000, m.InvokeMsg, 0x1100000,
                                 "poke", (), {}, (1,))
            request_id = entry.message.request_id
            assert kernel._unanswered[2] == {request_id}
            assert request_id in kernel._pending
            kernel._resend(entry)
            assert request_id not in kernel._pending
            assert not kernel._unanswered[2]
            assert not kernel._unanswered[3]
            # Answered: nothing more was transmitted.
            assert sent == [(2, entry.message)]
            assert kernel.wait_reply(entry, timeout=1) == 7
        finally:
            kernel._resender_stop.set()
            kernel._workers.close()


class TestTypedFailureFast:
    def test_killed_node_gives_typed_bounded_failure(self, monkeypatch):
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "2")
        with Cluster(nodes=2) as cluster:
            handle = cluster.create(Napper, node=1)
            assert cluster.call(handle, "poke") == "ok"
            cluster.kill_node(1)
            t0 = time.monotonic()
            with pytest.raises((NodeFailure, TimeoutError)):
                cluster.call(handle, "poke")
            assert time.monotonic() - t0 < 9.0   # reply deadline + slack
            # Breaker open now: the next failure is near-instant.
            t1 = time.monotonic()
            with pytest.raises((NodeFailure, TimeoutError)):
                cluster.call(handle, "poke")
            assert time.monotonic() - t1 < 1.0


class TestPostedFrameToADeadPeer:
    def test_failed_batch_feeds_the_breaker_once_and_join_ends_typed(
            self, monkeypatch):
        """A fork posted for a peer that is down: the worker that
        flushes it fails its whole ladder, which is one breaker failure
        for the batch, and the request still ends in a typed verdict."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")   # RTO base 0.5 s
        monkeypatch.setattr("repro.runtime.transport.SEND_RETRIES", 1)
        monkeypatch.setattr("repro.runtime.transport.BACKOFF_BASE_S", 0.01)
        with Cluster(nodes=2) as cluster:
            handle = cluster.create(Napper, node=1)
            assert cluster.call(handle, "poke") == "ok"
            kernel = cluster.kernel
            # Node 1 is unreachable from here on: nothing listens at
            # the address the directory now gives for it.
            with socket.socket() as unused:
                unused.bind(("127.0.0.1", 0))
                dead_address = unused.getsockname()
            kernel.mesh.set_directory({1: dead_address})
            t0 = time.monotonic()
            written = cluster.fork(handle, "nap", 0.0)  # idle: inline
            assert kernel.mesh.stats["dropped_frames"] == 1
            posted = cluster.fork(handle, "nap", 0.0)   # busy: posted
            while kernel.mesh.stats["dropped_frames"] < 2:
                assert time.monotonic() - t0 < 0.4      # before any RTO
                time.sleep(0.002)
            # Two failed batches, two failures: one each.
            assert kernel._circuits._peers[1].failures == 2
            assert kernel.stats["resends"] == 0
            assert kernel.mesh.stats["writes"] >= 2
            for thread in (posted, written):
                t1 = time.monotonic()
                with pytest.raises((NodeFailure, TimeoutError)):
                    thread.join(timeout=2)
                assert time.monotonic() - t1 < 4.0


class Adder(AmberObject):
    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += n
        return self.total

    def get(self):
        return self.total


class Poker(AmberObject):
    def poke(self, adder, n):
        return adder.add(n)         # a request issued by this node


class TestRequestIdsAcrossIncarnations:
    def test_two_kernels_of_one_node_draw_disjoint_ids(self, monkeypatch):
        # NodeKernel installs itself as the process kernel: put back
        # whatever was there (the module's cluster) afterwards.
        monkeypatch.setattr(runtime_objects, "_process_kernel",
                            runtime_objects._process_kernel)
        draws = []
        for _ in range(2):
            kernel = NodeKernel(1, None)
            try:
                draws.append(list(itertools.islice(kernel.request_ids,
                                                   100_000)))
            finally:
                kernel.shutdown()
        for ids in draws:
            assert ids == list(range(ids[0], ids[0] + len(ids)))
            assert 0 <= ids[0] and ids[-1] < 2 ** 63
        assert set(draws[0]).isdisjoint(draws[1])

    def test_restarted_node_is_not_answered_from_its_predecessors_cache(
            self, monkeypatch):
        """Regression: ids restarted at the node id in a replacement
        process, so its first request matched the ``(origin, id)`` a
        survivor still cached a reply for — ``poke(+10)`` returned the
        old 1 and the add never ran."""
        monkeypatch.setenv(PEER_TIMEOUT_ENV, "3")   # RTO base 0.5 s
        with Cluster(nodes=3) as cluster:
            adder = cluster.create(Adder, node=2)
            poker = cluster.create(Poker, node=1)
            assert cluster.call(poker, "poke", adder, 1) == 1
            cluster.kill_node(1)
            cluster.restart_node(1)
            deadline = time.monotonic() + 30
            while True:
                try:
                    poker = cluster.create(Poker, node=1)
                    break
                except (NodeFailure, TimeoutError):
                    assert time.monotonic() < deadline
                    time.sleep(0.1)
            assert cluster.call(poker, "poke", adder, 10) == 11
            assert cluster.call(adder, "get") == 11
