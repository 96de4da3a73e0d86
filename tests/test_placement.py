"""Tests for the placement advisors (the paper's "higher-level object
placement software")."""

import pytest

from repro.analyze.flow import Hint, PlacementHints, load_hints
from repro.analyze.flow.hints import HINTS_SCHEMA
from repro.placement import (
    AffinityRebalancer,
    HintedPlacement,
    PlacementPolicy,
    SpreadPlacement,
)
from repro.sim.objects import SimObject
from repro.sim.program import run_program
from repro.sim.syscalls import (
    Attach,
    Charge,
    Compute,
    Fork,
    Invoke,
    Join,
    MoveTo,
    New,
    SetImmutable,
)
from tests.helpers import Cell


class Client(SimObject):
    def pound(self, ctx, target, times):
        for _ in range(times):
            yield Invoke(target, "add", 1)
        return times


class TestAffinityRebalancer:
    def run_scenario(self, accesses_from_node_2=12, local_accesses=0):
        def main(ctx):
            cell = yield New(Cell)          # lives on node 0
            client = yield New(Client, on_node=2)
            for _ in range(local_accesses):
                yield Invoke(cell, "add", 1)
            worker = yield Fork(client, "pound", cell,
                                accesses_from_node_2)
            yield Join(worker)
            rebalancer = AffinityRebalancer()
            return rebalancer.suggest(ctx.cluster), cell

        return run_program(main, nodes=3, cpus_per_node=2).value

    def test_suggests_move_toward_heavy_user(self):
        suggestions, cell = self.run_scenario()
        targets = {s.obj.vaddr: s.dest for s in suggestions}
        assert targets.get(cell.vaddr) == 2

    def test_gain_reflects_access_counts(self):
        suggestions, cell = self.run_scenario(accesses_from_node_2=12,
                                              local_accesses=3)
        by_vaddr = {s.obj.vaddr: s for s in suggestions}
        suggestion = by_vaddr[cell.vaddr]
        assert suggestion.remote_count == 12
        assert suggestion.local_count == 3
        assert suggestion.gain == 9

    def test_respects_min_accesses(self):
        def main(ctx):
            cell = yield New(Cell)
            client = yield New(Client, on_node=1)
            worker = yield Fork(client, "pound", cell, 2)
            yield Join(worker)
            return AffinityRebalancer(min_accesses=4).suggest(ctx.cluster)

        suggestions = run_program(main, nodes=2, cpus_per_node=2).value
        assert suggestions == []

    def test_local_majority_not_moved(self):
        suggestions, cell = self.run_scenario(accesses_from_node_2=3,
                                              local_accesses=10)
        assert all(s.obj.vaddr != cell.vaddr for s in suggestions)

    def test_immutables_skipped(self):
        def main(ctx):
            cell = yield New(Cell)
            yield SetImmutable(cell)
            client = yield New(Client, on_node=1)
            worker = yield Fork(client, "pound", cell, 8)
            yield Join(worker)
            return AffinityRebalancer().suggest(ctx.cluster)

        # pound mutates, which immutability forbids morally, but the
        # advisor's skip is what is under test here.
        suggestions = run_program(main, nodes=2, cpus_per_node=2).value
        assert suggestions == []

    def test_one_suggestion_per_attachment_group(self):
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield Attach(a, b)
            client = yield New(Client, on_node=1)
            worker_a = yield Fork(client, "pound", a, 8)
            worker_b = yield Fork(client, "pound", b, 8)
            yield Join(worker_a)
            yield Join(worker_b)
            return AffinityRebalancer().suggest(ctx.cluster), a, b

        suggestions, a, b = run_program(main, nodes=2,
                                        cpus_per_node=2).value
        group_hits = [s for s in suggestions
                      if s.obj.vaddr in (a.vaddr, b.vaddr)]
        assert len(group_hits) == 1

    def test_a_member_that_does_not_qualify_hides_no_partner(self):
        """``a`` has too few accesses to qualify; its partner ``b``,
        hammered from node 2, still gets the group's one suggestion."""
        def main(ctx):
            a = yield New(Cell)
            b = yield New(Cell)
            yield Attach(a, b)
            yield Invoke(a, "add", 1)
            client = yield New(Client, on_node=2)
            worker = yield Fork(client, "pound", b, 12)
            yield Join(worker)
            return AffinityRebalancer(min_accesses=4).suggest(
                ctx.cluster), b

        suggestions, b = run_program(main, nodes=3,
                                     cpus_per_node=2).value
        assert [(s.obj.vaddr, s.dest) for s in suggestions] == \
            [(b.vaddr, 2)]

    def test_acting_on_suggestions_improves_time(self):
        """The whole point: consult the advisor between phases, apply its
        moves, and the next phase runs faster."""
        def main(ctx, rebalance):
            cell = yield New(Cell)
            client = yield New(Client, on_node=2)
            # Phase 1: node 2 hammers the (badly placed) object.
            worker = yield Fork(client, "pound", cell, 10)
            yield Join(worker)
            if rebalance:
                rebalancer = AffinityRebalancer()
                for suggestion in rebalancer.suggest(ctx.cluster):
                    yield MoveTo(suggestion.obj, suggestion.dest)
                rebalancer.reset_log(ctx.cluster)
            # Phase 2: same access pattern.
            t0 = ctx.now_us
            worker = yield Fork(client, "pound", cell, 10)
            yield Join(worker)
            return ctx.now_us - t0

        static = run_program(main, False, nodes=3, cpus_per_node=2).value
        advised = run_program(main, True, nodes=3, cpus_per_node=2).value
        assert advised < static / 2

    def test_reset_log(self):
        def main(ctx):
            cell = yield New(Cell)
            yield Invoke(cell, "add", 1)
            rebalancer = AffinityRebalancer()
            rebalancer.reset_log(ctx.cluster)
            return dict(ctx.cluster.access_log)

        assert run_program(main, nodes=2).value == {}


def _artifact(*hints):
    return PlacementHints(schema=HINTS_SCHEMA, sources=[],
                          hints=list(hints))


class TestPlacementPolicies:
    """Hint-override paths of the creation-time placement policies."""

    def test_base_policy_passes_defaults_through(self):
        policy = PlacementPolicy()
        assert policy.node_for("Any", 3, None) is None
        assert policy.node_for("Any", 3, 2) == 2
        assert policy.replicate("Any", True) is True
        assert policy.replicate("Any", False) is False

    def test_spread_round_robins_and_never_replicates(self):
        policy = SpreadPlacement(3)
        assert [policy.node_for("C", i, 0) for i in range(5)] == \
            [0, 1, 2, 0, 1]
        assert policy.replicate("C", True) is False

    def test_hinted_spread_round_robin(self):
        policy = HintedPlacement(_artifact(
            Hint(kind="spread", cls="Worker", strategy="round-robin")),
            nodes=2)
        assert [policy.node_for("Worker", i, 9, count=4)
                for i in range(4)] == [0, 1, 0, 1]

    def test_hinted_spread_block_keeps_neighbors_together(self):
        policy = HintedPlacement(_artifact(
            Hint(kind="spread", cls="Section", strategy="block")),
            nodes=2)
        assert [policy.node_for("Section", i, 9, count=8)
                for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_block_without_count_degrades_to_round_robin(self):
        policy = HintedPlacement(_artifact(
            Hint(kind="spread", cls="Section", strategy="block")),
            nodes=2)
        assert [policy.node_for("Section", i, 9)
                for i in range(4)] == [0, 1, 0, 1]

    def test_hub_and_replicate_classes_stay_at_program_default(self):
        policy = HintedPlacement(_artifact(
            Hint(kind="hub", cls="Pool"),
            Hint(kind="replicate", cls="Table")), nodes=4)
        assert policy.node_for("Pool", 0, None) is None
        assert policy.node_for("Table", 1, 3) == 3
        assert policy.replicate("Table", False) is True
        assert policy.replicate("Pool", True) is False

    def test_unknown_class_goes_to_fallback(self):
        """A class the artifact does not place, a colocate-only class
        among them, is placed round-robin and not replicated."""
        policy = HintedPlacement(_artifact(
            Hint(kind="hub", cls="Pool"),
            Hint(kind="colocate", cls="Pair", with_cls="Pair")), nodes=2)
        for cls in ("Stranger", "Pair"):
            assert policy.node_for(cls, 3, None) == 1
            assert policy.replicate(cls, True) is False

    def test_absent_hints_disable_the_policy(self, tmp_path):
        hints = load_hints(tmp_path / "missing.json")
        assert not hints.valid
        policy = HintedPlacement(hints, nodes=2)
        assert policy.node_for("Worker", 3, 0) == 1
        assert policy.replicate("Worker", True) is False

    def test_stale_schema_disables_the_policy(self):
        hints = _artifact(Hint(kind="spread", cls="Worker",
                               strategy="block"))
        hints.schema = "amberflow-hints/999"
        policy = HintedPlacement(hints, nodes=2)
        assert [policy.node_for("Worker", i, 0, count=4)
                for i in range(4)] == [0, 1, 0, 1]

    def test_malformed_artifact_disables_the_policy(self, tmp_path):
        path = tmp_path / "hints.json"
        path.write_text('["not", "a", "mapping"]')
        hints = load_hints(path)
        assert hints.schema == "malformed"
        policy = HintedPlacement(hints, nodes=2)
        assert policy.node_for("Worker", 1, 7) == 1
        assert policy.replicate("Worker", True) is False

    def test_artifact_object_is_accepted(self):
        policy = HintedPlacement(_artifact(Hint(kind="replicate",
                                                cls="B")), nodes=2)
        assert policy.replicate("B", False) is True
