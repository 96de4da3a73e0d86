"""``sim_mobility``: chase, move, locate and replicate, nothing else.

A benchmark-owned simulated program on 32 nodes x 2 CPUs: 64 ``Token``
objects, each with an attached ``Satchel``, one immutable ``Table``, and
64 ``Chaser`` threads each executing a seeded plan (60 % invoke a token
wherever it now lives, 15 % move a token to a random node, 10 % locate
one, 15 % read the replicated table).  No user compute and no sync
objects, so host time is engine + kernel mobility + network — the
``sim.kernel`` paths ``sim_sor`` never takes, at 4x its node count.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.hotprof import profile_runs
from repro.sim import (
    AmberProgram,
    Attach,
    ClusterConfig,
    FastInvoke,
    Fork,
    Invoke,
    Join,
    Locate,
    MoveTo,
    New,
    SetImmutable,
    SimObject,
)
from repro.sim.trace import Tracer

from benchmarks.amberbench.workloads.base import Workload, sim_layer_metrics

CPUS_PER_NODE = 2
TABLE_ENTRIES = 256
SIZES = {
    # nodes, tokens, chasers, ops per chaser: in the whole plan, in one
    # round, in the warm-up
    "full": (32, 64, 64, 400, 50, 20),
    "smoke": (4, 8, 8, 40, 10, 5),
}

HIT, MOVE, LOCATE, READ = range(4)
Plan = List[Tuple[int, int, int]]


class Satchel(SimObject):
    SIZE_BYTES = 128

    def __init__(self) -> None:
        self.total = 0

    def put(self, ctx: Any, n: int) -> int:
        self.total += n
        return self.total


class Token(SimObject):
    SIZE_BYTES = 128

    def __init__(self, satchel: Satchel) -> None:
        self.hits = 0
        self.satchel = satchel

    def hit(self, ctx: Any, n: int):
        self.hits += n
        # Attached, hence co-resident wherever the pair has moved to.
        yield FastInvoke(self.satchel, "put", n)
        return self.hits

    def totals(self, ctx: Any):
        carried = yield FastInvoke(self.satchel, "put", 0)
        return self.hits, carried


class Table(SimObject):
    SIZE_BYTES = 1024

    def __init__(self, values: Tuple[int, ...]) -> None:
        self.values = values

    def lookup(self, ctx: Any, index: int) -> int:
        return self.values[index]


class Chaser(SimObject):
    SIZE_BYTES = 64

    def run(self, ctx: Any, tokens: List[Token], table: Table, plan: Plan):
        read_sum = 0
        located = []
        for op, a, b in plan:
            if op == HIT:
                yield Invoke(tokens[a], "hit", b)
            elif op == MOVE:
                yield MoveTo(tokens[a], b)
            elif op == LOCATE:
                located.append((yield Locate(tokens[a])))
            else:
                read_sum += yield Invoke(table, "lookup", a)
        return read_sum, located


def make_plans(rng: random.Random, nodes: int, tokens: int, chasers: int,
               ops: int) -> List[Plan]:
    plans = []
    for _ in range(chasers):
        plan: Plan = []
        for _ in range(ops):
            draw = rng.random()
            if draw < 0.60:
                plan.append((HIT, rng.randrange(tokens),
                             rng.randrange(1, 10)))
            elif draw < 0.75:
                plan.append((MOVE, rng.randrange(tokens),
                             rng.randrange(nodes)))
            elif draw < 0.85:
                plan.append((LOCATE, rng.randrange(tokens), 0))
            else:
                plan.append((READ, rng.randrange(TABLE_ENTRIES), 0))
        plans.append(plan)
    return plans


def main(ctx: Any, nodes: int, tokens: int, plans: List[Plan],
         values: Tuple[int, ...]):
    table = yield New(Table, values)
    yield SetImmutable(table)
    token_objs = []
    for index in range(tokens):
        satchel = yield New(Satchel)
        token = yield New(Token, satchel)
        yield Attach(satchel, token)    # must be co-resident to attach
        if index % nodes:
            yield MoveTo(token, index % nodes)
        token_objs.append(token)
    threads = []
    for index, plan in enumerate(plans):
        chaser = yield New(Chaser, on_node=index % nodes)
        threads.append((yield Fork(chaser, "run", token_objs, table, plan,
                                   name=f"chaser{index}")))
    outcomes = []
    for thread in threads:
        outcomes.append((yield Join(thread)))
    totals = []
    for token in token_objs:
        totals.append((yield Invoke(token, "totals")))
    return outcomes, totals


class SimMobility(Workload):
    name = "sim_mobility"
    work_unit = "plan ops"

    def setup(self) -> None:
        nodes, tokens, chasers, ops, per_round, warm = SIZES[self.size]
        self.nodes, self.tokens = nodes, tokens
        rng = random.Random(self.seed)
        self.values = tuple(rng.randrange(1000)
                            for _ in range(TABLE_ENTRIES))
        #: The whole seeded plan: ~264 k events, ~2.5 s of host time.
        #: Run once per traced pass, for the exact counts.
        self.plans = make_plans(rng, nodes, tokens, chasers, ops)
        #: What a round times: one consecutive slice of every chaser's
        #: plan, the slices taken in turn, so that host speed can be
        #: sampled every ~0.3 s (see runner.host_speed).
        self.segments = [[plan[start:start + per_round]
                          for plan in self.plans]
                         for start in range(0, ops, per_round)]
        self._rounds = 0
        self._fingerprints: Dict[int, tuple] = {}
        self._warm_plans = [plan[:warm] for plan in self.plans]
        with self.rec.span("sim_mobility.warmup"):
            self._run(self._warm_plans, None)

    def _run(self, plans: List[Plan], tracer: Optional[Tracer]) -> Any:
        config = ClusterConfig(nodes=self.nodes,
                               cpus_per_node=CPUS_PER_NODE)
        return AmberProgram(config).run(main, self.nodes, self.tokens,
                                        plans, self.values, tracer=tracer)

    def round(self) -> int:
        index = self._rounds % len(self.segments)
        self._rounds += 1
        plans = self.segments[index]
        with self.rec.span("sim.run_program"):
            if self.rec.enabled:
                with profile_runs():
                    result = self._run(plans, Tracer())
            else:
                result = self._run(plans, None)
        fingerprint = (result.cluster.sim.events_run, result.elapsed_us)
        # Same inputs, same (events, simulated time), every time.
        self.check(self._fingerprints.setdefault(index, fingerprint)
                   == fingerprint)
        with self.rec.span("sim_mobility.oracle"):
            self._check_against_plan(plans, result.value)
        ops = sum(len(plan) for plan in plans)
        self.attempted += ops
        return ops

    def _check_against_plan(self, plans: List[Plan], value: Any) -> None:
        """Pure-Python oracle: what the plan says must have happened."""
        outcomes, totals = value
        hits = [0] * self.tokens
        read_sum = 0
        locates = 0
        for plan in plans:
            for op, a, b in plan:
                if op == HIT:
                    hits[a] += b
                elif op == READ:
                    read_sum += self.values[a]
                elif op == LOCATE:
                    locates += 1
        if self.flip_oracle:
            hits[0] += 1
        self.check([token_hits for token_hits, _ in totals] == hits)
        self.check([carried for _, carried in totals] == hits)
        self.check(sum(reads for reads, _ in outcomes) == read_sum)
        located = [node for _, nodes in outcomes for node in nodes]
        self.check(len(located) == locates)
        self.check(all(0 <= node < self.nodes for node in located))

    def finish(self) -> None:
        """Every round already ran the oracle."""

    def alloc_probe(self) -> int:
        self._probe = self._run(self._warm_plans, None)
        return sum(len(plan) for plan in self._warm_plans)

    def layer_metrics(self, stages: Dict[str, float],
                      untraced_round_s: float) -> Dict[str, float]:
        with self.rec.span("sim.run_program.whole_plan"):
            with profile_runs() as profiler:
                whole = self._run(self.plans, Tracer())
        self._check_against_plan(self.plans, whole.value)
        out = sim_layer_metrics(whole.cluster, profiler.as_dict())
        # No repro.apps code runs here: the layer's share is zero by
        # construction, which is the contrast with sim_sor.
        out["apps.user_code_share"] = 0.0
        out["sim_elapsed_us"] = whole.elapsed_us
        return out
