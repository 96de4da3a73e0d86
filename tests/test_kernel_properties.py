"""Property-based tests over the simulated kernel.

Random programs of moves, attaches, invocations, and thread forks are run
to completion; afterwards the object space must be consistent:

* every live mutable object is RESIDENT on exactly one node, which is
  the authoritative location, and ``resolve`` from *any* node reaches it;
* attachment groups are fully co-located;
* immutable objects are resident wherever a replica landed, and the set
  of replicas only grows;
* invocations always observe and mutate the single authoritative state
  (counter totals add up), regardless of object motion.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import forwarding
from repro.errors import AmberError
from repro.sim.objects import SimObject
from repro.sim.program import run_program
from repro.sim.syscalls import (
    Attach,
    Compute,
    Fork,
    Invoke,
    Join,
    MoveTo,
    New,
    SetImmutable,
    Unattach,
)

N_NODES = 4
N_OBJECTS = 5


class Box(SimObject):
    def __init__(self, index):
        self.index = index
        self.hits = 0

    def hit(self, ctx, amount):
        yield Compute(3.0)
        self.hits += amount
        return self.hits


# One random program step:
#   ("move", obj, node) | ("invoke", obj) | ("attach", a, b)
#   ("unattach", a) | ("freeze", obj) | ("fork", obj)
step_strategy = st.one_of(
    st.tuples(st.just("move"), st.integers(0, N_OBJECTS - 1),
              st.integers(0, N_NODES - 1)),
    st.tuples(st.just("invoke"), st.integers(0, N_OBJECTS - 1),
              st.just(0)),
    st.tuples(st.just("attach"), st.integers(0, N_OBJECTS - 1),
              st.integers(0, N_OBJECTS - 1)),
    st.tuples(st.just("unattach"), st.integers(0, N_OBJECTS - 1),
              st.just(0)),
    st.tuples(st.just("freeze"), st.integers(0, N_OBJECTS - 1),
              st.just(0)),
    st.tuples(st.just("fork"), st.integers(0, N_OBJECTS - 1),
              st.just(0)),
)


def random_program(steps):
    def main(ctx):
        boxes = []
        for index in range(N_OBJECTS):
            boxes.append((yield New(Box, index,
                                    on_node=index % N_NODES)))
        frozen = set()
        expected_hits = [0] * N_OBJECTS
        threads = []
        for op, a, b in steps:
            box = boxes[a]
            try:
                if op == "move":
                    yield MoveTo(box, b)
                elif op == "invoke":
                    yield Invoke(box, "hit", 1)
                    expected_hits[a] += 1
                elif op == "attach" and a != b:
                    if a in frozen or b in frozen:
                        continue
                    yield Attach(box, boxes[b])
                elif op == "unattach":
                    yield Unattach(box)
                elif op == "freeze":
                    yield SetImmutable(box)
                    frozen.add(a)
                elif op == "fork":
                    if a in frozen:
                        continue
                    threads.append((a, (yield Fork(box, "hit", 1))))
                    expected_hits[a] += 1
            except AmberError:
                # Rejected combinations (attach across nodes, attach of
                # immutables, ...) are fine; invariants must still hold.
                pass
        for _, thread in threads:
            yield Join(thread)
        finals = []
        for box in boxes:
            if box.index in frozen:
                finals.append(None)
            else:
                finals.append((yield Invoke(box, "hit", 0)))
        return boxes, frozen, expected_hits, finals

    return main


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(step_strategy, max_size=25))
def test_object_space_consistent_after_random_program(steps):
    result = run_program(random_program(steps), nodes=N_NODES,
                         cpus_per_node=2)
    boxes, frozen, expected_hits, finals = result.value
    cluster = result.cluster
    tables = cluster.descriptor_tables()

    for box in boxes:
        vaddr = box.vaddr
        resident_nodes = [node for node, table in tables.items()
                          if table.is_resident(vaddr)]
        if box.index in frozen:
            # Immutable: at least the original; every replica RESIDENT.
            assert box._location in resident_nodes
            assert len(resident_nodes) >= 1
        else:
            # Mutable: exactly one authoritative copy...
            assert resident_nodes == [box._location]
            # ...reachable by chain from every node.
            for start in range(N_NODES):
                route = forwarding.resolve(vaddr, start, tables,
                                           cluster.home_node)
                assert route.destination == box._location

    # Attachment groups are co-located.
    for member in cluster.attachments.members():
        group = cluster.attachments.group(member)
        locations = {cluster.objects[v]._location for v in group}
        assert len(locations) == 1

    # Counter totals: every invocation (sync or forked) landed exactly
    # once on the single authoritative copy.
    for box, expected, final in zip(boxes, expected_hits, finals):
        if box.index not in frozen:
            assert final == expected
            assert box.hits == expected


@settings(max_examples=25, deadline=None)
@given(moves=st.lists(st.integers(0, N_NODES - 1), max_size=10),
       prober=st.integers(0, N_NODES - 1))
def test_any_move_sequence_still_invocable_from_anywhere(moves, prober):
    """After any sequence of moves, a thread anchored on an arbitrary
    node can still invoke the object (chain + home fallback)."""
    class Prober(SimObject):
        def probe(self, ctx, target):
            value = yield Invoke(target, "hit", 1)
            return value

    def main(ctx):
        box = yield New(Box, 0)
        anchor = yield New(Prober, on_node=prober)
        for dest in moves:
            yield MoveTo(box, dest)
        value = yield Invoke(anchor, "probe", box)
        return value

    result = run_program(main, nodes=N_NODES, cpus_per_node=2)
    assert result.value == 1
