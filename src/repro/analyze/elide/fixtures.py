"""The AmberElide fixture catalog.

Each fixture is one source string the static pass scans: its
classification and AMB3xx findings are asserted against the
expectations below.  The ``_noqa`` twins prove the suppression
machinery works for the AMB3xx rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Common preamble: fixtures import the real simulator API, so each
#: is an ordinary Amber program.
_PRELUDE = """\
from repro.sim import SimObject
from repro.sim.syscalls import Charge, Fork, Invoke, Join, New
from repro.sim.sync import Lock
"""

_CONFINED_COUNTER = _PRELUDE + """\

ROUNDS = 12


class Tally(SimObject):
    def __init__(self) -> None:
        self.total = 0

    def bump(self, ctx, amount):
        self.total += amount
        yield Charge(1.0)
        return self.total

    def snapshot(self, ctx):
        return self.total


def main(ctx):
    tally = yield New(Tally)
    gate = yield New(Lock)
    for round_no in range(ROUNDS):
        yield Invoke(gate, "acquire")
        yield Invoke(tally, "bump", round_no)
        yield Invoke(gate, "release")
    result = yield Invoke(tally, "snapshot")
    return result
"""

_CONFINED_COUNTER_NOQA = _CONFINED_COUNTER.replace(
    "    gate = yield New(Lock)",
    "    gate = yield New(Lock)  # repro: noqa[AMB301]").replace(
    '        yield Invoke(tally, "bump", round_no)',
    '        yield Invoke(tally, "bump", round_no)'
    '  # repro: noqa[AMB303]')

_SHARED_POOL = _PRELUDE + """\

ITEMS = 10


class JobPool(SimObject):
    def __init__(self, items: int) -> None:
        self.items = list(range(items))
        self.taken = 0

    def take(self, ctx):
        yield Charge(1.0)
        if not self.items:
            return None
        self.taken += 1
        return self.items.pop(0)


class PoolWorker(SimObject):
    def __init__(self, pool: "JobPool", gate) -> None:
        self.pool = pool
        self.gate = gate
        self.claimed = 0

    def run(self, ctx):
        while True:
            yield Invoke(self.gate, "acquire")
            job = yield Invoke(self.pool, "take")
            yield Invoke(self.gate, "release")
            if job is None:
                return self.claimed
            self.claimed += 1


def main(ctx):
    pool = yield New(JobPool, ITEMS)
    gate = yield New(Lock)
    workers = []
    for index in range(2):
        worker = yield New(PoolWorker, pool, gate, on_node=index % 2)
        workers.append(worker)
    threads = []
    for worker in workers:
        thread = yield Fork(worker, "run")
        threads.append(thread)
    total = 0
    for thread in threads:
        claimed = yield Join(thread)
        total += claimed
    return total
"""

_SHARED_POOL_NOQA = _SHARED_POOL.replace(
    "    gate = yield New(Lock)",
    "    gate = yield New(Lock)  # repro: noqa[AMB304]")

_IMMUTABLE_TABLE = _PRELUDE + """\

SIZE = 8


class SumTable(SimObject):
    def __init__(self, size: int) -> None:
        self.values = [v * v for v in range(size)]

    def lookup(self, ctx, index):
        yield Charge(1.0)
        return self.values[index]


class TableReader(SimObject):
    def __init__(self, table: "SumTable", size: int) -> None:
        self.table = table
        self.size = size

    def run(self, ctx):
        total = 0
        for index in range(self.size):
            value = yield Invoke(self.table, "lookup", index)
            total += value
        return total


def main(ctx):
    table = yield New(SumTable, SIZE)
    readers = []
    for index in range(2):
        reader = yield New(TableReader, table, SIZE, on_node=index % 2)
        readers.append(reader)
    threads = []
    for reader in readers:
        thread = yield Fork(reader, "run")
        threads.append(thread)
    total = 0
    for thread in threads:
        part = yield Join(thread)
        total += part
    return total
"""

_IMMUTABLE_TABLE_NOQA = _IMMUTABLE_TABLE.replace(
    "class SumTable(SimObject):",
    "class SumTable(SimObject):  # repro: noqa[AMB302]")

_SCRATCH_WORKERS = _PRELUDE + """\

STEPS = 6


class Scratch(SimObject):
    def __init__(self) -> None:
        self.value = 0

    def bump(self, ctx, amount):
        self.value += amount
        yield Charge(1.0)
        return self.value


class Cruncher(SimObject):
    def __init__(self, steps: int) -> None:
        self.steps = steps

    def run(self, ctx):
        scratch = yield New(Scratch)
        latch = yield New(Lock)
        total = 0
        for step in range(self.steps):
            yield Invoke(latch, "acquire")
            total = yield Invoke(scratch, "bump", step)
            yield Invoke(latch, "release")
        return total


def main(ctx):
    crunchers = []
    for index in range(2):
        cruncher = yield New(Cruncher, STEPS, on_node=index % 2)
        crunchers.append(cruncher)
    threads = []
    for cruncher in crunchers:
        thread = yield Fork(cruncher, "run")
        threads.append(thread)
    grand = 0
    for thread in threads:
        part = yield Join(thread)
        grand += part
    return grand
"""

#: The static lock owner must be the runtime's.  ``fan_out`` is nested
#: in ``Worker.run`` and runs, through ``yield from``, inside that
#: activation: the shared lock it creates is created by a ``Worker``,
#: like the private one beside it.  One un-elidable site among the
#: ``(Worker, Lock)`` sites, so that pair is not elidable.
_NESTED_HELPER_LOCK = _PRELUDE + """\

ROUNDS = 3


class Sink(SimObject):
    def __init__(self) -> None:
        self.uses = 0

    def use(self, ctx, gate, rounds):
        for _ in range(rounds):
            yield Invoke(gate, "acquire")
            self.uses += 1
            yield Charge(1.0)
            yield Invoke(gate, "release")

    def count(self, ctx):
        return self.uses


class Worker(SimObject):
    def __init__(self, sink: "Sink") -> None:
        self.sink = sink

    def run(self, ctx):
        def fan_out(sink):
            shared = yield New(Lock)
            first = yield Fork(sink, "use", shared, ROUNDS)
            second = yield Fork(sink, "use", shared, ROUNDS)
            yield Join(first)
            yield Join(second)

        private = yield New(Lock)
        yield Invoke(private, "acquire")
        yield from fan_out(self.sink)
        yield Invoke(private, "release")
        total = yield Invoke(self.sink, "count")
        return total


def main(ctx):
    sink = yield New(Sink)
    worker = yield New(Worker, sink)
    result = yield Invoke(worker, "run")
    return result
"""


@dataclass(frozen=True)
class ElideFixture:
    """One catalog entry and everything asserted about it."""

    name: str
    source: str
    #: Expected AMB3xx rule names, sorted, with multiplicity.
    expected_rules: Tuple[str, ...]
    confined: Tuple[str, ...]
    immutable: Tuple[str, ...]
    #: Expected elidable ``(owner, lock_cls)`` pairs.
    elidable_owners: Tuple[Tuple[str, str], ...]

    @property
    def path(self) -> str:
        return f"<fixture:{self.name}>"

    def sources(self) -> List[Tuple[str, str]]:
        return [(self.path, self.source)]


FIXTURES: Dict[str, ElideFixture] = {
    fixture.name: fixture for fixture in (
        ElideFixture(
            name="confined-counter",
            source=_CONFINED_COUNTER,
            expected_rules=("AMB301", "AMB303"),
            confined=("Tally",),
            immutable=(),
            elidable_owners=(("<main>", "Lock"),)),
        ElideFixture(
            name="confined-counter-noqa",
            source=_CONFINED_COUNTER_NOQA,
            expected_rules=(),
            confined=("Tally",),
            immutable=(),
            elidable_owners=(("<main>", "Lock"),)),
        ElideFixture(
            name="shared-pool",
            source=_SHARED_POOL,
            expected_rules=("AMB304",),
            confined=(),
            immutable=(),
            elidable_owners=()),
        ElideFixture(
            name="shared-pool-noqa",
            source=_SHARED_POOL_NOQA,
            expected_rules=(),
            confined=(),
            immutable=(),
            elidable_owners=()),
        ElideFixture(
            name="immutable-table",
            source=_IMMUTABLE_TABLE,
            expected_rules=("AMB302",),
            confined=(),
            immutable=("SumTable", "TableReader"),
            elidable_owners=()),
        ElideFixture(
            name="immutable-table-noqa",
            source=_IMMUTABLE_TABLE_NOQA,
            expected_rules=(),
            confined=(),
            immutable=("SumTable", "TableReader"),
            elidable_owners=()),
        ElideFixture(
            name="scratch-workers",
            source=_SCRATCH_WORKERS,
            expected_rules=("AMB301", "AMB303"),
            confined=("Scratch",),
            immutable=("Cruncher",),
            elidable_owners=(("Cruncher", "Lock"),)),
        ElideFixture(
            name="nested-helper-lock",
            source=_NESTED_HELPER_LOCK,
            expected_rules=("AMB301", "AMB304"),
            confined=("Worker",),
            immutable=("Worker",),
            elidable_owners=()),
    )
}
