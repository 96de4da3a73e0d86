"""The fixture catalog of ``repro flow``.

Unlike :mod:`repro.analyze.fixtures` (runnable sanitizer workloads),
these are *analyzed, never executed*: each is a small Amber program
source with a known static verdict.  For every AMB2xx rule there are
three variants: one that must fire, the same program with a
``# repro: noqa[RULE]`` suppression (must come back clean of that
rule), and a genuinely clean twin that fixes the hazard instead of
silencing it.  The AMB3xx fixtures pin AmberElide's classification as
well: the classes it proves thread-confined and effectively immutable.

``FIXTURES`` maps fixture name -> :class:`Fixture`: its source, every
rule that fires on it with multiplicity (a fixture made for one rule
may trip another, and the catalog says so), and the classification
where it pins one.  The ``repro flow`` diagnostics-catalog scenario
and the unit tests both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def _noqa(source: str, needle: str, rule: str) -> str:
    """Append a noqa comment to the first line containing ``needle``."""
    out = []
    done = False
    for line in source.splitlines():
        if not done and needle in line:
            line = f"{line}  # repro: noqa[{rule}]"
            done = True
        out.append(line)
    assert done, f"needle {needle!r} not found"
    return "\n".join(out) + "\n"


# -- AMB201: cross-boundary Invoke inside a loop ---------------------------

AMB201_HOT_LOOP = '''\
class Counter:
    def __init__(self) -> None:
        self.total = 0

    def bump(self, ctx):
        self.total += 1
        yield Compute(1.0)


class Driver:
    def __init__(self, counter: Counter) -> None:
        self.counter = counter

    def run(self, ctx):
        for _ in range(64):
            yield Invoke(self.counter, "bump")


def main(ctx):
    counter = yield New(Counter)
    driver = yield New(Driver, counter, on_node=1)
    t = yield Fork(driver, "run")
    yield Join(t)
'''

AMB201_CLEAN = '''\
class Table:
    def __init__(self, rows) -> None:
        self.rows = rows

    def lookup(self, ctx, i):
        yield Compute(0.5)
        return self.rows[i]


class Reader:
    def __init__(self, table: Table) -> None:
        self.table = table

    def run(self, ctx):
        acc = 0
        for i in range(64):
            acc += yield Invoke(self.table, "lookup", i)
        return acc


def main(ctx):
    table = yield New(Table, (1, 2, 3))
    yield SetImmutable(table)
    reader = yield New(Reader, table, on_node=1)
    t = yield Fork(reader, "run")
    yield Join(t)
'''

# -- AMB202: write to a statically-replicated class ------------------------

AMB202_REPLICA_WRITE = '''\
class Lookup:
    def __init__(self) -> None:
        self.values = {"a": 1}

    def get(self, ctx, key):
        yield Compute(0.1)
        return self.values[key]

    def put(self, ctx, key, val):
        self.values[key] = val
        yield Compute(0.1)


def main(ctx):
    cfg = yield New(Lookup)
    yield SetImmutable(cfg)
    got = yield Invoke(cfg, "get", "a")
    return got
'''

AMB202_CLEAN = '''\
class Lookup:
    def __init__(self) -> None:
        self.values = {"a": 1}

    def get(self, ctx, key):
        yield Compute(0.1)
        return self.values[key]


def main(ctx):
    cfg = yield New(Lookup)
    yield SetImmutable(cfg)
    got = yield Invoke(cfg, "get", "a")
    return got
'''

# -- AMB203: lock held across a cross-boundary Invoke ----------------------

AMB203_LOCKED_INVOKE = '''\
class Store:
    def __init__(self) -> None:
        self.items = []

    def put(self, ctx, item):
        self.items.append(item)
        yield Compute(0.2)


def main(ctx):
    lock = yield New(SpinLock)
    store = yield New(Store, on_node=1)
    yield Invoke(lock, "acquire")
    yield Invoke(store, "put", 1)
    yield Invoke(lock, "release")
'''

AMB203_CLEAN = '''\
class Store:
    def __init__(self) -> None:
        self.items = []

    def put(self, ctx, item):
        self.items.append(item)
        yield Compute(0.2)


def main(ctx):
    lock = yield New(SpinLock)
    store = yield New(Store, on_node=1)
    yield Invoke(store, "put", 1)
    yield Invoke(lock, "acquire")
    yield Compute(1.0)
    yield Invoke(lock, "release")
'''

# -- AMB204: MoveTo leaves the reference graph behind ----------------------

AMB204_STRANDED_MOVE = '''\
class Ledger:
    def __init__(self) -> None:
        self.entries = []

    def add(self, ctx, x):
        self.entries.append(x)
        yield Compute(0.1)


class Agent:
    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger

    def run(self, ctx):
        yield Invoke(self.ledger, "add", 1)


def main(ctx):
    ledger = yield New(Ledger)
    agent = yield New(Agent, ledger)
    yield MoveTo(agent, 1)
    t = yield Fork(agent, "run")
    yield Join(t)
'''

AMB204_CLEAN = '''\
class Ledger:
    def __init__(self) -> None:
        self.entries = []

    def add(self, ctx, x):
        self.entries.append(x)
        yield Compute(0.1)


class Agent:
    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger

    def run(self, ctx):
        yield Invoke(self.ledger, "add", 1)


def main(ctx):
    ledger = yield New(Ledger)
    agent = yield New(Agent, ledger)
    yield Attach(ledger, agent)
    yield MoveTo(agent, 1)
    t = yield Fork(agent, "run")
    yield Join(t)
'''

# -- AMB205: mutable value escaping into forked threads --------------------

AMB205_SHARED_LIST = '''\
class Worker:
    def __init__(self, n: int) -> None:
        self.n = n

    def run(self, ctx, shared):
        shared.append(self.n)
        yield Compute(1.0)


def main(ctx):
    shared = []
    a = yield New(Worker, 1)
    b = yield New(Worker, 2)
    t1 = yield Fork(a, "run", shared)
    t2 = yield Fork(b, "run", shared)
    yield Join(t1)
    yield Join(t2)
    return shared
'''

AMB205_MUTATE_AFTER = '''\
class Worker:
    def __init__(self, n: int) -> None:
        self.n = n

    def run(self, ctx, shared):
        shared.append(self.n)
        yield Compute(1.0)


def main(ctx):
    shared = []
    a = yield New(Worker, 1)
    t1 = yield Fork(a, "run", shared)
    shared.append(0)
    yield Join(t1)
    return shared
'''

AMB205_CLEAN = '''\
class Worker:
    def __init__(self, n: int) -> None:
        self.n = n

    def run(self, ctx, base):
        yield Compute(1.0)
        return base + self.n


def main(ctx):
    a = yield New(Worker, 1)
    b = yield New(Worker, 2)
    t1 = yield Fork(a, "run", 10)
    t2 = yield Fork(b, "run", 20)
    first = yield Join(t1)
    second = yield Join(t2)
    return (first, second)
'''


# -- AMB301-AMB304: confined classes, immutable classes, lock sites ------

#: Common preamble of the AMB3xx fixtures: they import the real
#: simulator API, so each is an ordinary Amber program.
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
#: like the private one beside it.  The shared one crosses a ``Fork``
#: (AMB304); the private one guards nothing another thread sees
#: (AMB301).
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

#: Two locks handed to forked threads through the tuple a loop walks:
#: each crosses a ``Fork`` as surely as one passed to it directly, and
#: the pass, which does not follow a lock into a tuple, keeps both
#: (AMB304).
_LOOPED_LOCK_PAIR = _PRELUDE + """\

class PairUser(SimObject):
    def pair(self, ctx, first, second):
        yield Invoke(first, "acquire")
        yield Invoke(second, "acquire")
        yield Charge(1.0)
        yield Invoke(second, "release")
        yield Invoke(first, "release")


def main(ctx):
    lock_a = yield New(Lock)
    lock_b = yield New(Lock)
    for first, second in ((lock_a, lock_b), (lock_b, lock_a)):
        user = yield New(PairUser)
        thread = yield Fork(user, "pair", first, second)
        yield Join(thread)
    return True
"""


@dataclass(frozen=True)
class Fixture:
    """One catalog entry and everything asserted about it."""

    name: str
    source: str
    #: Every AMB2xx/AMB3xx rule that fires, sorted, with multiplicity.
    expected_rules: Tuple[str, ...]
    #: The classes AmberElide proves thread-confined and effectively
    #: immutable, where the fixture pins them.
    confined: Optional[Tuple[str, ...]] = None
    immutable: Optional[Tuple[str, ...]] = None

    @property
    def path(self) -> str:
        return f"<fixture:{self.name}>"

    def sources(self) -> List[Tuple[str, str]]:
        return [(self.path, self.source)]


FIXTURES: Dict[str, Fixture] = {
    fixture.name: fixture for fixture in (
        Fixture("amb201", AMB201_HOT_LOOP, ("AMB201",)),
        Fixture("amb201-noqa",
                _noqa(AMB201_HOT_LOOP, 'Invoke(self.counter, "bump")',
                      "AMB201"), ()),
        Fixture("amb201-clean", AMB201_CLEAN, ()),
        Fixture("amb202", AMB202_REPLICA_WRITE, ("AMB202",)),
        Fixture("amb202-noqa",
                _noqa(AMB202_REPLICA_WRITE, "self.values[key] = val",
                      "AMB202"), ()),
        Fixture("amb202-clean", AMB202_CLEAN, ()),
        # The lock guards nothing another thread sees: AmberElide's
        # AMB301 (and AMB303 on the guarded invoke) fire beside AMB203.
        Fixture("amb203", AMB203_LOCKED_INVOKE,
                ("AMB203", "AMB301", "AMB303")),
        Fixture("amb203-noqa",
                _noqa(AMB203_LOCKED_INVOKE, 'Invoke(store, "put", 1)',
                      "AMB203"), ("AMB301", "AMB303")),
        Fixture("amb203-clean", AMB203_CLEAN, ("AMB301",)),
        Fixture("amb204", AMB204_STRANDED_MOVE, ("AMB204",)),
        Fixture("amb204-noqa",
                _noqa(AMB204_STRANDED_MOVE, "MoveTo(agent, 1)",
                      "AMB204"), ()),
        Fixture("amb204-clean", AMB204_CLEAN, ()),
        Fixture("amb205", AMB205_SHARED_LIST, ("AMB205",)),
        Fixture("amb205-noqa",
                _noqa(AMB205_SHARED_LIST,
                      't2 = yield Fork(b, "run", shared)', "AMB205"),
                ()),
        Fixture("amb205-mutate", AMB205_MUTATE_AFTER, ("AMB205",)),
        Fixture("amb205-mutate-noqa",
                _noqa(AMB205_MUTATE_AFTER, "shared.append(0)",
                      "AMB205"), ()),
        Fixture("amb205-clean", AMB205_CLEAN, ()),
        # The AMB3xx fixtures lock and invoke in loops across objects,
        # so AMB201 and AMB203 fire on most of them too.
        Fixture("confined-counter", _CONFINED_COUNTER,
                ("AMB201", "AMB203", "AMB301", "AMB303"),
                confined=("Tally",), immutable=()),
        Fixture("confined-counter-noqa", _CONFINED_COUNTER_NOQA,
                ("AMB201", "AMB203"),
                confined=("Tally",), immutable=()),
        Fixture("shared-pool", _SHARED_POOL,
                ("AMB201", "AMB203", "AMB304"),
                confined=(), immutable=()),
        Fixture("shared-pool-noqa", _SHARED_POOL_NOQA,
                ("AMB201", "AMB203"),
                confined=(), immutable=()),
        Fixture("immutable-table", _IMMUTABLE_TABLE,
                ("AMB201", "AMB302"),
                confined=(), immutable=("SumTable", "TableReader")),
        Fixture("immutable-table-noqa", _IMMUTABLE_TABLE_NOQA,
                ("AMB201",),
                confined=(), immutable=("SumTable", "TableReader")),
        Fixture("scratch-workers", _SCRATCH_WORKERS,
                ("AMB201", "AMB203", "AMB301", "AMB303"),
                confined=("Scratch",), immutable=("Cruncher",)),
        Fixture("nested-helper-lock", _NESTED_HELPER_LOCK,
                ("AMB301", "AMB304"),
                confined=("Worker",), immutable=("Worker",)),
        Fixture("looped-lock-pair", _LOOPED_LOCK_PAIR,
                ("AMB304", "AMB304"),
                confined=(), immutable=("PairUser",)),
    )
}
