"""Golden answers of the three static passes over a fixed corpus.

``repro lint`` reads the same programs as ``repro flow`` and the
AmberElide classification under it; ``tests/golden/analysis_corpus.json``
pins, for every program of the corpus below, what each pass says about
it:

* the rendered AMB1xx lint findings;
* the ``FlowModel``: every site list and every class's field tables,
  method read/write sets, as sorted tuples;
* the rendered AMB2xx ``flow_diagnostics`` and the hints fingerprint;
* AmberElide's ``confined`` / ``immutable`` / ``shared`` reasons, lock
  sites and the rendered AMB3xx ``diagnose`` findings.

The corpus is every Amber program in the tree (bundled apps and
examples as one program, the two fixture catalogs, the paper-figure
drivers, AmberBench's workloads — read, never edited — and the hot-path
test programs) plus the inline ``SNIPPETS``, which cover the branch /
loop / try / with / nested-function shapes of every AMB1xx rule.

The file is committed at the behaviour of the commit *before* a change
to the analysis, and regenerated (only for an intended change of an
answer, in a commit of its own) with::

    PYTHONPATH=src python -m tests.test_analysis_corpus
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.model import classify
from repro.analyze.flow import derive_hints, flow_diagnostics, scan_sources
from repro.analyze.flow.fixtures import FIXTURES
from repro.analyze.lint import collect_sources, lint_source

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "analysis_corpus.json"

Sources = List[Tuple[str, str]]

#: name -> paths (relative to the repository root) read as one program.
TREES: Dict[str, List[str]] = {
    "apps+examples": ["src/repro/apps", "examples"],
    "analyze-fixtures": ["src/repro/analyze/fixtures.py"],
    "bench": ["src/repro/bench"],
    "amberbench-workloads": ["benchmarks/amberbench/workloads"],
    "hot-path-programs": ["tests/hot_path_programs.py"],
}

#: Inline programs: the statement shapes of every AMB1xx rule, the
#: receiver spellings, and where a lock is created.
SNIPPETS: Dict[str, str] = {
    "amb101-branches": '''\
def early_return(self, ctx, lock):
    yield Invoke(lock, "acquire")
    if bad():
        return None
    yield Invoke(lock, "release")


def both_arms(self, ctx, lock, flag):
    yield Invoke(lock, "acquire")
    if flag:
        yield Invoke(lock, "release")
    else:
        yield Invoke(lock, "release")


def same_guard(self, ctx, lock):
    if lock:
        yield Invoke(lock, "acquire")
    yield Compute(1.0)
    if lock:
        yield Invoke(lock, "release")


def live_idiom(self, mon, rw):
    mon.enter()
    rw.acquire_read()
    rw.release_read()
''',
    "amb101-loop-try-with": '''\
def in_loop(self, ctx, lock, n):
    for _ in range(n):
        yield Invoke(lock, "acquire")
        yield Compute(1.0)
    yield Invoke(lock, "release")


def finally_releases(self, ctx, lock):
    yield Invoke(lock, "acquire")
    try:
        yield Compute(1.0)
    except ValueError:
        return 0
    finally:
        yield Invoke(lock, "release")


def under_with(self, ctx, lock, res):
    with res.open() as handle:
        yield Invoke(lock, "acquire")
        handle.write(1)
    while busy():
        yield Invoke(lock, "release")
        raise RuntimeError("gone")
''',
    "amb101-receivers": '''\
class Pooled:
    def leak_subscript(self, ctx, locks):
        yield Invoke(locks[0], "acquire")

    def leak_chain(self, ctx):
        yield Invoke(self.pool.lock, "acquire")

    def leak_field(self, ctx):
        yield Invoke(self.lock, "acquire")

    def rejoin(self, ctx, workers):
        handles = {}
        handles["a"] = yield Fork(workers[0], "run")
        self.t = yield Fork(workers[1], "run")
        yield Join(self.t)
        yield Join(self.t)

    def reseal(self, ctx, cfgs, peer, node):
        yield Attach(cfgs[0], peer)
        yield MoveTo(cfgs[0], node)
        yield SetImmutable(self.cfg.inner)
        self.cfg.inner.x = 1
''',
    "amb102-condvars": '''\
def bare_wait(self, ctx):
    cv = yield New(CondVar)
    yield Invoke(cv, "wait")


def guarded_wait(self, ctx, mon, cv: CondVar):
    yield Invoke(mon, "enter")
    while not ready():
        yield Invoke(cv, "wait")
    yield Invoke(mon, "exit")


def one_arm(self, ctx, mon, flag):
    cv = CondVar()
    if flag:
        mon.enter()
    cv.wait()
    if flag:
        mon.exit()


def forward_ref(self, ctx, cv: "CondVar", maybe: Optional[CondVar]):
    yield Invoke(cv, "wait")
    yield Invoke(maybe, "wait")


class Holder:
    def __init__(self) -> None:
        self.cv = CondVar()

    def wait_on_field(self, ctx):
        yield Invoke(self.cv, "wait")
''',
    "amb103-nested": '''\
def run_forgotten():
    def main(ctx, obj):
        t = yield Fork(obj, "run")
        return 0
    return main


def masked_by_helper(ctx, obj):
    t = yield Fork(obj, "run")

    def later(ctx):
        yield Join(t)
    return later


def joined(ctx, cluster, obj):
    t = cluster.fork(obj, "run")
    t.join()


def started(ctx, obj):
    t = yield NewThread(obj, "run")
    yield Start(t)


def by_invoke(ctx, obj):
    t = yield Fork(obj, "run")
    yield Invoke(t, "join")
''',
    "amb104-moves": '''\
def run_attached():
    def main(ctx, a, b, node):
        yield Attach(a, b)
        yield MoveTo(a, node)
    return main


def move_first(ctx, a, b, node):
    yield MoveTo(a, node)
    yield Attach(a, b)


def in_branches(ctx, a, b, node, flag):
    if flag:
        yield Attach(a, b)
    else:
        yield Compute(1.0)
    for _ in range(2):
        yield MoveTo(a, node)
    yield MoveTo(b, node)
''',
    "amb105-amb108-spinlocks": '''\
def local_spin(self, ctx, t, remote):
    s = yield New(SpinLock)
    yield Invoke(s, "acquire")
    yield Join(t)
    yield Invoke(remote, "poke")
    yield Invoke(s, "release")
    yield Invoke(remote, "poke")


def annotated(self, ctx, s: SpinLock, lock, t):
    yield Invoke(s, "acquire")
    try:
        yield Invoke(lock, "acquire")
        yield Sleep(5.0)
    finally:
        yield Invoke(lock, "release")
        yield Invoke(s, "release")


def forward_ref(self, ctx, s: "SpinLock", o: Optional[SpinLock], t):
    yield Invoke(s, "acquire")
    yield Join(t)
    yield Invoke(s, "release")
    yield Invoke(o, "acquire")
    yield FastInvoke(t, "poke")
    yield Invoke(o, "release")


class Spinner:
    def __init__(self) -> None:
        self.s = SpinLock()

    def blocks(self, ctx, t):
        yield Invoke(self.s, "acquire")
        yield Join(t)
        yield Invoke(self.s, "release")

    def invokes(self, ctx, far):
        self.s.acquire()
        if far:
            yield Invoke(far, "poke")
        self.s.release()


def run_closure(s: SpinLock):
    def main(ctx, t):
        yield Invoke(s, "acquire")
        yield Suspend()
        yield Invoke(s, "release")
    return main
''',
    "amb106-barriers": '''\
def counted(ctx, workers):
    bar = yield New(Barrier, 3)
    for i in range(4):
        yield Fork(workers[i], "run", bar)
    yield Join(bar)


def with_master(ctx, workers):
    bar = Barrier(parties=5)
    for i in range(2):
        for j in range(2):
            t = yield Fork(workers[i], "run", bar)
            yield Join(t)


def uncountable(ctx, workers, n, flag):
    bar = yield New(Barrier, 2)
    for i in range(n):
        t = yield Fork(workers[i], "run", bar)
        yield Join(t)
    if flag:
        t = yield Fork(workers[0], "run", bar)
        yield Join(t)


def try_and_with(ctx, workers, res):
    bar = yield New(Barrier, 7)
    try:
        t = yield Fork(workers[0], "run", bar)
    finally:
        u = yield Fork(workers[1], "run", bar)
    with res:
        v = yield Fork(workers[2], "run", bar)
    yield Join(t)
''',
    "amb107-double-joins": '''\
def twice(ctx, obj):
    t = yield Fork(obj, "run")
    yield Join(t)
    yield Join(t)


def one_arm(ctx, obj, flag):
    t = yield Fork(obj, "run")
    if flag:
        yield Join(t)
    yield Join(t)


def in_loop(ctx, obj):
    t = yield Fork(obj, "run")
    for _ in range(2):
        yield Join(t)


def reforked(ctx, obj):
    t = yield Fork(obj, "run")
    yield Join(t)
    t = yield Fork(obj, "run")
    yield Join(t)


def in_try(ctx, obj):
    t = yield Fork(obj, "run")
    try:
        yield Join(t)
    finally:
        t.join()
''',
    "amb109-seals": '''\
def run_sealed():
    def main(ctx, cfg):
        yield SetImmutable(cfg)
        cfg.limit = 3
    return main


def write_first(ctx, cfg):
    cfg.limit = 3
    yield SetImmutable(cfg)


def live_seal(cluster, cfg, other):
    cluster.set_immutable(cfg)
    other.limit = 1
    cfg.limit += 1
    cfg.a, cfg.b = 1, 2
''',
    "flow-shapes": '''\
class Item:
    def __init__(self) -> None:
        self.n = 0

    def bump(self, ctx):
        self.n += 1
        yield Compute(1.0)


class Shelf:
    def __init__(self, first: "Item", rest: List[Item],
                 spare: Optional[Item] = None) -> None:
        self.first = first
        self.rest = rest
        self.spare = spare
        self.pair = [first, first]
        self.lock = Lock()

    def touch(self, ctx, extra: Item):
        yield Invoke(self.lock, "acquire")
        yield Invoke(self.first, "bump")
        for item in self.rest:
            yield Invoke(item, "bump")
        yield Invoke(self.rest[0], "bump")
        yield Invoke(extra, "bump")
        yield Invoke(self.lock, "release")

    def sweep(self, ctx):
        def each(items: List[Item]):
            for i, item in enumerate(items):
                yield Invoke(item, "bump")
        yield from each(self.rest)


def run_shelf(n):
    def main(ctx):
        items = []
        for i in range(3):
            items.append((yield New(Item, on_node=i)))
        shelf = yield New(Shelf, items[0], items)
        scratch = []
        t = yield Fork(shelf, "touch", scratch)
        u = yield Fork(shelf, "sweep", scratch)
        scratch.append(1)
        yield Attach(items[0], shelf)
        yield MoveTo(shelf, 1)
        yield SetImmutable(items[1])
        yield Join(t)
        yield Join(u)
    return main
''',
    "elide-nested-helper-lock": '''\
class Sink:
    def __init__(self) -> None:
        self.uses = 0

    def use(self, ctx, gate):
        yield Invoke(gate, "acquire")
        self.uses += 1
        yield Invoke(gate, "release")


class Worker:
    def __init__(self, sink: "Sink") -> None:
        self.sink = sink

    def run(self, ctx):
        def fan_out(sink):
            shared = yield New(Lock)
            first = yield Fork(sink, "use", shared)
            second = yield Fork(sink, "use", shared)
            yield Join(first)
            yield Join(second)

        private = yield New(Lock)
        yield Invoke(private, "acquire")
        yield from fan_out(self.sink)
        yield Invoke(private, "release")


def main(ctx):
    sink = yield New(Sink)
    worker = yield New(Worker, sink)
    yield Invoke(worker, "run")
''',
    "elide-module-helper-lock": '''\
class Sink:
    def __init__(self) -> None:
        self.uses = 0

    def use(self, ctx, gate):
        yield Invoke(gate, "acquire")
        self.uses += 1
        yield Invoke(gate, "release")


def fan_out(sink):
    shared = yield New(Lock)
    first = yield Fork(sink, "use", shared)
    second = yield Fork(sink, "use", shared)
    yield Join(first)
    yield Join(second)


class Worker:
    def __init__(self, sink: "Sink") -> None:
        self.sink = sink

    def run(self, ctx):
        private = yield New(Lock)
        yield Invoke(private, "acquire")
        yield from fan_out(self.sink)
        yield Invoke(private, "release")


def main(ctx):
    sink = yield New(Sink)
    worker = yield New(Worker, sink)
    yield Invoke(worker, "run")
''',
    "elide-annotated-scopes": '''\
class Cell:
    def __init__(self) -> None:
        self.v = 0

    def put(self, ctx, v, guard=None):
        self.v = v
        yield Compute(1.0)


class Keeper:
    def __init__(self, cell: "Cell") -> None:
        self.cell = cell
        self.latch = Lock()

    def run(self, ctx):
        yield Invoke(self.latch, "acquire")
        yield Invoke(self.cell, "put", 1)
        yield Invoke(self.latch, "release")


def store(ctx, cell: Cell, keeper: Keeper):
    guard = yield New(Lock)
    yield Invoke(cell, "put", 2, guard)
    keeper.cell = cell


def run_outer():
    def main(ctx):
        cell = yield New(Cell)
        keeper = yield New(Keeper, cell)

        def spawn():
            t = yield Fork(keeper, "run")
            yield Join(t)
        yield from spawn()
        yield from store(ctx, cell, keeper)
    return main
''',
}


def corpus() -> Dict[str, Sources]:
    """Every program of the corpus, by name."""
    programs: Dict[str, Sources] = {}
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        for name, paths in TREES.items():
            sources, errors = collect_sources(paths)
            assert sources and not errors, (name, errors)
            programs[name] = sources
    finally:
        os.chdir(cwd)
    # The names and paths the golden is keyed by: the fixtures that pin
    # a classification are the AMB3xx ones.
    for name, fixture in FIXTURES.items():
        if fixture.confined is None:
            programs[f"flow-fixture:{name}"] = [(f"<flow:{name}>",
                                                fixture.source)]
        else:
            programs[f"elide-fixture:{name}"] = fixture.sources()
    for name, text in SNIPPETS.items():
        programs[f"snippet:{name}"] = [(f"<snippet:{name}>", text)]
    return programs


def _rows(records: Any) -> List[List[Any]]:
    """Dataclass records as lists, in an order of their own."""
    rows = [json.loads(json.dumps(dataclasses.astuple(record)))
            for record in records]
    return sorted(rows, key=json.dumps)


def answers(sources: Sources) -> Dict[str, Any]:
    """What the three passes say about one program."""
    model = scan_sources(sources)
    emodel = classify(model)
    return {
        "lint": [finding.render() for path, text in sources
                 for finding in lint_source(text, path)],
        "flow": {
            "invokes": _rows(model.invokes),
            "forks": _rows(model.forks),
            "news": _rows(model.news),
            "moves": _rows(model.moves),
            "escapes": _rows(model.escapes),
            "immutable_classes": sorted(model.immutable_classes),
            "attach_pairs": sorted(map(list, model.attach_pairs)),
            "errors": sorted(map(list, model.errors.items())),
            "classes": {
                name: {
                    "at": [cls.path, cls.line],
                    "bases": list(cls.bases),
                    "field_classes": sorted(
                        map(list, cls.field_classes.items())),
                    "field_elems": sorted(
                        map(list, cls.field_elems.items())),
                    "methods": {
                        method.name: {
                            "line": method.line,
                            "reads": sorted(method.reads),
                            "writes": sorted(
                                map(list, method.writes.items())),
                        } for method in cls.methods.values()},
                } for name, cls in model.classes.items()},
        },
        "flow_diagnostics": [
            finding.render()
            for finding in flow_diagnostics(model, dict(sources))],
        "hints": derive_hints(model).fingerprint,
        "elide": {
            "confined": emodel.confined,
            "immutable": emodel.immutable,
            "shared": emodel.shared,
            "lock_sites": _rows(emodel.lock_sites),
            "diagnose": [finding.render()
                         for finding in diagnose(emodel, sources)],
        },
    }


def observe() -> Dict[str, Any]:
    return {name: answers(sources)
            for name, sources in corpus().items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_the_corpus_is_the_one_that_was_pinned(golden):
    assert sorted(golden) == sorted(corpus())
    assert len(SNIPPETS) >= 12


@pytest.mark.parametrize("name", sorted(corpus()))
def test_program_answers_match_golden(golden, name):
    observed = json.loads(json.dumps(answers(corpus()[name])))
    expected = golden[name]
    for key in expected:
        assert observed[key] == expected[key], f"{name}: {key}"
    assert observed == expected


def test_every_invoked_immutable_class_is_replicated_or_spread():
    """Why the hints need no promotion from AmberElide: a class it
    proves effectively immutable that another class invokes already
    has flow's ``replicate`` hint, or is spread.  If flow's replicate
    rule drifts from the immutability proof, this fails."""
    checked = 0
    for name, sources in corpus().items():
        model = scan_sources(sources)
        replicated = set(derive_hints(model).replicate_classes())
        spread = model.spread_classes()
        invoked = model.invoked_by()
        for cls in classify(model).immutable:
            if any(caller != cls for caller in invoked.get(cls, {})):
                assert cls in replicated | spread, (name, cls)
                checked += 1
    assert checked >= 6, checked     # MatrixB, SumTable, Table, ...


def test_the_corpus_exercises_every_rule_and_every_answer(golden):
    """The pinned programs are not trivially quiet."""
    rendered = "\n".join(
        line for program in golden.values()
        for line in (program["lint"] + program["flow_diagnostics"]
                     + program["elide"]["diagnose"]))
    for rule in ("AMB101", "AMB102", "AMB103", "AMB104", "AMB105",
                 "AMB106", "AMB107", "AMB108", "AMB109",
                 "AMB201", "AMB202", "AMB203", "AMB204", "AMB205",
                 "AMB301", "AMB302", "AMB303", "AMB304"):
        assert f" {rule} " in rendered, rule
    for key in ("invokes", "forks", "news", "moves", "escapes",
                "immutable_classes", "attach_pairs"):
        assert any(program["flow"][key] for program in golden.values())
    apps = golden["apps+examples"]
    assert apps["lint"] == [] and len(apps["flow"]["classes"]) > 10
    assert any(site[5] for program in golden.values()      # elidable
               for site in program["elide"]["lock_sites"])
    assert any(cls["field_elems"] for program in golden.values()
               for cls in program["flow"]["classes"].values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
