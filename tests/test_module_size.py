"""No module under ``src/repro`` grows past 700 lines.  The few already
past it are pinned at their size when this ratchet came in and may only
shrink; an entry leaves the list once its module is back under the
ceiling.  Lines are counted as ``wc -l`` does.
"""

from tests.test_kernel_layering import SRC

PACKAGE = SRC / "repro"
MAX_MODULE_LINES = 700

#: Module -> its ceiling, today's size.
EXCEPTIONS = {
    "sim/kernel.py": 987,
    "sim/mobility.py": 713,
    "analyze/elide/scenario.py": 713,
}


def _sizes():
    return {path.relative_to(PACKAGE).as_posix(): path.read_text().count("\n")
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_no_module_grows_past_its_ceiling():
    over = {name: lines for name, lines in _sizes().items()
            if lines > EXCEPTIONS.get(name, MAX_MODULE_LINES)}
    assert not over, over


def test_every_exception_is_still_over_the_ceiling():
    sizes = _sizes()
    assert {name: sizes.get(name, 0) for name in EXCEPTIONS
            if sizes.get(name, 0) <= MAX_MODULE_LINES} == {}
