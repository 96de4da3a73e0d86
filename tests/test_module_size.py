"""No module under ``src/repro`` grows past 700 lines.  Lines are
counted as ``wc -l`` does.
"""

from tests.test_kernel_layering import SRC

PACKAGE = SRC / "repro"
MAX_MODULE_LINES = 700


def test_no_module_grows_past_its_ceiling():
    sizes = {path.relative_to(PACKAGE).as_posix(): path.read_text().count("\n")
             for path in sorted(PACKAGE.rglob("*.py"))}
    over = {name: lines for name, lines in sizes.items()
            if lines > MAX_MODULE_LINES}
    assert not over, over
