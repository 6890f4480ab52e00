"""``tools/src_lines.py`` counts each kind of line of a fixture module."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
sl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sl)

FIXTURE = '''"""Module docstring,
two lines."""

# A comment line.
import math  # a trailing comment keeps the line code

TEXT = """a multi-line string
that is not a docstring"""


class Box:
    """Class docstring."""

    def area(self):
        """Method docstring,

        three lines."""
        return math.pi


def bare():
    return 1
'''


def test_counts_each_kind_of_line():
    assert sl.count(FIXTURE) == {"physical": 22, "code": 8, "docstring": 6, "comment": 1}


def test_report_totals_every_module(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    lines = sl.report(tmp_path).splitlines()
    assert lines[0].split() == ["module", "physical", "code", "docstring", "comment"]
    assert lines[1].split() == ["b.py", "3", "1", "0", "1"]
    assert lines[2].split() == ["pkg/a.py", "22", "8", "6", "1"]
    assert lines[3].split() == ["total", "25", "9", "6", "2"]
