"""``tools/loc.py`` counts code lines: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Shape:
    """A class docstring."""

    sides = 4

    def area(self, x):
        """A function docstring,
        over two lines."""
        # a comment inside the body
        note = """a string that is not a docstring
        counts every line"""
        return (
            math.pi
            * x  # a comment on a continued line

            + len(note)
        )
'''


def test_counts_only_code_lines():
    # import, class, sides, def, the two lines of note, and return ( through )
    assert loc.code_lines(SNIPPET) == 4 + 2 + 5


def test_counts_the_package(capsys):
    loc.main([str(ROOT / "src" / "kickback")])
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(count.replace(",", "")) for name, count in map(str.split, lines)}
    assert counts.pop("total") == sum(counts.values())
    assert set(counts) == {path.stem for path in (ROOT / "src" / "kickback").glob("*.py")}
