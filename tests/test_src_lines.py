"""scripts/src_lines.py: every line of a module is counted once, as
code, docstring, comment or blank."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULES = sorted((ROOT / "src" / "jacmod").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_the_four_parts_sum_to_the_line_count(path):
    source = path.read_text()
    counts = src_lines.count_lines(source)
    assert counts["all"] == len(source.splitlines())
    assert sum(counts[kind] for kind in src_lines.KINDS) == counts["all"]


def test_each_kind_of_line():
    source = '''"""Module.

Its blank line is a docstring line."""

# a comment
X = 1  # code with a comment


class A:
    """Class."""

    def f(self):
        """Function,
        two lines."""
        return "not a docstring"
'''
    assert src_lines.count_lines(source) == {
        "code": 4,
        "docstring": 6,
        "comment": 1,
        "blank": 4,
        "all": 15,
    }
