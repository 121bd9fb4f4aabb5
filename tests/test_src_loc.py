"""The code-line count of ``tools/src_loc.py``, on a hand-counted file."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_loc.py"
_spec = importlib.util.spec_from_file_location("src_loc", _PATH)
src_loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_loc)

# Counted lines are marked "+" in the right margin: 7 in all.
SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment                  +


def f(x):  #                                     +
    """Function docstring."""
    # a comment inside
    y = """a string that is
not a docstring"""  #                            + +

    return x + y  #                              +


class C:  #                                      +
    """Class docstring."""

    z = 1  #                                     +
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_loc.code_lines(path) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert src_loc.main(["src_loc.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["0", "b.py"], ["7", "pkg/a.py"], ["7", "total"]]
