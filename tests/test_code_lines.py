"""The counting rules of tools/code_lines.py, which line-count figures for
src/migsim are quoted from: docstrings, comments and blank lines do not
count, and each physical line of a multi-line statement does."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load_tool():
    # tools/ is not a package, so the module is loaded from its file
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load_tool()

SOURCE = '''"""A module docstring
over two lines."""

# a comment on its own line
import os  # a trailing comment does not hide the code


def add(a,
        b):
    """A function docstring."""

    return (a
            + b
            )


class Box:
    """A class docstring
    over two lines."""

    label = """a string that is not a docstring
spans two lines"""
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines("# a comment\n\n   \n") == 0
    assert code_lines.code_lines("x = 1  # a comment\n") == 1


def test_each_physical_line_of_a_statement_counts():
    assert code_lines.code_lines("total = (1 +\n         2)\n") == 2
    # the import, the def's two lines, the return's three, the class line
    # and the two lines of the string assigned to label
    assert code_lines.code_lines(SOURCE) == 1 + 2 + 3 + 1 + 2


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\n')
    (tmp_path / "b.py").write_text("y = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("z = 3\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py", "     3  b.py", "     4  total"]
