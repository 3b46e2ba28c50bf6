"""``tools/code_lines.py`` counts the lines that are not blank, comment or docstring."""

import ast
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
x = 1  # code, then a comment


def f(a):
    """A one-line docstring."""
    s = """a string that is not a docstring,
over two lines"""
    return a + len(s)


class C:
    """A class docstring.

    Its body.
    """

    y = (1,
         2)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count():
    code_lines = load_tool()
    # x = 1; def f; both lines of s; return; class C; both lines of y
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.docstring_lines(ast.parse(SOURCE)) == {1, 2, 9, 16, 17, 18, 19}


def test_prints_each_file_and_the_total(tmp_path, capsys):
    code_lines = load_tool()
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE)
    b.write_text("# only a comment\n\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "     8  a.py\n     0  b.py\n     8  total\n"
