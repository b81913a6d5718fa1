import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


# a comment alone
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = """a string
that is not a docstring"""
        return (x,
                math.pi)
'''


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks():
    # import, class, def, the two lines of x and the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# y = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["8", "total"]
