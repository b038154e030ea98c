"""The code-line counter in tools/code_lines.py."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 8 code lines: the import, the def, the two lines of the string that is
# not a docstring, the two of the return, the class and its attribute
SOURCE = '''"""A module docstring,
on two lines."""

import os  # a trailing comment

# a comment on its own line


def f(x):
    """A function's docstring."""
    s = """a string,
    not a docstring"""
    return (x +
            1)


class C:
    """A class's docstring."""

    y = 1
'''


def test_counts_code_not_comments_or_docstrings(tmp_path, capsys):
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"
