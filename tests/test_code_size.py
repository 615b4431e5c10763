"""tools/code_size.py counts lines and code tokens, leaving out comments,
docstrings and layout tokens."""
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "code_size.py")

SNIPPET = '''"""A module docstring
over two lines."""
import os  # a comment


class C:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        return x + "a string"  # a trailing comment
'''


def _tool():
    spec = importlib.util.spec_from_file_location("_code_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_tokens_of_a_snippet():
    # import os | class C : | def f ( self , x ) : | return x + "a string"
    assert _tool().measure(SNIPPET) == (11, 2 + 3 + 8 + 4)


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    _tool().main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["lines", "tokens", "module"],
        ["11", "17", str(tmp_path / "a.py")],
        ["1", "3", str(tmp_path / "sub" / "b.py")],
        ["12", "20", "total"]]
