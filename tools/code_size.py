"""Code size of Python modules: lines and code tokens per module, then the
total.

Run from the repo root:
    python3 tools/code_size.py [path ...]

Each path is a .py file or a folder searched for .py files; the default is
src/hubplan. A module's lines are its physical lines. Its code tokens are
the tokens of the tokenize module, leaving out comments, docstrings and the
layout tokens (NL, NEWLINE, INDENT, DEDENT, ENDMARKER). A docstring is a
string that forms a whole statement at the start of a module, class or
function body.
"""

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source):
    """(row, col) of the first token of every docstring in source."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def measure(source):
    """(lines, code tokens) of the Python source text."""
    docs = _docstring_starts(source)
    tokens = 0
    in_doc = False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start in docs:
            in_doc = True  # a docstring runs to the end of its statement
        if in_doc:
            in_doc = tok.type != tokenize.NEWLINE
        elif tok.type not in _LAYOUT:
            tokens += 1
    return len(source.splitlines()), tokens


def modules(paths):
    """The .py files named by paths, folders searched in sorted order."""
    for path in paths:
        if os.path.isdir(path):
            for folder, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(folder, name)
        else:
            yield path


def main(paths):
    """Print lines and code tokens of each module of paths, then the
    total."""
    total_lines = total_tokens = 0
    print(f"{'lines':>7} {'tokens':>7}  module")
    for path in modules(paths or ["src/hubplan"]):
        with open(path, encoding="utf-8") as fh:
            lines, tokens = measure(fh.read())
        total_lines, total_tokens = total_lines + lines, total_tokens + tokens
        print(f"{lines:7d} {tokens:7d}  {path}")
    print(f"{total_lines:7d} {total_tokens:7d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
