"""Line coverage of src/hubplan over a pytest run or hubplan commands,
built on sys.settrace.

Run from the repo root, as a pytest plugin over the tests:
    PYTHONPATH=src:tools python -m pytest -p line_coverage -q
or as a script over hubplan commands, each one argument holding the
command's arguments, run in turn through hubplan.cli.main in this process:
    PYTHONPATH=src:tools python tools/line_coverage.py 'validate --config
        src/hubplan/data/desk_run.json' ['<hubplan args>' ...]

Every frame whose code lives under src/hubplan is traced line by line. At
the end of the run the plugin, or the script, prints per module the
statements that never ran, by their first line. Docstrings, def and class
lines and imports are left out, since they run at import. Code run in a
subprocess (the README and fresh-process tests) or in another thread is not
seen. Tracing slows the run several times over; plain test runs do not
load this plugin.
"""

import ast
import os
import shlex
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src", "hubplan")
ROOT = os.path.normpath(ROOT) + os.sep

_hits = {}      # file name -> line numbers that ran
_tracers = {}   # file name -> its line tracer, or None when not traced


def _tracer(filename):
    lines = _hits.setdefault(filename, set())

    def trace(frame, event, _arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    return trace


def _on_call(frame, _event, _arg):
    name = frame.f_code.co_filename
    try:
        return _tracers[name]
    except KeyError:
        path = os.path.abspath(name)
        _tracers[name] = _tracer(path) if path.startswith(ROOT) else None
        return _tracers[name]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (ast.Import, ast.ImportFrom, *_DEFS)


def _docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _line_starts(code):
    """Line numbers on which code or any code nested in it starts a line."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _line_starts(const)
    return lines


def statements(path):
    """{first line: lines of its own} of each reportable statement in the
    file: a compound statement owns its header lines, a simple one all of
    its lines; statements that compile to no code are dropped."""
    with open(path) as fh:
        source = fh.read()
    starts = _line_starts(compile(source, path, "exec"))
    nodes = list(ast.walk(ast.parse(source)))
    docs = {id(node.body[0]) for node in nodes
            if isinstance(node, (ast.Module, *_DEFS)) and node.body
            and _docstring(node.body[0])}
    out = {}
    for node in nodes:
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) \
                or id(node) in docs:
            continue
        body = getattr(node, "body", None)
        last = (max(node.lineno, body[0].lineno - 1)
                if isinstance(body, list) and body else node.end_lineno)
        own = set(range(node.lineno, last + 1))
        if own & starts:
            out[node.lineno] = own
    return out


def missed(path, ran):
    """(first lines of all statements, first lines of those that never
    ran), both sorted."""
    stmts = statements(path)
    return sorted(stmts), sorted(first for first, own in stmts.items()
                                 if not own & ran)


def _spans(lines, order):
    """Collapse runs of consecutive statements (in order) into a-b."""
    index = {line: k for k, line in enumerate(order)}
    out, run = [], []
    for line in lines:
        if run and index[line] != index[run[-1]] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    # before the conftests import hubplan, so module bodies are traced too
    sys.settrace(_on_call)


def report(write_line):
    """Stop tracing and pass write_line, per module of src/hubplan with a
    statement that never ran, its count and spans, then the totals."""
    sys.settrace(None)
    total = total_missed = 0
    for folder, _dirs, files in sorted(os.walk(ROOT)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            every, lines = missed(path, _hits.get(path, set()))
            total, total_missed = total + len(every), total_missed + len(lines)
            if lines:
                rel = os.path.relpath(path, os.path.dirname(ROOT[:-1]))
                write_line(f"{rel}: {len(lines)} of {len(every)}: "
                           f"{_spans(lines, every)}")
    write_line(f"{total_missed} of {total} statements never ran")


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statements of src/hubplan never run")
    report(terminalreporter.write_line)


def main(commands):
    """Run each hubplan command (a string of its arguments) under the
    tracer, print its exit status, then the report."""
    sys.settrace(_on_call)
    from hubplan import cli  # traced from its module body on
    for command in commands:
        try:
            status = cli.main(shlex.split(command))
        except SystemExit as exc:  # argparse's usage errors and --help
            status = exc.code
        print(f"exit {status}: hubplan {command}")
    print("statements of src/hubplan never run")
    report(print)


if __name__ == "__main__":
    main(sys.argv[1:])
