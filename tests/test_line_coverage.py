"""tools/line_coverage.py, run as a script, traces hubplan commands and
reports the statements they never ran."""
import importlib.util
import inspect
import os
import shlex
import subprocess
import sys

from hubplan import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "line_coverage.py")


def _tool():
    spec = importlib.util.spec_from_file_location("_line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_reports_what_a_command_never_ran(data_dir):
    config = os.path.join(data_dir, "desk_run.json")
    command = f"validate --config {shlex.quote(config)}"
    path = filter(None, [os.path.join(ROOT, "src"),
                         os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, TOOL, command], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120)
    lines = proc.stdout.splitlines()
    # the command's own output, its exit status, then the report
    at = lines.index(f"exit 0: hubplan {command}")
    assert lines[at + 1] == "statements of src/hubplan never run"
    assert lines[-1].endswith(" statements never ran")
    # expand the spans of cli.py's line over its statements, in order
    every = sorted(_tool().statements(cli.__file__))
    spans = next(line for line in lines
                 if line.startswith("hubplan/cli.py: ")).split(": ")[2]
    missed = set()
    for span in spans.split(", "):
        first, _, last = span.partition("-")
        missed.update(s for s in every if int(first) <= s <= int(last or first))

    def body(func):
        src, start = inspect.getsourcelines(func)
        return {s for s in every if start < s < start + len(src)}

    assert body(cli.cmd_plan) and body(cli.cmd_plan) <= missed
    assert min(body(cli.cmd_validate)) not in missed
