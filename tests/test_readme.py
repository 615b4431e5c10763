"""The README's examples run as written against a copy of the bundled data."""
import collections
import dataclasses
import json
import os
import re
import shlex
import shutil

import pytest

from hubplan import cli
from hubplan.core import EvRecord
from hubplan.fileio import CaseData, write_case, write_scenario_set

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(lang):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)


def _config_keys():
    """The keys of the option table in the README's Command line section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command line")[1].split("\n## ")[0]
    return re.findall(r"^\| `(\w+)` \|", section, re.M)


def _audit_keys():
    """Each key of the README's audit.json table and who writes it: plan,
    sweep, or level (each entry of sweep's levels)."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## audit.json\n")[1].split("\n## ")[0]
    return {key: set(re.findall(r"\b(?:plan|sweep|level)\b", by))
            for key, by in re.findall(r"^\| `(\w+)` \| (.*?) \|", section,
                                      re.M)}


def _layout_modules():
    """The modules named in the README's Package layout table."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Package layout\n")[1].split("\n## ")[0]
    return re.findall(r"^\| `(hubplan[\w.]*)` \|", section, re.M)


def _commands():
    """argv of every ``hubplan`` command in the README's sh blocks."""
    out = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["hubplan"]:
                out.append(argv[1:])
    return out


@pytest.fixture
def data_copy(data_dir, tmp_path, monkeypatch):
    work = tmp_path / "data"
    shutil.copytree(data_dir, work)
    monkeypatch.chdir(work)
    return work


def test_readme_has_examples():
    assert len(_blocks("python")) == 1
    assert [argv[0] for argv in _commands()] == [
        "scen", "plan", "sweep", "export-mps", "validate"]


def test_readme_lists_every_config_key():
    keys = _config_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli._OPTIONS)


def test_readme_lists_every_module():
    # every module under src/hubplan, once; a package's __init__ only
    # re-exports, so the packages themselves have no row
    root = os.path.dirname(cli.__file__)
    modules = []
    for folder, _dirs, files in os.walk(root):
        package = os.path.relpath(folder, os.path.dirname(root))
        modules += [".".join([*package.split(os.sep), name[:-3]])
                    for name in files
                    if name.endswith(".py") and name != "__init__.py"]
    listed = _layout_modules()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(modules)


def test_readme_lists_every_audit_key(data_dir, tiny, tmp_path):
    # an optimal plan and sweep of generated days, and an infeasible one
    # of the tiny case's days with a vehicle that cannot reach its target
    stuck = tmp_path / "stuck"
    write_case(CaseData(catalog=tiny.catalog, tariffs=tiny.tariffs,
                        hours_per_day=4, planning_years=10,
                        discount_rate=0.06), str(stuck / "case.json"))
    write_scenario_set(dataclasses.replace(tiny.scen, scenarios=tuple(
        dataclasses.replace(sc, ev_records=(EvRecord(0, 1, 0.2),))
        for sc in tiny.scen.scenarios)), str(stuck / "s.csv"),
        str(stuck / "s_ev.csv"))
    runs = {"generated": ["--config", os.path.join(data_dir, "desk_run.json"),
                          "--n", "2"],
            "infeasible": ["--case", str(stuck / "case.json"),
                           "--scenarios", str(stuck / "s.csv"),
                           "--scenario-ev", str(stuck / "s_ev.csv"),
                           "--zeta", "0.0"]}
    written = collections.defaultdict(set)
    for name, argv in runs.items():
        for command in ("plan", "sweep"):
            out = tmp_path / name / command
            cli.main([command, *argv, "--carbon-tax", "40", "--out", str(out)])
            with open(out / "audit.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            for key in doc:
                written[key].add(command)
            for level in doc.get("levels", []):
                for key in level:
                    written[key].add("level")
    assert _audit_keys() == written


def test_readme_library_example(data_copy):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[0])
def test_readme_command(data_copy, tmp_path, argv):
    out = str(tmp_path / "out")
    argv = [out if prev == "--out" else a
            for prev, a in zip([None] + argv, argv)]
    # scen gen exits 2 on the bundled history: the generator does not meet
    # its moment tolerance there (see ROADMAP)
    assert cli.main(argv) in ((0, 2) if argv[0] == "scen" else (0,))
