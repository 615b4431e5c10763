"""Command-line pipeline: validate inputs, generate scenario days, plan the
hub, sweep carbon taxes, export the model as MPS.

Exit codes are a stable scripting contract: 0 success, 1 input error,
2 best-effort (tolerance or limit not met, a solved plan failing its
verdicts, a sweep with no level verified optimal, or a solver failure),
3 a model proven infeasible, reported with a hint. plan is a sweep of one
level: both solve through analysis.sweep_carbon_tax, which records a level
whose solve raises as an error, and report the one status
analysis.solve_level decides. Given the same inputs and seed, reruns write
byte-identical CSVs; audit.json differs only in its wall-time field.
"""

import argparse
import math
import os
import sys
import time
from typing import NamedTuple

from . import __version__
from .analysis import (EXTREMES, dispatch_table, select_extreme_scenario,
                       soc_table, sweep_carbon_tax, write_cost_breakdown,
                       write_plan_summary)
# the pipeline calls these through hubplan.analysis. perfbench reads them
# here: workloads.Capture.install wraps cli.branch_and_bound in every run,
# traced or not, and tracer.py hooks all six when tracing
from .analysis import (branch_and_bound, chance_audit, check_solution,
                       cost_breakdown, extract_solution, verify_plan)
from .errors import (HubplanError, InvalidParameterError, ModelBuildError,
                     MomentFitError, MpsFormatError, ParseError)
from .fileio import (read_case, read_history, read_json, read_scenario_set,
                     write_audit_json, write_scenario_set, write_table_csv,
                     write_text)
from .milp import write_mps
from .milp.bnb import check_limits
from .model import ModelConfig, assemble_model
from .scengen import check_history, generate_scenarios

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_INFEASIBLE = 3


def _text(key, value):
    if not isinstance(value, str):
        raise InvalidParameterError(f"{key} must be a string, got {value!r}")
    return value


def _path(key, value):
    """A file path; in a config file, relative to the file's directory."""
    return _text(key, value)


def _int(key, value):
    """value as an int; a bool or a fractional number is refused, not
    truncated."""
    if not isinstance(value, bool) \
            and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise InvalidParameterError(f"{key} must be an integer, got {value!r}")


def _float(key, value):
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidParameterError(f"{key} must be a number, got {value!r}")


def _checked(convert, ok, rule, name=None):
    """A converter that refuses what ok rejects: '<name> must be <rule>',
    name defaulting to the key."""
    def check(key, value):
        x = convert(key, value)
        if not ok(x):
            raise InvalidParameterError(f"{name or key} must be {rule}, "
                                        f"got {x!r}")
        return x
    return check


def _taxes(key, value):
    """Carbon-tax levels (yuan per ton) from a number, a list or
    comma-separated text."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    tax = _checked(_float, lambda t: math.isfinite(t) and t >= 0.0,
                   "finite and >= 0")
    return [tax(key, v) for v in (value if isinstance(value, list)
                                  else [value])]


def _can_be_dir(path):
    """Whether path is a directory or can be made one: the nearest of it
    and its ancestors that exists is a directory."""
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path)


class _Option(NamedTuple):
    default: object
    convert: object  # (key, value) -> checked value, or InvalidParameterError
    flag: str
    help: str


# Every run option, in --help order. A key whose default is None may stay
# unset (None); every other value, default, config or flag, is converted.
_OPTIONS = {
    "case": _Option(None, _path, "--case",
                    "case JSON (catalog, tariffs, horizon)"),
    "out": _Option("out", _checked(_text, _can_be_dir,
                                   "a directory or a new path below one"),
                   "--out", "output directory (default: out)"),
    "seed": _Option(7, _checked(_int, lambda n: -2 ** 63 <= n < 2 ** 63,
                                "a signed 64-bit integer"),
                    "--seed", "scenario-generation seed"),
    "zeta": _Option(0.05, _float, "--zeta", "chance-constraint risk level"),
    "carbon_tax": _Option(None, _taxes, "--carbon-tax", "carbon tax "
                          "level(s) in yuan/ton, comma-separated"),
    "extreme": _Option("elec", _checked(_text, EXTREMES.__contains__,
                                        f"one of {EXTREMES}"),
                       "--extreme", "which extreme scenario to report in "
                       f"detail: {' or '.join(EXTREMES)}"),
    "scenarios": _Option(None, _path, "--scenarios",
                         "scenario profile CSV (skip generation)"),
    "scenario_ev": _Option(None, _path, "--scenario-ev", "scenario EV CSV"),
    "history_loads": _Option(None, _path, "--history-loads",
                             "historical profile CSV"),
    "history_ev": _Option(None, _path, "--history-ev", "historical EV CSV"),
    "n_scenarios": _Option(10, _checked(_int, lambda n: n >= 2, ">= 2",
                                        name="n"),
                           "--n", "number of scenarios to generate"),
    "rel_gap": _Option(1e-6, _float, "--rel-gap",
                       "branch-and-bound relative gap"),
    "max_nodes": _Option(100000, _int, "--max-nodes",
                         "branch-and-bound node limit"),
    "time_limit_s": _Option(None, _float, "--time-limit",
                            "branch-and-bound time limit in seconds"),
}

_PATH_KEYS = tuple(k for k, opt in _OPTIONS.items() if opt.convert is _path)


def load_config(args) -> dict:
    """Merge defaults, the optional --config JSON, then explicit flags, and
    check each value by its _OPTIONS entry; adds "model_config" and the
    checked branch-and-bound "limits"."""
    raw = {key: opt.default for key, opt in _OPTIONS.items()}
    if getattr(args, "config", None):
        path = args.config
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ParseError("config must be a JSON object", path=path)
        unknown = sorted(set(doc) - set(_OPTIONS))
        if unknown:
            raise ParseError(f"unknown config keys: {', '.join(unknown)}",
                             path=path)
        base = os.path.dirname(os.path.abspath(path))
        for key, val in doc.items():
            if key in _PATH_KEYS and isinstance(val, str):
                val = os.path.join(base, val)
            raw[key] = val
    for key in raw:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag
    cfg = {key: None if val is None and _OPTIONS[key].default is None
           else _OPTIONS[key].convert(key, val) for key, val in raw.items()}
    cfg["model_config"] = ModelConfig(zeta=cfg["zeta"])
    cfg["limits"] = {key: cfg[key]
                     for key in ("rel_gap", "max_nodes", "time_limit_s")}
    check_limits(**cfg["limits"])
    return cfg


def _require(cfg, key, hint):
    if not cfg.get(key):
        raise InvalidParameterError(f"{hint} required: give --{key.replace('_', '-')} "
                                    "or set it in the config file")
    return cfg[key]


def _read_inputs(cfg, out=None):
    """The case and its ScenarioSet: read from files when given, else
    generated from history and, with out given, written there with its
    generation log (scen_log.json).

    Returns (case, scenario_set, source, gen_log_or_None); source holds
    what audit.json records of where the scenarios came from.
    """
    case = read_case(_require(cfg, "case", "case file"))
    if cfg["scenarios"]:
        scen = read_scenario_set(cfg["scenarios"], case,
                                 ev_path=cfg["scenario_ev"])
        return case, scen, {"scenario_source": "files"}, None
    loads = _require(cfg, "history_loads", "history or scenario files")
    elec, heat, pv, ev = read_history(loads, cfg["history_ev"])
    scen, raw = generate_scenarios(
        case, elec, heat, pv, ev, n_scenarios=cfg["n_scenarios"],
        seed=cfg["seed"])
    log = {"seed": raw.seed, "converged": raw.converged,
           "best_iteration": raw.best_iteration,
           "iterations": raw.iteration_log}
    if out is not None:
        write_scenario_set(scen, os.path.join(out, "scenarios.csv"),
                           os.path.join(out, "scenarios_ev.csv"))
        write_audit_json(os.path.join(out, "scen_log.json"), log)
    return case, scen, {"scenario_source": "generated", "seed": raw.seed}, log


def cmd_validate(cfg):
    case = read_case(_require(cfg, "case", "case file"))
    print(f"case ok: {len(case.catalog.fuel_cells)} fuel-cell types, "
          f"T={case.hours_per_day}, fleet of {case.catalog.ev_fleet.n_ev}")
    if cfg["scenarios"]:
        scen = read_scenario_set(cfg["scenarios"], case,
                                 ev_path=cfg["scenario_ev"])
        print(f"scenarios ok: {scen.grid.n_scenarios} days")
    elif cfg["history_loads"]:
        elec, heat, pv, ev = read_history(cfg["history_loads"],
                                          cfg["history_ev"])
        check_history(case, elec.shape[1], ev.shape[1])
        print(f"history ok: {elec.shape[0]} days, {ev.shape[1]} vehicles")
    return EXIT_OK


def cmd_scen_gen(cfg):
    out = cfg["out"]
    _case, scen, _source, log = _read_inputs(dict(cfg, scenarios=None), out)
    # the errors of the round whose panel was written
    best = (log["iterations"][log["best_iteration"] - 1]
            if log["best_iteration"] else {})
    print(f"wrote {scen.grid.n_scenarios} scenarios to {out} "
          f"(converged={log['converged']}, "
          f"moment_err={best.get('moment_err', float('nan')):.4f}, "
          f"corr_err={best.get('corr_err', float('nan')):.4f})")
    return EXIT_OK if log["converged"] else EXIT_PARTIAL


def _single_tax(cfg, command):
    """The one carbon tax (yuan per ton) of cfg, or None for the case's."""
    taxes = cfg["carbon_tax"]
    if taxes is not None and len(taxes) != 1:
        raise InvalidParameterError(
            f"{command} takes a single carbon tax; use sweep for a list")
    return taxes[0] if taxes else None


def cmd_plan(cfg):
    tax = _single_tax(cfg, "plan")
    out, config = cfg["out"], cfg["model_config"]
    case, scen, source, _log = _read_inputs(cfg, out)
    if tax is None:
        tax = case.tariffs.carbon_tax * 1000.0
    level = sweep_carbon_tax(case.catalog, case.tariffs, scen, config, [tax],
                             **cfg["limits"]).levels[0]

    audit_doc = {"command": "plan", **level.as_dict(), "zeta": config.zeta,
                 **source}
    plan = level.plan
    if plan is not None:
        s_id = select_extreme_scenario(scen, cfg["extreme"])
        hdr, rows = dispatch_table(plan, scen, case.catalog, case.tariffs,
                                   s_id)
        write_table_csv(os.path.join(out, f"dispatch_{s_id}.csv"), hdr, rows)
        hdr, rows = soc_table(plan, case.catalog, s_id)
        write_table_csv(os.path.join(out, f"soc_{s_id}.csv"), hdr, rows)
        audit_doc["extreme_scenario"] = s_id
    write_audit_json(os.path.join(out, "audit.json"), audit_doc)
    if level.infeasible_hint is not None:
        print(f"infeasible: {level.infeasible_hint}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if level.status != "optimal":
        print(f"status {level.status}: {level.error}", file=sys.stderr)
        return EXIT_PARTIAL
    audit = level.audit
    print(f"optimal {level.bnb.objective:.4f} in {level.bnb.n_nodes} nodes; "
          f"x_fc {plan.x_fc}, bess {plan.x_ess:.1f} kWh; audit passed "
          f"({audit.count}/{audit.limit} substandard)")
    return EXIT_OK


def cmd_sweep(cfg):
    taxes = cfg["carbon_tax"]
    if not taxes:
        raise InvalidParameterError("sweep needs --carbon-tax with at least "
                                    "one level (yuan per ton)")
    out = cfg["out"]
    case, scen, source, _log = _read_inputs(cfg, out)
    t0 = time.perf_counter()
    sweep = sweep_carbon_tax(case.catalog, case.tariffs, scen,
                             cfg["model_config"], taxes, **cfg["limits"])
    wall = time.perf_counter() - t0

    write_plan_summary(os.path.join(out, "plan_summary.csv"), sweep,
                       case.catalog)
    write_cost_breakdown(os.path.join(out, "cost_breakdown.csv"), sweep)
    write_audit_json(os.path.join(out, "audit.json"), {
        "command": "sweep",
        "wall_time_s": wall,
        **source,
        "levels": [lv.as_dict() for lv in sweep.levels],
        "notes": sweep.notes,
    })
    n_ok = sum(lv.status == "optimal" for lv in sweep.levels)
    for lv in sweep.levels:
        total = "-" if lv.status != "optimal" else f"{lv.breakdown.total:.1f}"
        print(f"tax {lv.carbon_tax:7.1f}: {lv.status:10s} total {total}")
    return EXIT_OK if n_ok >= 1 else EXIT_PARTIAL


def cmd_export_mps(cfg):
    tax = _single_tax(cfg, "export-mps")
    case, scen, _source, _log = _read_inputs(cfg)
    tariffs = case.tariffs if tax is None else case.tariffs.with_carbon_tax(tax)
    model = assemble_model(scen.grid, case.catalog, tariffs, scen,
                           cfg["model_config"])
    path = os.path.join(cfg["out"], "model.mps")
    write_text(path, write_mps(model))
    print(f"wrote {path}: {model.n_rows} rows, {model.n_cols} cols")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Its subparsers are of its class too, so a usage error in any command
    exits 1 with the `error: ` line of every other input error."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="hubplan",
        description="chance-constrained capacity planning for a "
                    "building-scale multi-energy hub")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # every command takes every option: flag values are strings here and
    # are converted with config values in load_config
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config",
                        help="JSON config; flags override its keys")
    for key, opt in _OPTIONS.items():
        common.add_argument(opt.flag, dest=key, help=opt.help)

    scen = sub.add_parser("scen", help="scenario utilities")
    scen_sub = scen.add_subparsers(dest="scen_command", required=True)
    scen_sub.add_parser("gen", parents=[common], help="generate "
                        "moment-matched scenario days from history"
                        ).set_defaults(run=cmd_scen_gen)
    for name, run, help_text in (
            ("plan", cmd_plan,
             "solve the planning problem and write reports"),
            ("sweep", cmd_sweep, "solve across carbon-tax levels"),
            ("export-mps", cmd_export_mps,
             "write the assembled model in MPS format"),
            ("validate", cmd_validate,
             "parse and validate inputs, then stop")):
        sub.add_parser(name, parents=[common],
                       help=help_text).set_defaults(run=run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_config(args))
    except (ParseError, InvalidParameterError, ModelBuildError,
            MpsFormatError, MomentFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HubplanError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
