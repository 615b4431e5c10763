"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one caller runs a fixed list of operations
(one plan, one sweep level, one chance instance or one generation) and the
next repetition starts when the previous one has finished. Inputs are the
bundled case data or are built here; the workload seed only sets the order
in which a repetition runs its operations, so every seed measures the same
amount of work.

The workloads call hubplan through ``hubplan.cli.main`` and public library
functions looked up on their modules at call time, which is what lets the
tracer see the calls.
"""

import glob
import hashlib
import json
import os
import random
import warnings

import numpy as np

import hubplan.analysis as analysis
import hubplan.cli as cli
import hubplan.fileio as fileio
import hubplan.milp.bnb as bnb
import hubplan.milp.solution as solution
import hubplan.model as model_mod
import hubplan.scengen as scengen
from hubplan.core import (BessSpec, EquipmentCatalog, EvFleetSpec, EvRecord,
                          FcSpec, Scenario, ScenarioSet, TariffSet, TessSpec,
                          TimeGrid, validate_scenario_set)
from hubplan.milp.verify import check_solution
from hubplan.model import CONT, EQ, GE, LE, ModelConfig, max_substandard

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
HERE = os.path.dirname(os.path.abspath(__file__))
TAXES = "40,100,400,700,1000"
REL_GAP = 1e-6          # branch and bound's default relative gap
# calls that recur every second or so inside an operation: each LP branch
# and bound solves, and each iteration of the scenario generator
SEGMENT_ENDS = ((bnb, "solve_lp"), (scengen, "impose_correlation"))
# output files whose digests form the determinism record
DIGESTED = ("scenarios*.csv", "dispatch_*.csv", "soc_*.csv",
            "plan_summary.csv", "cost_breakdown.csv")


class Op:
    """One operation: what ran, how it ended, and what it left behind."""

    def __init__(self, label):
        self.label = label
        self.ok = False
        self.error = None
        self.exit = None
        self.objective = None
        self.solves = []        # (model, BnbSolution) pairs to check
        self.digests = {}
        self.moment_err = None
        self.corr_err = None
        self.extra = {}
        self.counts = None      # set in traced repetitions

    def record(self):
        return {"op": self.label, "ok": self.ok, "error": self.error,
                "exit": self.exit, "objective": self.objective,
                "digests": self.digests, "moment_err": self.moment_err,
                "corr_err": self.corr_err, "counts": self.counts}


def digest_dir(path):
    out = {}
    for pattern in DIGESTED:
        for f in sorted(glob.glob(os.path.join(path, pattern))):
            with open(f, "rb") as fh:
                out[os.path.basename(f)] = hashlib.sha256(
                    fh.read()).hexdigest()[:16]
    return out


def _last_errors(log):
    last = log["iterations"][-1] if log and log.get("iterations") else {}
    return last.get("moment_err"), last.get("corr_err")


class Capture:
    """Keeps the (model, solution) of every branch-and-bound call that the
    CLI makes, so that they can be re-checked after the timed region.

    While ``meter`` is set, it is also offered a segment end after every
    call named in SEGMENT_ENDS (``Meter.mark`` takes it once the segment is
    long enough). Without those hook points the segments end only between
    operations."""

    def __init__(self):
        self.solves = []
        self.meter = None

    def install(self):
        for module in (cli, analysis):
            fn = module.branch_and_bound

            def captured(model, *args, _fn=fn, **kwargs):
                sol = _fn(model, *args, **kwargs)
                self.solves.append((model, sol))
                return sol

            module.branch_and_bound = captured
        for module, attr in SEGMENT_ENDS:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._marked(fn))

    def _marked(self, fn):
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.meter is not None:
                self.meter.mark(self.meter.min_segment_s)
            return result

        return marked

    def take(self):
        out = self.solves
        self.solves = []
        return out


class Workload:
    name = None
    expected_exit = (0,)
    # seconds one repetition takes at the reference speed (run_norm_s in
    # baseline.json); a run makes --seconds // rep_s repetitions, at least 1
    rep_s = None
    # counts of one traced operation measured at the first recorded commit:
    # {operation label: {count: value}}; a traced run reports any difference
    fidelity = {}

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.capture = None

    def prepare(self):
        """Build inputs the benchmark makes itself (not part of set-up)."""

    def load(self):
        """Read the workload's inputs through hubplan (part of set-up)."""

    def ops(self):
        raise NotImplementedError

    def check(self, op):
        """Independent checks on one completed operation; returns problems.

        Every solved model is solved again by HiGHS and its solution passed
        through check_solution."""
        problems = []
        for model, sol in op.solves:
            if sol.status != "optimal" or sol.x is None:
                problems.append(f"solver status {sol.status}")
                continue
            if not check_solution(model, sol.x).ok:
                problems.append("check_solution rejects the solution")
            ref = highs_objective(model)
            if ref is None:
                problems.append("HiGHS found no optimum")
            elif abs(sol.objective - ref) > REL_GAP * max(1.0, abs(ref)):
                problems.append(f"objective {sol.objective!r} vs HiGHS "
                                f"{ref!r}")
        return problems

    def _run_cli(self, op, argv, outdir):
        try:
            op.exit = cli.main(argv + ["--out", outdir])
        except Exception as exc:        # a crash is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
            return False
        op.ok = op.exit in self.expected_exit
        if not op.ok:
            op.error = f"exit code {op.exit}"
        return op.ok


class PlanDesk(Workload):
    """``hubplan plan`` on the bundled desk_run config at one tax level."""

    name = "plan-desk"
    rep_s = 22.0
    fidelity = {"plan": {"simplex.calls": 4, "simplex.pivots": 15974,
                         "bnb.nodes": 3, "scengen.fit_calls": 847,
                         "scengen.fit_fails": 205}}

    def load(self):
        fileio.read_case(os.path.join(DATA, "case.json"))
        fileio.read_history(os.path.join(DATA, "history_loads.csv"),
                            os.path.join(DATA, "history_ev.csv"))

    def ops(self):
        return ["plan"]

    def run(self, label, outdir):
        op = Op(label)
        argv = ["plan", "--config", os.path.join(DATA, "desk_run.json"),
                "--carbon-tax", "40"]
        if self._run_cli(op, argv, outdir):
            op.solves = self.capture.take()
            if not op.solves:
                op.ok, op.error = False, "no solve was captured"
                return [op]
            op.objective = op.solves[-1][1].objective
            op.digests = digest_dir(outdir)
            op.moment_err, op.corr_err = _last_errors(
                _read_json(os.path.join(outdir, "scen_log.json")))
        return [op]


class SweepN3(Workload):
    """``hubplan sweep`` over five tax levels on three scenario days.

    The days are files in perfbench/data, written once by ``hubplan scen gen
    --n 3 --seed 3`` (moment_err 2.06, corr_err 1.31). Keeping them fixed
    means a change to the generator cannot change this solver-only workload.
    """

    name = "sweep-n3"
    rep_s = 22.0
    # the first level's operation carries the counts of the whole CLI call
    fidelity = {"tax=40": {"simplex.calls": 30, "simplex.pivots": 36498}}
    files = (os.path.join(HERE, "data", "n3_scenarios.csv"),
             os.path.join(HERE, "data", "n3_scenarios_ev.csv"))

    def load(self):
        case = fileio.read_case(os.path.join(DATA, "case.json"))
        fileio.read_scenario_set(self.files[0], case, ev_path=self.files[1])

    def ops(self):
        return ["sweep"]

    def run(self, label, outdir):
        levels = [Op(f"tax={t}") for t in TAXES.split(",")]
        argv = ["sweep", "--case", os.path.join(DATA, "case.json"),
                "--scenarios", self.files[0], "--scenario-ev", self.files[1],
                "--carbon-tax", TAXES]
        whole = Op("sweep")
        ok = self._run_cli(whole, argv, outdir)
        solves = self.capture.take()
        digests = digest_dir(outdir) if ok else {}
        audit = _read_json(os.path.join(outdir, "audit.json")) if ok else {}
        for k, op in enumerate(levels):
            lv = (audit.get("levels") or [None] * len(levels))[k]
            op.exit = whole.exit
            op.ok = ok and lv is not None and lv["status"] == "optimal"
            op.error = whole.error if not ok else (
                None if op.ok else f"level status {lv and lv['status']}")
            if k < len(solves):
                op.solves = [solves[k]]
                op.objective = solves[k][1].objective
            elif op.ok:
                op.ok, op.error = False, "no solve was captured"
        levels[0].digests = digests
        return levels


def c3_day(rng_seed):
    """One planning day from the chance-constraint recipe: T=4, N=20, one
    vehicle, zeta 0.05, and between 0 and floor(N * zeta) scenarios whose
    vehicle cannot reach the departure target (one parked hour at 20 %).

    Returns (grid, catalog, tariffs, scenario_set, n_forced).
    """
    rng = np.random.default_rng(rng_seed)
    n, t_day = 20, 4
    catalog = EquipmentCatalog(
        fuel_cells=(FcSpec("PEM_gas", 30.0, 0.45, 0.4, 6.0, 5.0, 0.257,
                           0.22, 10),),
        bess=BessSpec(0.15, 0.25, 0.95, 0.95, 0.1, 0.9, 3000.0, 200.0),
        tess=TessSpec(40.0, 0.25, 0.9, 0.9),
        ev_fleet=EvFleetSpec(1, 40.0, 7.0, 0.125, 0.95, 0.95, 0.2, 1.0))
    tariffs = TariffSet(tuple(np.round(rng.uniform(0.2, 1.2, t_day), 3)),
                        tuple(np.round(rng.uniform(0.5, 0.9, t_day), 3)),
                        0.1, 2.0, 100.0, 50.0)
    n_forced = int(rng.integers(0, max_substandard(n, 0.05) + 1))
    forced = set(rng.choice(n, size=n_forced, replace=False).tolist())
    scens = []
    for s in range(n):
        if s in forced:
            ev = EvRecord(t_day - 1, t_day, 0.2)
        else:
            ev = EvRecord(0, t_day, float(np.round(rng.uniform(0.4, 0.8),
                                                   2)))
        scens.append(Scenario(tuple(np.round(rng.uniform(10, 35, t_day), 2)),
                              tuple(np.round(rng.uniform(4, 12, t_day), 2)),
                              tuple(np.round(rng.uniform(0, 8, t_day), 2)),
                              (ev,)))
    grid = TimeGrid(t_day, n, 10, 0.06)
    return (grid, catalog, tariffs,
            ScenarioSet(grid=grid, scenarios=tuple(scens)), n_forced)


class ChanceN20(Workload):
    """assemble_model -> branch_and_bound -> extract_solution ->
    chance_audit on four recipe days.

    The days are fixed (recipe rng seeds 1001, 1002, 1004, 1007: 11, 5, 3
    and 3 nodes, 6 of the 17 LPs of the first ending infeasible) so that
    run time compares like with like across workload seeds; the seed sets
    their order.
    """

    name = "chance-n20"
    rep_s = 18.0
    days = (1001, 1002, 1004, 1007)
    zeta = 0.05

    def prepare(self):
        self.instances = {f"rng={k}": c3_day(k) for k in self.days}

    def ops(self):
        return [f"rng={k}" for k in self.days]

    def run(self, label, outdir):
        op = Op(label)
        grid, catalog, tariffs, scen, n_forced = self.instances[label]
        try:
            model = model_mod.assemble_model(
                grid, catalog, tariffs, scen,
                ModelConfig(zeta=self.zeta, exclusivity_mode="relaxed"))
            sol = bnb.branch_and_bound(model)
            if sol.status != "optimal":
                op.error = f"status {sol.status}"
                return [op]
            plan = solution.extract_solution(sol, model.var_index)
            audit = analysis.chance_audit(plan, catalog.ev_fleet, self.zeta,
                                          grid.n_scenarios)
        except Exception as exc:        # a crash is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
            return [op]
        op.ok = True
        op.solves = [(model, sol)]
        op.objective = sol.objective
        op.digests = {"x": hashlib.sha256(sol.x.tobytes()).hexdigest()[:16]}
        op.extra = {"audit": audit, "n_forced": n_forced}
        return [op]

    def check(self, op):
        problems = super().check(op)
        audit, n_forced = op.extra["audit"], op.extra["n_forced"]
        if not audit.passed or audit.count < n_forced:
            problems.append(f"chance audit: count {audit.count}, limit "
                            f"{audit.limit}, forced {n_forced}")
        return problems


class ScenGen(Workload):
    """``hubplan scen gen`` on the bundled history at three sizes.

    Exit code 2 (tolerance not met) is the documented state of the generator
    on this history and counts as a completed operation; the shortfall shows
    in moment_err and corr_err.
    """

    name = "scen-gen"
    rep_s = 10.0
    expected_exit = (0, 2)
    fidelity = {"n=6,seed=3": {"scengen.fit_calls": 1001,
                               "scengen.fit_fails": 300}}
    sizes = ((6, 3), (50, 3), (200, 3))

    def load(self):
        self.case = fileio.read_case(os.path.join(DATA, "case.json"))
        fileio.read_history(os.path.join(DATA, "history_loads.csv"),
                            os.path.join(DATA, "history_ev.csv"))

    def ops(self):
        return [f"n={n},seed={s}" for n, s in self.sizes]

    def run(self, label, outdir):
        op = Op(label)
        n, s = (int(part.split("=")[1]) for part in label.split(","))
        argv = ["scen", "gen", "--case", os.path.join(DATA, "case.json"),
                "--history-loads", os.path.join(DATA, "history_loads.csv"),
                "--history-ev", os.path.join(DATA, "history_ev.csv"),
                "--n", str(n), "--seed", str(s)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ran = self._run_cli(op, argv, outdir)
        if ran:
            op.digests = digest_dir(outdir)
            op.moment_err, op.corr_err = _last_errors(
                _read_json(os.path.join(outdir, "scen_log.json")))
            op.extra = {"outdir": outdir}
        return [op]

    def check(self, op):
        outdir = op.extra["outdir"]
        scen = fileio.read_scenario_set(
            os.path.join(outdir, "scenarios.csv"), self.case,
            ev_path=os.path.join(outdir, "scenarios_ev.csv"))
        bad = validate_scenario_set(scen, self.case.catalog,
                                    self.case.tariffs)
        return [f"{len(bad)} scenario violations, first {bad[0]}"] if bad else []


WORKLOADS = {w.name: w for w in (PlanDesk, SweepN3, ChanceN20, ScenGen)}


def order(ops, seed):
    """The seed's order of a repetition's operations."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def highs_objective(model):
    """Optimal objective of the assembled model by scipy's HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    sense, rhs = model.row_sense, model.rhs
    lo = np.where((sense == GE) | (sense == EQ), rhs, -np.inf)
    hi = np.where((sense == LE) | (sense == EQ), rhs, np.inf)
    res = milp(model.obj, integrality=(model.col_kind != CONT).astype(int),
               bounds=Bounds(model.col_lb, model.col_ub),
               constraints=LinearConstraint(model.a_matrix, lo, hi),
               options={"mip_rel_gap": 1e-9})
    return float(res.fun) if res.status == 0 else None
