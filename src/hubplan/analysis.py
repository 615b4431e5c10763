"""Reporting on solved plans: cost breakdowns, chance audits, dispatch and
SOC tables, the verified solve of one priced model, and carbon-tax sweeps.

Every number here is recomputed from the physical dispatch values; the
solver objective is never echoed back, which is what makes the breakdown a
meaningful cross-check of the model assembly.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import FEAS_TOL, INT_TOL, MONEY_SCALE, annualization_factor
from .errors import InvalidParameterError, SolverError
from .fileio import write_table_csv
from .milp import (BnbSolution, PlanSolution, VerifyReport,
                   branch_and_bound, check_solution, extract_solution)
from .model import (assemble_model, build_objective, max_substandard,
                    repair_overlap)

EXTREMES = ("elec", "heat")  # the legal select_extreme_scenario(which=)


@dataclass
class CostBreakdown:
    """Annualized cost parts in money units (1e4 yuan); total is their sum."""

    fc_investment: float
    bess_investment: float
    gas_cost: float
    grid_cost: float
    carbon_from_elec: float
    carbon_from_gas: float
    soc_penalty: float
    total: float = field(init=False)

    def __post_init__(self):
        parts = [getattr(self, f.name) for f in fields(self) if f.init]
        for p in parts:
            if not (math.isfinite(p) and p >= 0.0):
                raise InvalidParameterError(f"cost part {p!r} must be "
                                            "finite and >= 0")
        self.total = float(sum(parts))

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def cost_breakdown(solution, catalog, tariffs) -> CostBreakdown:
    """Recompute the annualized cost parts of a solved plan.

    The operating costs are weighted by the annualization factor m of the
    plan's time grid. The plan is one whose x check_solution passed:
    cost_breakdown judges nothing itself, and CostBreakdown refuses a part
    that is not finite or is negative.
    """
    m = annualization_factor(solution.time_grid)
    fc_inv = sum(catalog.fc(fc_id).invest_cost * units
                 for fc_id, units in solution.x_fc.items())
    bess_inv = catalog.bess.invest_cost * max(float(solution.x_ess), 0.0)

    price = np.asarray(tariffs.elec_price)
    emis = np.asarray(tariffs.grid_emission)
    # check_solution passes values down to -FEAS_TOL; clamp so parts stay >= 0
    grid_kwh = np.maximum(solution.grid, 0.0)  # (N, T), one-hour steps
    fuel_kwh_all = np.maximum(solution.fuel, 0.0)
    short_kwh = np.maximum(solution.shortfall, 0.0)
    grid_cost = m * float(np.sum(grid_kwh * price[None, :])) / MONEY_SCALE
    carbon_elec = (m * tariffs.carbon_tax
                   * float(np.sum(grid_kwh * emis[None, :])) / MONEY_SCALE)

    gas_cost = 0.0
    carbon_gas = 0.0
    for i, fc in enumerate(catalog.fuel_cells):
        fuel_kwh = float(np.sum(fuel_kwh_all[:, :, i]))
        gas_cost += m * fc.fuel_price * fuel_kwh / MONEY_SCALE
        carbon_gas += m * tariffs.carbon_tax * fc.fuel_emission * fuel_kwh \
            / MONEY_SCALE

    soc_pen = (m * tariffs.soc_penalty * float(np.sum(short_kwh))
               / MONEY_SCALE)

    return CostBreakdown(
        fc_investment=float(fc_inv), bess_investment=float(bess_inv),
        gas_cost=float(gas_cost), grid_cost=float(grid_cost),
        carbon_from_elec=float(carbon_elec),
        carbon_from_gas=float(carbon_gas), soc_penalty=float(soc_pen))


def _nan_as_none(v):
    """float(v), NaN as None: null in audit.json, an empty CSV cell."""
    v = float(v)
    return None if math.isnan(v) else v


@dataclass
class ChanceAudit:
    """Departure-SOC audit over all scenarios.

    worst_soc[s] is the lowest departure SOC in scenario s (1.0 when the
    scenario has no vehicles, NaN when one of its SOCs is NaN); substandard
    lists every (scenario, vehicle, soc) that falls short of the target;
    count is the number of distinct substandard scenarios, capped by
    limit = floor(N * zeta) for a pass. as_dict writes a NaN SOC as None.
    """

    worst_soc: np.ndarray
    substandard: list
    count: int
    limit: int
    passed: bool

    def as_dict(self):
        return {
            "worst_soc": [_nan_as_none(v) for v in self.worst_soc],
            "substandard": [
                {"scenario": s, "ev": j, "soc": _nan_as_none(soc)}
                for s, j, soc in self.substandard],
            "count": self.count,
            "limit": self.limit,
            "passed": self.passed,
        }


def _substandard(soc, target):
    """Where the departure SOCs soc fall short of target: by more than
    FEAS_TOL * (1 + target), the tolerance of every verdict on a plan. A
    NaN SOC does."""
    return ~(soc >= target - FEAS_TOL * (1.0 + target))


def chance_audit(solution, fleet, zeta, n_scenarios) -> ChanceAudit:
    """Audit departure SOCs against the chance-constraint budget.

    A departure is substandard when _substandard says so; the audit passes
    when the number of scenarios containing one is at most floor(N * zeta).
    """
    n = solution.e_dep.shape[0]
    if n != n_scenarios:
        raise InvalidParameterError(
            f"solution has {n} scenarios, audit asked about {n_scenarios}")
    soc = solution.e_dep / fleet.capacity
    short = _substandard(soc, fleet.target_departure_soc)
    count = int(short.any(axis=1).sum())
    limit = max_substandard(n_scenarios, zeta)
    return ChanceAudit(
        worst_soc=np.minimum.reduce(soc, axis=1, initial=1.0),
        substandard=[(s, j, float(soc[s, j]))
                     for s, j in np.argwhere(short).tolist()],
        count=count, limit=limit, passed=count <= limit)


def select_extreme_scenario(scenario_set, which) -> int:
    """Scenario with the largest total electric or heat load; ties go to
    the lowest scenario id."""
    if which not in EXTREMES:
        raise InvalidParameterError(f"which must be elec or heat, got "
                                    f"{which!r}")
    best, best_sum = 0, -np.inf
    for s, sc in enumerate(scenario_set.scenarios):
        tot = sum(sc.elec_load if which == "elec" else sc.heat_load)
        if tot > best_sum:
            best, best_sum = s, tot
    return best


def _check_scenario_id(solution, scenario_id):
    n = solution.grid.shape[0]
    if not 0 <= scenario_id < n:
        raise KeyError(f"scenario {scenario_id} not in [0, {n})")


def _table(columns):
    """(header, rows) of a table of named columns of equal length: an hour
    column first, then the columns' values as floats, NaN as None (an empty
    cell)."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns.values()]
    rows = [[t] + [_nan_as_none(v) for v in row]
            for t, row in enumerate(zip(*cols))]
    return ["hour", *columns], rows


def dispatch_table(solution, scenario_set, catalog, tariffs, scenario_id):
    """Hourly dispatch of one scenario as (header, rows).

    Fuel-cell output is reported on both ports (C_ge * fuel and
    C_gh * fuel). EV columns are None outside the parking window.
    """
    _check_scenario_id(solution, scenario_id)
    s = scenario_id
    sc = scenario_set.scenarios[s]
    cols = {"elec_load_kw": sc.elec_load, "heat_load_kw": sc.heat_load,
            "elec_price": tariffs.elec_price, "grid_kw": solution.grid[s],
            "pv_kw": solution.pv[s]}
    for i, fc in enumerate(catalog.fuel_cells):
        fuel = solution.fuel[s, :, i]
        cols[f"fc_{fc.fc_id}_elec_kw"] = fc.gas_to_elec * fuel
        cols[f"fc_{fc.fc_id}_heat_kw"] = fc.gas_to_heat * fuel
    for name in ("bess_ch", "bess_dis", "bess_e", "tess_ch", "tess_dis",
                 "tess_e"):
        unit = "kwh" if name.endswith("_e") else "kw"
        cols[f"{name}_{unit}"] = getattr(solution, name)[s]
    for j in range(solution.ev_ch.shape[1]):
        cols[f"ev{j}_ch_kw"] = solution.ev_ch[s, j]
        cols[f"ev{j}_dis_kw"] = solution.ev_dis[s, j]
    return _table(cols)


def soc_table(solution, catalog, scenario_id):
    """State-of-charge trajectories of one scenario as (header, rows).

    T+1 rows: storage states are starts of hours 0..T-1 plus the wrapped
    start-of-day state at hour T. EV entries outside [arrive, depart] are
    None. A zero-capacity BESS reports None throughout.
    """
    _check_scenario_id(solution, scenario_id)
    s = scenario_id
    cyc = np.arange(solution.grid.shape[1] + 1) % solution.grid.shape[1]

    def soc(e, cap):
        return e / cap if cap > 0.0 else np.full(e.shape, np.nan)

    cols = {"bess_soc": soc(solution.bess_e[s, cyc], float(solution.x_ess)),
            "tess_soc": soc(solution.tess_e[s, cyc], catalog.tess.capacity)}
    for j in range(solution.ev_e.shape[1]):
        cols[f"ev{j}_soc"] = solution.ev_e[s, j] / catalog.ev_fleet.capacity
    return _table(cols)


# constraint family of a model row, by the first letter of the row's name
_FAMILIES = {"B": "battery storage", "C": "chance budget",
             "E": "electric balance", "F": "fuel-cell limits",
             "H": "heat balance", "S": "departure-SOC targets",
             "T": "thermal storage", "V": "vehicle charging"}


def _infeasible_hint(model, rows):
    """Name the constraint families of rows, the rows the root LP
    relaxation's phase 1 left violated, in order of first appearance."""
    fams = dict.fromkeys(_FAMILIES[model.row_names[r][0]] for r in rows)
    if not fams:
        return "LP relaxation is feasible; integer restrictions bind"
    return f"LP stage violates: {', '.join(fams)}"


@dataclass
class LevelSolve:
    """One carbon-tax level: its branch-and-bound solve of a priced model
    and the verdicts on it, the plan, solution check, cost breakdown,
    chance audit and plan check of its incumbent when it has one (a solve
    stopped by a limit may), and an infeasible one's hint.

    status is branch and bound's, or error when the solve raised (bnb is
    then None and the level holds only its tax and error) or an optimal
    incumbent failed its solution check, plan check or chance audit; error
    says why a level is not optimal, naming each failed verdict. Only an
    optimal level has a total.

    bnb.x is the incumbent after repair_overlap. overlap names the
    store-hours (by charge column) that charged and discharged at once in
    the incumbent branch and bound returned, unrepaired those the repair
    had to leave, which plan_check fails.
    """

    carbon_tax: float  # yuan per ton
    bnb: BnbSolution = None
    status: str = "error"
    error: str = None
    infeasible_hint: str = None
    plan: PlanSolution = None
    check: VerifyReport = None
    breakdown: CostBreakdown = None
    audit: ChanceAudit = None
    plan_check: "PlanCheck" = None
    overlap: list = None
    unrepaired: list = None

    def as_dict(self):
        """The level as audit.json records it, for plan and for each level
        of a sweep."""
        doc = {"carbon_tax_yuan_per_ton": self.carbon_tax,
               "status": self.status, "error": self.error,
               "total": self.breakdown.total if self.status == "optimal"
               else None}
        bnb = self.bnb
        if bnb is None:
            return doc
        doc.update(nodes=bnb.n_nodes, **bnb.lp_counters(),
                   wall_time_s=bnb.wall_time)
        if self.infeasible_hint is not None:
            doc["infeasible_hint"] = self.infeasible_hint
            return doc
        doc.update(gap=bnb.gap, best_bound=bnb.best_bound)
        if self.plan is not None:
            doc.update({
                "objective": bnb.objective,
                "x_ess_kwh": self.plan.x_ess,
                "x_fc": self.plan.x_fc,
                "breakdown": self.breakdown.as_dict(),
                "chance_audit": self.audit.as_dict(),
                "solution_check": {"ok": self.check.ok,
                                   "max_residual": self.check.max_residual},
                "plan_check": {"ok": self.plan_check.ok,
                               "max_residual": self.plan_check.max_residual,
                               "issues": self.plan_check.issues[:20]},
                "overlap_hours": len(self.overlap),
                "overlap_unrepaired": self.unrepaired,
            })
        return doc


def solve_level(model, scenario_set, catalog, tariffs, config, carbon_tax,
                warm, **limits) -> LevelSolve:
    """Solve model, assembled from scenario_set, catalog and config and
    priced at tariffs (carbon_tax yuan per ton), by branch_and_bound (warm
    root basis, limits), repair its incumbent's charge/discharge overlaps,
    judge the repaired incumbent, if any, and return the level with the
    one status plan and sweep report. An infeasible model's hint names the
    families of the rows its root LP left violated. sweep_carbon_tax is its
    one caller, for plan's single level as for each of a sweep's."""
    bnb = branch_and_bound(model, warm=warm, **limits)
    status = bnb.status
    error = None if status == "optimal" else f"solver ended {status}"
    if status == "infeasible":
        return LevelSolve(carbon_tax, bnb, status, error,
                          infeasible_hint=_infeasible_hint(
                              model, bnb.infeasible_rows))
    if bnb.x is None:
        return LevelSolve(carbon_tax, bnb, status, error)
    x, overlap, unrepaired = repair_overlap(model.var_index, catalog, bnb.x)
    bnb = replace(bnb, x=x)
    grid = scenario_set.grid
    plan = extract_solution(bnb, model.var_index)
    check = check_solution(model, x)
    breakdown = cost_breakdown(plan, catalog, tariffs)
    audit = chance_audit(plan, catalog.ev_fleet, config.zeta,
                         grid.n_scenarios)
    plan_check = verify_plan(plan, scenario_set, catalog, tariffs)
    failed = [f"{name}: {what}" for name, ok, what in (
        ("solution check", check.ok, (check.bad_rows + check.bad_bounds
                                      + check.bad_integrality)[:3]),
        ("plan check", plan_check.ok, plan_check.issues[:3]),
        ("chance audit", audit.passed,
         f"{audit.count} substandard scenarios, limit {audit.limit}"))
        if not ok]
    if status == "optimal" and failed:
        status, error = "error", f"optimal solution failed {'; '.join(failed)}"
    return LevelSolve(carbon_tax, bnb, status, error, plan=plan, check=check,
                      breakdown=breakdown, audit=audit,
                      plan_check=plan_check, overlap=overlap,
                      unrepaired=unrepaired)


@dataclass
class SweepResult:
    levels: list
    notes: list = field(default_factory=list)


def sweep_carbon_tax(catalog, tariffs, scenario_set, config, tax_levels,
                     **solver_kwargs) -> SweepResult:
    """Solve the plan at each carbon-tax level (yuan per ton): one
    LevelSolve per level, with the status solve_level decides. hubplan plan
    is a sweep of its one level.

    Scenarios and every other input stay fixed across levels. A level whose
    solve raises is a LevelSolve of its tax and error, and the sweep
    continues. Total cost must be non-decreasing in the tax over the
    optimal levels (same feasible
    set, pointwise-larger objective); a violation is a solver defect and
    raises SolverError. Trend observations (fuel-cell mix, substandard
    counts) are reported in notes, never asserted.

    Only the objective changes between levels: the model is assembled
    once and re-priced at each level, and each level's root LP starts from
    the previous level's root basis, which stays primal feasible: the new
    root needs phase 2 only. Every level's tariffs are built, and so a
    bad level (negative or not finite) raises InvalidParameterError, before
    the model is assembled.
    """
    if not tax_levels:
        raise InvalidParameterError("tax_levels must not be empty")
    level_tariffs = [(tax, tariffs.with_carbon_tax(tax))
                     for tax in tax_levels]
    base = assemble_model(scenario_set.grid, catalog, tariffs, scenario_set,
                          config)
    levels = []
    warm = None
    for tax, tar in level_tariffs:
        model = replace(base, obj=build_objective(base.var_index, catalog,
                                                  tar))
        try:
            level = solve_level(model, scenario_set, catalog, tar, config,
                                float(tax), warm, **solver_kwargs)
        except SolverError as exc:
            level = LevelSolve(float(tax), error=str(exc))
        else:
            warm = level.bnb.root_warm
        levels.append(level)

    ordered = sorted((lv for lv in levels if lv.status == "optimal"),
                     key=lambda lv: lv.carbon_tax)
    for a, b in zip(ordered, ordered[1:]):
        lo, hi = a.breakdown.total, b.breakdown.total
        if hi < lo - FEAS_TOL * (1.0 + abs(hi)):
            raise SolverError(
                f"total cost fell from {lo} at tax {a.carbon_tax} to {hi} "
                f"at tax {b.carbon_tax}; must be non-decreasing")

    notes = []
    if len(ordered) >= 2:
        for fc in catalog.fuel_cells:
            counts = [lv.plan.x_fc.get(fc.fc_id, 0) for lv in ordered]
            notes.append(f"{fc.fc_id} units across taxes: {counts}")
        notes.append("substandard scenarios across taxes: "
                     f"{[lv.audit.count for lv in ordered]}")
    return SweepResult(levels=levels, notes=notes)


def _write_levels(path, sweep, names, cells):
    """Write one row per level of sweep: its tax, then the columns named by
    names, cells(level) of an optimal level and empty otherwise, then its
    status."""
    rows = [[lv.carbon_tax,
             *(cells(lv) if lv.status == "optimal"
               else [None] * len(names)), lv.status] for lv in sweep.levels]
    write_table_csv(path, ["carbon_tax_yuan_per_ton", *names, "status"],
                    rows)


def write_plan_summary(path, sweep, catalog):
    """Planning-result table: one row per tax level, empty cells on failed
    levels."""
    fcs = catalog.fuel_cells
    _write_levels(path, sweep, [f"fc_{fc.fc_id}_units" for fc in fcs]
                  + ["bess_kwh", "substandard_scenarios"],
                  lambda s: [s.plan.x_fc[fc.fc_id] for fc in fcs]
                  + [s.plan.x_ess, s.audit.count])


def write_cost_breakdown(path, sweep):
    """Cost table: one row per tax level, empty parts on failed levels."""
    parts = [f.name for f in fields(CostBreakdown)]
    _write_levels(path, sweep, parts,
                  lambda s: [getattr(s.breakdown, p) for p in parts])


@dataclass
class PlanCheck:
    """Semantic re-verification of a PlanSolution against raw scenario
    data (see verify_plan). ok is True when issues is empty; max_residual
    is the largest balance or storage-law residual; each issue reads
    "<law> s<scenario> [j<vehicle>] [t<hour>]: <value>"."""

    ok: bool
    max_residual: float
    issues: list = field(default_factory=list)


def _issues(label, bad, values, axes):
    """'label s0 j1 t3: value' for each true entry of bad, in index order;
    axes names bad's axes by letter."""
    return [f"{label} {' '.join(map('{}{}'.format, axes, at))}: "
            f"{float(values[tuple(at)])!r}" for at in np.argwhere(bad)]


def verify_plan(solution, scenario_set, catalog, tariffs) -> PlanCheck:
    """Recheck a plan from physics, without the model or the solver.

    The laws, each checked over whole arrays and reported in this order:
    the electric balance, its residual scaled by (1 + max electric load);
    the heat surplus; each fuel cell's electric, then heat, output
    gas_to_elec * fuel (gas_to_heat * fuel) within its cap max_elec * x_fc
    (max_heat * x_fc), labelled by the cell's id; PV within
    [0, min(pv_avail, pv_cap)] and grid import within [0, grid_cap], from
    the scenario's availability and the tariffs; then for the BESS, the
    TESS and the vehicles in turn the storage law E(t+1) = E(t) + ch(t) -
    dis(t) (cyclic over the day for BESS and TESS, over the parked hours
    for a vehicle), the energy window
    (BESS soc_min..soc_max times x_ess, TESS 0..capacity, a vehicle
    soc_min..soc_max times its capacity over the hours after its arrival,
    whose energy is data) and no charging and discharging in one hour.
    Each vehicle's visit comes from its EvRecord in scenario_set: its
    charge and discharge are NaN exactly outside [arrive, depart), its
    energy exactly outside [arrive, depart]; its arrival energy is
    initial_soc * capacity; its path at the recorded departure is the
    departure, which _substandard must not flag in a z = 0 scenario, and
    e_dep equals it. Then integral x_fc and binary z. Each law allows
    FEAS_TOL: on a residual, below the heat load, on each of charge and
    discharge, and as FEAS_TOL * (1 + cap) above a port's cap, outside the
    PV and import ranges, outside a window and off the arrival and
    departure energies; x_fc may sit INT_TOL from an integer.
    Issues of one law come by scenario, vehicle and hour. Balance and
    storage-law residuals make max_residual; a NaN one neither counts nor
    is reported, while a NaN in any other test is reported.
    """
    sol, days = solution, scenario_set.scenarios
    bess, tess, fleet = catalog.bess, catalog.tess, catalog.ev_fleet
    issues, worst = [], 0.0

    def resid(label, r, axes):
        nonlocal worst
        worst = max(worst, np.fmax.reduce(np.abs(r), axis=None, initial=0.0))
        issues.extend(_issues(label, np.abs(r) > FEAS_TOL, r, axes))

    def flag(label, ok, values, axes):
        issues.extend(_issues(label, ~ok, values, axes))

    # summed as grid, PV, BESS, each fuel cell, then each parked vehicle
    supply = (sol.grid + sol.pv - sol.bess_ch / bess.eta_ch
              + bess.eta_dis * sol.bess_dis)
    heat = -sol.tess_ch / tess.eta_ch + tess.eta_dis * sol.tess_dis
    for i, fc in enumerate(catalog.fuel_cells):
        supply += fc.gas_to_elec * sol.fuel[:, :, i]
        heat += fc.gas_to_heat * sol.fuel[:, :, i]
    for j in range(sol.ev_ch.shape[1]):
        ch, parked = sol.ev_ch[:, j], ~np.isnan(sol.ev_ch[:, j])
        supply -= np.where(parked, ch / fleet.eta_ch, 0.0)
        supply += np.where(parked, fleet.eta_dis * sol.ev_dis[:, j], 0.0)
    elec = np.array([d.elec_load for d in days])
    resid("elec balance", (supply - elec) / (1.0 + elec.max()), "st")
    surplus = heat - np.array([d.heat_load for d in days])
    flag("heat surplus", surplus >= -FEAS_TOL, surplus, "st")
    for port in ("elec", "heat"):
        for i, fc in enumerate(catalog.fuel_cells):
            out = getattr(fc, f"gas_to_{port}") * sol.fuel[:, :, i]
            cap = getattr(fc, f"max_{port}") * sol.x_fc[fc.fc_id]
            flag(f"fc {port} output {fc.fc_id}",
                 out <= cap + FEAS_TOL * (1 + cap), out, "st")
    pv_cap = np.minimum([d.pv_avail for d in days], tariffs.pv_cap)
    for label, v, cap in (("pv", sol.pv, pv_cap),
                          ("grid import", sol.grid, tariffs.grid_cap)):
        tol = FEAS_TOL * (1 + cap)
        flag(label, (v >= -tol) & (v <= cap + tol), v, "st")

    # each store's energy path: BESS and TESS wrap to hour 0, a vehicle's
    # is NaN outside its parking window
    def cyclic(e):
        return np.concatenate([e, e[:, :1]], axis=1)

    # each vehicle's visit from its record: arrival and departure hour and
    # arrival SOC, each (s, j, 1), and its hours in [arrive, depart]
    hour = np.arange(sol.grid.shape[1] + 1)
    arrive, depart, soc0 = np.moveaxis(np.array(
        [[(r.arrive_hour, r.depart_hour, r.initial_soc) for r in d.ev_records]
         for d in days]).reshape(len(days), -1, 3), 2, 0)[..., None]
    visit = (arrive <= hour) & (hour <= depart)
    # the hours whose energy is windowed: a cyclic store's day, without its
    # wrap; a vehicle's visit after the arrival, whose energy is data
    day = hour < hour[-1]
    for name, e, window, ch, dis, lo, hi, cap in (
            ("bess", cyclic(sol.bess_e), day, sol.bess_ch, sol.bess_dis,
             bess.soc_min, bess.soc_max, sol.x_ess),
            ("tess", cyclic(sol.tess_e), day, sol.tess_ch, sol.tess_dis,
             0.0, 1.0, tess.capacity),
            ("ev", sol.ev_e, visit & (arrive < hour),
             sol.ev_ch, sol.ev_dis, fleet.soc_min, fleet.soc_max,
             fleet.capacity)):
        axes = "st" if ch.ndim == 2 else "sjt"
        resid(f"{name} chain", e[..., 1:] - e[..., :-1] - ch + dis, axes)
        tol = FEAS_TOL * (1 + cap)
        flag(f"{name} soc low", ~window | (e >= lo * cap - tol), e, axes)
        flag(f"{name} soc high", ~window | (e <= hi * cap + tol), e, axes)
        both = np.fmin(ch, dis)  # NaN outside a vehicle's window
        issues.extend(_issues(f"{name} charges and discharges",
                              both > FEAS_TOL, both, axes))

    parked = (visit & (hour < depart))[..., :-1]
    for name, v, inside in (("charge", sol.ev_ch, parked),
                            ("discharge", sol.ev_dis, parked),
                            ("energy", sol.ev_e, visit)):
        flag(f"ev {name} window", np.isnan(v) != inside, v, "sjt")
    # each vehicle's energy at its arrival and at its departure
    arrived, departed = (
        np.take_along_axis(sol.ev_e, h.astype(int), axis=2)[..., 0]
        for h in (arrive, depart))
    cap = fleet.capacity
    tol = FEAS_TOL * (1 + cap)
    flag("ev arrival", np.abs(arrived - soc0[..., 0] * cap) <= tol, arrived,
         "sj")
    dep_soc = departed / cap
    short = _substandard(dep_soc, fleet.target_departure_soc)
    flag("departure soc", (sol.z != 0)[:, None] | ~short, dep_soc, "sj")
    flag("ev departure energy", np.isclose(sol.e_dep, departed, rtol=0.0,
                                           atol=tol, equal_nan=True),
         sol.e_dep, "sj")
    for fc_id, units in sol.x_fc.items():
        if not abs(units - np.rint(units)) <= INT_TOL:
            issues.append(f"integral x_fc {fc_id}: {float(units)!r}")
    flag("binary z", np.isin(sol.z, (0, 1)), sol.z, "s")
    return PlanCheck(ok=not issues, max_residual=worst, issues=issues)
