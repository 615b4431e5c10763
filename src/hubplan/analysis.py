"""Reporting on solved plans: cost breakdowns, chance audits, dispatch and
SOC tables, the verified solve of one priced model, and carbon-tax sweeps.

Every number here is recomputed from the physical dispatch values; the
solver objective is never echoed back, which is what makes the breakdown a
meaningful cross-check of the model assembly.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import MONEY_SCALE, annualization_factor
from .errors import InfeasibleSolutionError, InvalidParameterError, SolverError
from .fileio import write_table_csv
from .milp import (BnbSolution, PlanSolution, VerifyReport,
                   branch_and_bound, check_solution, extract_solution)
from .model import (assemble_model, build_objective, max_substandard,
                    repair_overlap)

_SOC_EPS = 1e-9  # below-target slack before a departure counts substandard
_PLAN_TOL = 1e-6  # verify_plan's tolerance on energies and residuals
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


def _finite_nonneg(arr, label, issues, mask=None):
    a = np.asarray(arr, dtype=float)
    sel = np.ones(a.shape, dtype=bool) if mask is None else mask
    bad = sel & ~(np.isfinite(a) & (a >= -1e-9))
    for idx in np.argwhere(bad)[:5]:
        issues.append(f"{label}{tuple(int(i) for i in idx)} = "
                      f"{float(a[tuple(idx)])!r}")


def cost_breakdown(solution, catalog, tariffs, m) -> CostBreakdown:
    """Recompute the annualized cost parts of a solved plan.

    m is the annualization factor. Dispatch quantities must be finite and
    nonnegative; anything else makes the costs meaningless and raises
    InfeasibleSolutionError with the offending entries.
    """
    issues = []
    if not (math.isfinite(solution.x_ess) and solution.x_ess >= -1e-9):
        issues.append(f"x_ess = {solution.x_ess!r}")
    for fc_id, units in solution.x_fc.items():
        if units < 0:
            issues.append(f"x_fc[{fc_id}] = {units}")
    _finite_nonneg(solution.grid, "grid", issues)
    _finite_nonneg(solution.fuel, "fuel", issues)
    _finite_nonneg(solution.shortfall, "shortfall", issues)
    win = ~np.isnan(solution.ev_ch)
    _finite_nonneg(np.nan_to_num(solution.ev_ch, nan=0.0), "ev_ch", issues,
                   mask=win)
    if issues:
        raise InfeasibleSolutionError(issues)

    fc_inv = sum(catalog.fc(fc_id).invest_cost * units
                 for fc_id, units in solution.x_fc.items())
    bess_inv = catalog.bess.invest_cost * max(float(solution.x_ess), 0.0)

    price = np.asarray(tariffs.elec_price)
    emis = np.asarray(tariffs.grid_emission)
    # the screen admits values down to -1e-9; clamp so the parts stay >= 0
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


@dataclass
class ChanceAudit:
    """Departure-SOC audit over all scenarios.

    worst_soc[s] is the lowest departure SOC in scenario s (1.0 when the
    scenario has no vehicles); substandard lists every (scenario, vehicle,
    soc) below target; count is the number of distinct substandard
    scenarios, capped by limit = floor(N * zeta) for a pass.
    """

    worst_soc: np.ndarray
    substandard: list
    count: int
    limit: int
    passed: bool

    def as_dict(self):
        return {
            "worst_soc": [float(v) for v in self.worst_soc],
            "substandard": [
                {"scenario": s, "ev": j, "soc": soc}
                for s, j, soc in self.substandard],
            "count": self.count,
            "limit": self.limit,
            "passed": self.passed,
        }


def chance_audit(solution, fleet, zeta, n_scenarios) -> ChanceAudit:
    """Audit departure SOCs against the chance-constraint budget.

    A departure is substandard when its SOC is more than 1e-9 below the
    fleet target; the audit passes when the number of scenarios containing
    one is at most floor(N * zeta).
    """
    n, n_ev = solution.e_dep.shape
    if n != n_scenarios:
        raise InvalidParameterError(
            f"solution has {n} scenarios, audit asked about {n_scenarios}")
    worst = np.ones(n)
    bad = []
    threshold = fleet.target_departure_soc - _SOC_EPS
    for s in range(n):
        for j in range(n_ev):
            soc = solution.e_dep[s, j] / fleet.capacity
            worst[s] = min(worst[s], soc)
            if soc < threshold:
                bad.append((s, j, float(soc)))
    bad_scen = sorted({s for s, _j, _v in bad})
    limit = max_substandard(n_scenarios, zeta)
    return ChanceAudit(worst_soc=worst, substandard=bad,
                       count=len(bad_scen), limit=limit,
                       passed=len(bad_scen) <= limit)


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


def dispatch_table(solution, scenario_set, catalog, tariffs, scenario_id):
    """Hourly dispatch of one scenario as (header, rows).

    Fuel-cell output is reported on both ports (C_ge * fuel and
    C_gh * fuel). EV columns are None outside the parking window.
    """
    _check_scenario_id(solution, scenario_id)
    sc = scenario_set.scenarios[scenario_id]
    t_day = solution.grid.shape[1]
    n_ev = solution.ev_ch.shape[1]

    header = ["hour", "elec_load_kw", "heat_load_kw", "elec_price",
              "grid_kw", "pv_kw"]
    for fc in catalog.fuel_cells:
        header += [f"fc_{fc.fc_id}_elec_kw", f"fc_{fc.fc_id}_heat_kw"]
    header += ["bess_ch_kw", "bess_dis_kw", "bess_e_kwh",
               "tess_ch_kw", "tess_dis_kw", "tess_e_kwh"]
    for j in range(n_ev):
        header += [f"ev{j}_ch_kw", f"ev{j}_dis_kw"]

    rows = []
    s = scenario_id
    for t in range(t_day):
        row = [t, sc.elec_load[t], sc.heat_load[t], tariffs.elec_price[t],
               float(solution.grid[s, t]), float(solution.pv[s, t])]
        for i, fc in enumerate(catalog.fuel_cells):
            fuel = float(solution.fuel[s, t, i])
            row += [fc.gas_to_elec * fuel, fc.gas_to_heat * fuel]
        row += [float(solution.bess_ch[s, t]), float(solution.bess_dis[s, t]),
                float(solution.bess_e[s, t]), float(solution.tess_ch[s, t]),
                float(solution.tess_dis[s, t]), float(solution.tess_e[s, t])]
        for j in range(n_ev):
            ch = solution.ev_ch[s, j, t]
            dis = solution.ev_dis[s, j, t]
            row += [None if np.isnan(ch) else float(ch),
                    None if np.isnan(dis) else float(dis)]
        rows.append(row)
    return header, rows


def soc_table(solution, catalog, scenario_id):
    """State-of-charge trajectories of one scenario as (header, rows).

    T+1 rows: storage states are starts of hours 0..T-1 plus the wrapped
    start-of-day state at hour T. EV entries outside [arrive, depart] are
    None. A zero-capacity BESS reports None throughout.
    """
    _check_scenario_id(solution, scenario_id)
    s = scenario_id
    t_day = solution.grid.shape[1]
    n_ev = solution.ev_e.shape[1]
    header = ["hour", "bess_soc", "tess_soc"] + [f"ev{j}_soc"
                                                 for j in range(n_ev)]
    cap_b = float(solution.x_ess)
    cap_t = catalog.tess.capacity
    rows = []
    for t in range(t_day + 1):
        tw = t % t_day
        row = [t]
        row.append(None if cap_b <= 0.0
                   else float(solution.bess_e[s, tw]) / cap_b)
        row.append(None if cap_t <= 0.0
                   else float(solution.tess_e[s, tw]) / cap_t)
        for j in range(n_ev):
            e = solution.ev_e[s, j, t]
            row.append(None if np.isnan(e)
                       else float(e) / catalog.ev_fleet.capacity)
        rows.append(row)
    return header, rows


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
    """One branch-and-bound solve of a priced model and the verdicts on it:
    the plan, solution check, cost breakdown, chance audit and plan check
    of its incumbent when it has one (a solve stopped by a limit may), and
    an infeasible one's hint.

    bnb.x is the incumbent after repair_overlap. overlap names the
    store-hours (by charge column) that charged and discharged at once in
    the incumbent branch and bound returned, unrepaired those the repair
    had to leave, which plan_check fails.
    """

    bnb: BnbSolution
    infeasible_hint: str = None
    plan: PlanSolution = None
    check: VerifyReport = None
    breakdown: CostBreakdown = None
    audit: ChanceAudit = None
    plan_check: "PlanCheck" = None
    overlap: list = None
    unrepaired: list = None

    def as_dict(self):
        """The solve as audit.json records it."""
        bnb = self.bnb
        doc = {"status": bnb.status, "nodes": bnb.n_nodes,
               **bnb.lp_counters(), "wall_time_s": bnb.wall_time}
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


def solve_level(model, scenario_set, catalog, tariffs, config, warm=None,
                **limits) -> LevelSolve:
    """Solve model, assembled from scenario_set, catalog and config and
    priced at tariffs, by branch_and_bound (warm root basis, limits),
    repair its incumbent's charge/discharge overlaps, and return the
    verdicts on the repaired incumbent, if any, never acting on them. An
    infeasible model's hint names the families of the rows its root LP
    left violated."""
    bnb = branch_and_bound(model, warm=warm, **limits)
    if bnb.status == "infeasible":
        return LevelSolve(bnb, infeasible_hint=_infeasible_hint(
            model, bnb.infeasible_rows))
    if bnb.x is None:
        return LevelSolve(bnb)
    x, overlap, unrepaired = repair_overlap(model.var_index, catalog, bnb.x,
                                            _PLAN_TOL)
    bnb = replace(bnb, x=x)
    grid = scenario_set.grid
    plan = extract_solution(bnb, model.var_index)
    return LevelSolve(
        bnb, plan=plan, check=check_solution(model, x),
        breakdown=cost_breakdown(plan, catalog, tariffs,
                                 annualization_factor(grid)),
        audit=chance_audit(plan, catalog.ev_fleet, config.zeta,
                           grid.n_scenarios),
        plan_check=verify_plan(plan, scenario_set, catalog, tariffs),
        overlap=overlap, unrepaired=unrepaired)


@dataclass
class SweepLevel:
    """One carbon-tax level of a sweep. solve is None when the level raised;
    error says why a level is not optimal, and an optimal solution that
    fails check_solution makes the status error."""

    carbon_tax: float  # yuan per ton
    status: str
    solve: LevelSolve = None
    error: str = None

    @property
    def optimal(self):
        """The level's solve when its status is optimal, else None."""
        return self.solve if self.status == "optimal" else None

    def as_dict(self):
        """The level as sweep's audit.json records it: its solve's
        as_dict with the level's tax, status, error and total."""
        doc = {} if self.solve is None else self.solve.as_dict()
        doc.update({"carbon_tax_yuan_per_ton": self.carbon_tax,
                    "status": self.status, "error": self.error,
                    "total": None if self.optimal is None
                    else self.optimal.breakdown.total})
        return doc


@dataclass
class SweepResult:
    levels: list
    notes: list = field(default_factory=list)


def sweep_carbon_tax(grid, catalog, tariffs, scenario_set, config,
                     tax_levels, **solver_kwargs) -> SweepResult:
    """Solve the plan at each carbon-tax level (yuan per ton).

    Scenarios and every other input stay fixed across levels. A level that
    fails keeps its error message and the sweep continues. Total cost must
    be non-decreasing in the tax over the successful levels (same feasible
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
    m = annualization_factor(grid)
    base = assemble_model(grid, catalog, tariffs, scenario_set, config)
    levels = []
    warm = None
    for tax, tar in level_tariffs:
        model = replace(base, obj=build_objective(base.var_index, catalog,
                                                  tar, m))
        try:
            solve = solve_level(model, scenario_set, catalog, tar, config,
                                warm=warm, **solver_kwargs)
        except (SolverError, InfeasibleSolutionError) as exc:
            levels.append(SweepLevel(float(tax), "error", error=str(exc)))
            continue
        warm, status, error = solve.bnb.root_warm, solve.bnb.status, None
        if status != "optimal":
            error = f"solver ended {status}"
        elif not solve.check.ok:
            status, error = "error", ("optimal solution failed verification: "
                                      f"{solve.check.bad_rows[:3]}")
        levels.append(SweepLevel(float(tax), status, solve, error))

    ordered = sorted((lv for lv in levels if lv.status == "optimal"),
                     key=lambda lv: lv.carbon_tax)
    for a, b in zip(ordered, ordered[1:]):
        lo, hi = a.solve.breakdown.total, b.solve.breakdown.total
        if hi < lo - 1e-6 * (1.0 + abs(hi)):
            raise SolverError(
                f"total cost fell from {lo} at tax {a.carbon_tax} to {hi} "
                f"at tax {b.carbon_tax}; must be non-decreasing")

    notes = []
    if len(ordered) >= 2:
        for fc in catalog.fuel_cells:
            counts = [lv.solve.plan.x_fc.get(fc.fc_id, 0) for lv in ordered]
            notes.append(f"{fc.fc_id} units across taxes: {counts}")
        notes.append("substandard scenarios across taxes: "
                     f"{[lv.solve.audit.count for lv in ordered]}")
    return SweepResult(levels=levels, notes=notes)


def write_plan_summary(path, sweep, catalog):
    """Planning-result table: one row per tax level, empty cells on failed
    levels."""
    header = (["carbon_tax_yuan_per_ton"]
              + [f"fc_{fc.fc_id}_units" for fc in catalog.fuel_cells]
              + ["bess_kwh", "substandard_scenarios", "status"])
    rows = []
    for lv in sweep.levels:
        s = lv.optimal
        cells = ([None] * (len(catalog.fuel_cells) + 2) if s is None
                 else [s.plan.x_fc[fc.fc_id] for fc in catalog.fuel_cells]
                 + [s.plan.x_ess, s.audit.count])
        rows.append([lv.carbon_tax] + cells + [lv.status])
    write_table_csv(path, header, rows)


def write_cost_breakdown(path, sweep):
    """Cost table: one row per tax level, empty parts on failed levels."""
    parts = [f.name for f in fields(CostBreakdown)]
    header = ["carbon_tax_yuan_per_ton"] + parts + ["status"]
    rows = []
    for lv in sweep.levels:
        if lv.optimal is None:
            rows.append([lv.carbon_tax] + [None] * len(parts) + [lv.status])
        else:
            d = lv.optimal.breakdown.as_dict()
            rows.append([lv.carbon_tax] + [d[p] for p in parts]
                        + [lv.status])
    write_table_csv(path, header, rows)


@dataclass
class PlanCheck:
    """Semantic re-verification of a PlanSolution against raw scenario
    data: balances, storage chains, SOC windows, cyclic closure."""

    ok: bool
    max_residual: float
    issues: list = field(default_factory=list)


def verify_plan(solution, scenario_set, catalog, tariffs) -> PlanCheck:
    """Recheck a plan from physics, without the model or the solver.

    Electric balance residuals are scaled by (1 + max electric load); heat
    surplus must be >= -_PLAN_TOL absolutely; storage dynamics, cyclic closure
    and SOC windows are checked to _PLAN_TOL on energies. A store may not
    charge and discharge more than _PLAN_TOL each in the same hour.
    """
    issues = []
    worst = 0.0

    def resid(label, value, bar):
        # balance/chain residual: always counts toward max_residual
        nonlocal worst
        worst = max(worst, abs(value))
        if abs(value) > bar:
            issues.append(f"{label}: {float(value)!r}")

    def flag(cond, label, value):
        # window/integrality check: counts only when violated
        if not cond:
            issues.append(f"{label}: {float(value)!r}")

    bess, tess, fleet = catalog.bess, catalog.tess, catalog.ev_fleet
    n = scenario_set.grid.n_scenarios
    t_day = scenario_set.grid.hours_per_day
    max_e_load = max(max(sc.elec_load) for sc in scenario_set.scenarios)
    e_scale = 1.0 + max_e_load

    for s, sc in enumerate(scenario_set.scenarios):
        for t in range(t_day):
            supply = (solution.grid[s, t] + solution.pv[s, t]
                      - solution.bess_ch[s, t] / bess.eta_ch
                      + bess.eta_dis * solution.bess_dis[s, t])
            for i, fc in enumerate(catalog.fuel_cells):
                supply += fc.gas_to_elec * solution.fuel[s, t, i]
            for j in range(solution.ev_ch.shape[1]):
                ch = solution.ev_ch[s, j, t]
                if not np.isnan(ch):
                    supply -= ch / fleet.eta_ch
                    supply += fleet.eta_dis * solution.ev_dis[s, j, t]
            resid(f"elec balance s{s} t{t}",
                  (supply - sc.elec_load[t]) / e_scale, _PLAN_TOL)

            heat = (- solution.tess_ch[s, t] / tess.eta_ch
                    + tess.eta_dis * solution.tess_dis[s, t])
            for i, fc in enumerate(catalog.fuel_cells):
                heat += fc.gas_to_heat * solution.fuel[s, t, i]
            surplus = heat - sc.heat_load[t]
            flag(surplus >= -_PLAN_TOL, f"heat surplus s{s} t{t}", surplus)

        # storage chains with cyclic wrap: E(t+1) = E(t) + ch(t) - dis(t)
        for t in range(t_day):
            t_next = (t + 1) % t_day
            r_b = (solution.bess_e[s, t_next] - solution.bess_e[s, t]
                   - solution.bess_ch[s, t] + solution.bess_dis[s, t])
            resid(f"bess chain s{s} t{t}", r_b, _PLAN_TOL)
            r_t = (solution.tess_e[s, t_next] - solution.tess_e[s, t]
                   - solution.tess_ch[s, t] + solution.tess_dis[s, t])
            resid(f"tess chain s{s} t{t}", r_t, _PLAN_TOL)

        cap = solution.x_ess
        for t in range(t_day):
            e = solution.bess_e[s, t]
            flag(e >= bess.soc_min * cap - _PLAN_TOL * (1 + cap),
                 f"bess soc low s{s} t{t}", e)
            flag(e <= bess.soc_max * cap + _PLAN_TOL * (1 + cap),
                 f"bess soc high s{s} t{t}", e)

        for j in range(solution.ev_e.shape[1]):
            span = ~np.isnan(solution.ev_e[s, j])
            hours = np.flatnonzero(span)
            arrive, depart = int(hours[0]), int(hours[-1])
            for t in range(arrive, depart):
                r = (solution.ev_e[s, j, t + 1] - solution.ev_e[s, j, t]
                     - solution.ev_ch[s, j, t] + solution.ev_dis[s, j, t])
                resid(f"ev chain s{s} j{j} t{t}", r, _PLAN_TOL)
            for t in range(arrive + 1, depart + 1):
                e = solution.ev_e[s, j, t]
                cap_ev = fleet.capacity
                flag(e >= fleet.soc_min * cap_ev - _PLAN_TOL * (1 + cap_ev),
                     f"ev soc low s{s} j{j} t{t}", e)
                flag(e <= fleet.soc_max * cap_ev + _PLAN_TOL * (1 + cap_ev),
                     f"ev soc high s{s} j{j} t{t}", e)
            # z=0 scenarios owe every EV its target at departure
            if solution.z[s] == 0:
                dep_soc = solution.e_dep[s, j] / fleet.capacity
                flag(dep_soc >= fleet.target_departure_soc
                     - _PLAN_TOL * (1 + fleet.target_departure_soc),
                     f"departure soc s{s} j{j}", dep_soc)

    for store, ch, dis in (("bess", solution.bess_ch, solution.bess_dis),
                           ("tess", solution.tess_ch, solution.tess_dis),
                           ("ev", solution.ev_ch, solution.ev_dis)):
        both = np.fmin(ch, dis)  # NaN outside a vehicle's window
        for at in np.argwhere(both > _PLAN_TOL).tolist():
            where = (f"s{at[0]} t{at[1]}" if len(at) == 2
                     else f"s{at[0]} j{at[1]} t{at[2]}")
            issues.append(f"{store} charges and discharges {where}: "
                          f"{float(both[tuple(at)])!r}")

    for fc_id, units in solution.x_fc.items():
        flag(abs(units - round(units)) <= _PLAN_TOL, f"integral x_fc {fc_id}",
             units)
    for s in range(n):
        flag(solution.z[s] in (0, 1), f"binary z s{s}", solution.z[s])

    return PlanCheck(ok=not issues, max_residual=worst, issues=issues)
