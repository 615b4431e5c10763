"""Assembly of the planning MILP.

First stage picks equipment (BESS capacity, integer fuel-cell counts); the
second stage dispatches every scenario day. The chance limit on EV departure
shortfalls enters through per-scenario indicator binaries Z(s) coupled to
shortfall slacks by big-M rows, with one cardinality row capping sum(Z).

Storage dynamics use storage-side power: the state gains P_ch and loses
P_dis one-for-one, while the bus pays P_ch/eta_ch and receives
eta_dis*P_dis. Daily cycles are closed: the start-of-day energy equals the
end-of-day energy plus the last hour's action. No row keeps a store from
charging and discharging in the same hour; repair_overlap takes any such
overlap out of a solved x at the same cost.

All builders are pure and emit rows in deterministic (s,t,i,j) order.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from .core import FEAS_TOL, MONEY_SCALE, annualization_factor
from .errors import InvalidParameterError, ModelBuildError

# variable kinds
K_XESS = "x_ess"
K_XFC = "x_fc"
K_GRID = "grid"
K_PV = "pv"
K_FUEL = "fuel"
K_BCH = "bess_ch"
K_BDIS = "bess_dis"
K_BE = "bess_e"
K_TCH = "tess_ch"
K_TDIS = "tess_dis"
K_TE = "tess_e"
K_VCH = "ev_ch"
K_VDIS = "ev_dis"
K_VE = "ev_e"
K_SHORT = "shortfall"
K_Z = "z"

# column kinds
CONT, INTEGER, BINARY = 0, 1, 2
# row senses
LE, EQ, GE = 0, 1, 2

C_PV = 1.0   # PV availability is already electric power
C_GRID = 1.0

_NAME_FMT = {
    K_XESS: "XESS", K_XFC: "XFC{}", K_GRID: "GR{}_{}", K_PV: "PV{}_{}",
    K_FUEL: "FU{}_{}_{}", K_BCH: "BC{}_{}", K_BDIS: "BD{}_{}", K_BE: "BE{}_{}",
    K_TCH: "TC{}_{}", K_TDIS: "TD{}_{}", K_TE: "TE{}_{}",
    K_VCH: "VC{}_{}_{}", K_VDIS: "VD{}_{}_{}", K_VE: "VE{}_{}_{}",
    K_SHORT: "SH{}_{}", K_Z: "Z{}",
}


@dataclass(frozen=True)
class ModelConfig:
    """Chance level of the planning model.

    zeta  admissible fraction of substandard scenarios, in [0, 1)

    The chance rows' big-M, the shortfall cap, is bound-tightened from
    catalog data: (target_soc - soc_min) * ev capacity. The model has no
    charge/discharge exclusivity rows: repair_overlap makes a solved x
    exclusive at the same cost.
    """

    zeta: float = 0.05
    # accepts only "relaxed", which perfbench's chance workload still
    # passes; it goes once the benchmark stops passing it (ROADMAP item 1)
    exclusivity_mode: str = "relaxed"

    def __post_init__(self):
        if not (0.0 <= self.zeta < 1.0):
            raise InvalidParameterError("zeta must be in [0, 1)")
        if self.exclusivity_mode != "relaxed":
            raise InvalidParameterError(
                "exclusivity_mode must be 'relaxed': binary mode was removed, "
                "and overlap is repaired after the solve")


def max_substandard(n_scenarios: int, zeta: float) -> int:
    """floor(N * zeta), guarded against float representation of N*zeta."""
    return int(math.floor(n_scenarios * zeta + 1e-9))


def _fuel_per_unit(fc):
    """The most fuel one unit of fc burns in an hour: max_elec/gas_to_elec,
    or max_heat/gas_to_heat where that is less and fc yields heat."""
    if fc.gas_to_heat > 0.0:
        return min(fc.max_elec / fc.gas_to_elec, fc.max_heat / fc.gas_to_heat)
    return fc.max_elec / fc.gas_to_elec


class VarIndex:
    """The MILP's column layout.

    ids[kind] holds the column id of every variable of one kind in an
    integer array indexed by the variable's indices (scenario s, hour t,
    fuel cell i and vehicle j, all 0-based), -1 where the variable has no
    column. EV dispatch exists for parked hours t in [arrive, depart); EV
    energies for t in [arrive+1, depart], the arrival state being the fixed
    datum initial_soc * capacity; ev_target, target_departure_soc *
    capacity, is every visit's departure target. Columns come out in
    deterministic order and all bounds are finite. grid is the scenario
    set's time grid, the one every builder reads.
    """

    def __init__(self, catalog, scenario_set, tariffs):
        grid = self.grid = scenario_set.grid
        n = self.n_scenarios = grid.n_scenarios
        t_day = self.hours = grid.hours_per_day
        self.fc_ids = tuple(f.fc_id for f in catalog.fuel_cells)
        n_fc = len(self.fc_ids)
        n_ev = self.n_ev = catalog.ev_fleet.n_ev
        self.windows = {}  # (s, j) -> (arrive, depart)
        self.ev_init = {}  # (s, j) -> arrival energy datum (kWh)
        fleet = catalog.ev_fleet
        self.ev_target = fleet.target_departure_soc * fleet.capacity
        shapes = {K_XESS: (), K_XFC: (n_fc,), K_FUEL: (n, t_day, n_fc),
                  K_VCH: (n, t_day, n_ev), K_VDIS: (n, t_day, n_ev),
                  K_VE: (n, t_day + 1, n_ev), K_SHORT: (n, n_ev), K_Z: (n,)}
        for k in (K_GRID, K_PV, K_BCH, K_BDIS, K_BE, K_TCH, K_TDIS, K_TE):
            shapes[k] = (n, t_day)
        ids = self.ids = {k: np.full(shape, -1, dtype=np.int64)
                          for k, shape in shapes.items()}
        n_cols = 0

        def new(*shape):  # the next prod(shape) column ids
            nonlocal n_cols
            block = n_cols + np.arange(math.prod(shape)).reshape(shape)
            n_cols += block.size
            return block

        ids[K_XESS][()] = new()
        ids[K_XFC][:] = new(n_fc)
        # each scenario-hour: grid, PV, the fuel cells, then the stores
        hour = new(n, t_day, n_fc + 8)
        ids[K_GRID][:], ids[K_PV][:] = hour[..., 0], hour[..., 1]
        ids[K_FUEL][:] = hour[..., 2:2 + n_fc]
        for q, k in enumerate((K_BCH, K_BDIS, K_BE, K_TCH, K_TDIS, K_TE)):
            ids[k][:] = hour[..., 2 + n_fc + q]

        for s, sc in enumerate(scenario_set.scenarios):
            if len(sc.ev_records) != n_ev:
                raise ModelBuildError(
                    f"scenario {s} has {len(sc.ev_records)} vehicle records, "
                    f"the fleet has {n_ev}")
            for j, rec in enumerate(sc.ev_records):
                a, d = rec.arrive_hour, rec.depart_hour
                if d > t_day:
                    raise ModelBuildError(
                        f"scenario {s}, ev {j}: window [{a}, {d}] leaves the "
                        f"day (T={t_day})")
                self.windows[(s, j)] = (a, d)
                self.ev_init[(s, j)] = rec.initial_soc * fleet.capacity
                ids[K_VCH][s, a:d, j] = new(d - a)
                ids[K_VDIS][s, a:d, j] = new(d - a)
                ids[K_VE][s, a + 1:d + 1, j] = new(d - a)
                ids[K_SHORT][s, j] = new()
        ids[K_Z][:] = new(n)
        self.n_cols = n_cols

        def fill(values, kind, v):
            have = ids[kind] >= 0
            values[ids[kind][have]] = np.broadcast_to(v, have.shape)[have]

        bess, tess, fcs = catalog.bess, catalog.tess, catalog.fuel_cells
        rate = bess.rate_fraction * bess.max_capacity
        trate = tess.rate_fraction * tess.capacity
        upper = {
            K_XESS: bess.max_capacity,
            K_XFC: [float(fc.max_units) for fc in fcs],
            K_GRID: tariffs.grid_cap,
            K_PV: np.minimum([sc.pv_avail for sc in scenario_set.scenarios],
                             tariffs.pv_cap),
            K_FUEL: [fc.max_units * _fuel_per_unit(fc) for fc in fcs],
            K_BCH: rate, K_BDIS: rate,
            K_BE: bess.soc_max * bess.max_capacity,
            K_TCH: trate, K_TDIS: trate, K_TE: tess.capacity,
            K_VCH: fleet.charger_power,
            K_VDIS: fleet.discharge_rate_fraction * fleet.capacity,
            K_VE: fleet.soc_max * fleet.capacity,
            K_SHORT: (fleet.target_departure_soc - fleet.soc_min)
            * fleet.capacity,
            K_Z: 1.0,
        }
        self.lb, self.ub = np.zeros(n_cols), np.zeros(n_cols)
        self.kind = np.zeros(n_cols, dtype=np.int8)  # CONT
        for k, hi in upper.items():
            fill(self.ub, k, hi)
        fill(self.lb, K_VE, fleet.soc_min * fleet.capacity)
        fill(self.kind, K_XFC, INTEGER)
        fill(self.kind, K_Z, BINARY)
        self.names = [None] * n_cols
        for k, c in ids.items():
            have = c >= 0
            for col, at in zip(c[have].tolist(), np.argwhere(have).tolist()):
                self.names[col] = _NAME_FMT[k].format(*at)


def repair_overlap(index, catalog, x):
    """Take each store-hour's overlap, min(charge, discharge), off both its
    charge and its discharge, and curtail PV by what the bus gains.

    Every storage chain and departure energy stays as it was, and the rate
    caps and the BESS throughput row still hold. A TESS hour's heat
    surplus grows by overlap * (1/eta_ch - eta_dis), which the heat
    balance, a >= row, takes. The electric bus gains as much from each
    BESS and EV overlap of an hour; the hour's PV column, which costs
    nothing, is curtailed by their sum, so c'x does not change. An hour
    whose gain exceeds its PV keeps its electric overlaps. Only overlapping
    store-hours and their PV are written: elsewhere x comes back bit for
    bit.

    Returns (x', found, left): the repaired copy of x, and the names of
    the charge columns of the store-hours whose charge and discharge both
    exceed FEAS_TOL in x and in x'.
    """
    ids, bess, fleet = index.ids, catalog.bess, catalog.ev_fleet
    x = np.asarray(x, dtype=float)
    stores = [(ids[K_BCH], ids[K_BDIS]), (ids[K_TCH], ids[K_TDIS]),
              (ids[K_VCH], ids[K_VDIS])]
    d_b, d_t, d_v = (np.where(ch >= 0, np.minimum(x[ch], x[dis]), 0.0)
                     .clip(0.0) for ch, dis in stores)
    gain = (d_b * (1.0 / bess.eta_ch - bess.eta_dis)
            + d_v.sum(axis=2) * (1.0 / fleet.eta_ch - fleet.eta_dis))
    fits = gain <= x[ids[K_PV]]
    out = x.copy()
    for (ch, dis), d in zip(stores, (d_b * fits, d_t, d_v * fits[..., None])):
        on = d > 0.0
        out[ch[on]] -= d[on]
        out[dis[on]] -= d[on]
    cut = fits & (gain > 0.0)
    out[ids[K_PV][cut]] -= gain[cut]

    def overlapping(v):
        return [index.names[c] for ch, dis in stores for c in
                ch[(ch >= 0) & (np.minimum(v[ch], v[dis]) > FEAS_TOL)]]
    return out, overlapping(x), overlapping(out)


@dataclass
class MilpModel:
    """A concrete MILP: min c'x s.t. rows, bounds, integrality; its size is
    a_matrix's shape.

    start_basis holds, for each row, the column basic in it when an LP
    solve starts cold: a structural column id, or n_cols + i for row i's
    slack. It defaults to every row's slack; assemble_model names its own.
    start_upper marks the structural columns that such a solve seats on
    their upper bound while nonbasic; the others sit on their lower bound.
    It defaults to no column.
    """

    obj: np.ndarray
    a_matrix: sparse.csr_matrix
    row_sense: np.ndarray
    rhs: np.ndarray
    row_names: list
    col_lb: np.ndarray
    col_ub: np.ndarray
    col_kind: np.ndarray
    col_names: list
    var_index: VarIndex = None
    start_basis: np.ndarray = None
    start_upper: np.ndarray = None

    def __post_init__(self):
        if self.start_basis is None:
            self.start_basis = self.n_cols + np.arange(self.n_rows)
        if self.start_upper is None:
            self.start_upper = np.zeros(self.n_cols, dtype=bool)

    @property
    def n_rows(self):
        return self.a_matrix.shape[0]

    @property
    def n_cols(self):
        return self.a_matrix.shape[1]

    def check(self):
        if len(set(self.row_names)) != self.n_rows:
            raise ModelBuildError("duplicate row names")
        if len(set(self.col_names)) != self.n_cols:
            raise ModelBuildError("duplicate column names")
        lb, ub = self.col_lb, self.col_ub
        for bad, what in ((np.isnan(lb) | np.isnan(ub), "NaN column bound"),
                          (lb > ub + 1e-12, "crossed column bounds")):
            if bad.any():  # name the first such column
                j = int(np.argmax(bad))
                raise ModelBuildError(f"{what}: {self.col_names[j]} in "
                                      f"[{lb[j]}, {ub[j]}]")
        start = np.asarray(self.start_basis)
        if start.shape != (self.n_rows,):
            raise ModelBuildError(
                f"start basis names {start.size} columns for {self.n_rows} "
                "rows")
        if start.size and not (
                0 <= start.min() and start.max() < self.n_cols + self.n_rows):
            raise ModelBuildError("start basis names a column out of range")
        if np.unique(start).size != start.size:
            raise ModelBuildError("start basis names a column twice")
        upper = np.asarray(self.start_upper)
        if upper.shape != (self.n_cols,) or upper.dtype != bool:
            raise ModelBuildError(
                f"start_upper must be a bool mask over the {self.n_cols} "
                f"columns, got {upper.dtype} of shape {upper.shape}")


def build_objective(index, catalog, tariffs) -> np.ndarray:
    """Dense objective vector in money units (1e4 yuan), minimization.

    Investment costs land on the first-stage columns; the index grid's
    annualization factor m converts summed per-scenario hourly costs into
    planning-horizon present value and already carries the scenario-average
    weight. Only this vector depends on the tariffs' prices and carbon tax.
    """
    ids = index.ids
    m = annualization_factor(index.grid)
    fcs = catalog.fuel_cells
    tax = tariffs.carbon_tax
    obj = np.zeros(index.n_cols)
    obj[ids[K_XESS]] = catalog.bess.invest_cost
    obj[ids[K_XFC]] = [fc.invest_cost for fc in fcs]
    obj[ids[K_GRID]] = m * (np.array(tariffs.elec_price)
                            + tax * np.array(tariffs.grid_emission)) / MONEY_SCALE
    obj[ids[K_FUEL]] = m * (np.array([fc.fuel_price for fc in fcs])
                            + tax * np.array([fc.fuel_emission for fc in fcs])
                            ) / MONEY_SCALE
    obj[ids[K_SHORT]] = m * tariffs.soc_penalty / MONEY_SCALE
    return obj


def _heat_start(index, scenario_set, catalog, obj):
    """The fuel cell whose fuel starts basic in every heat balance, and the
    fuel-limit row its unit count starts basic in.

    Fuel cell i covers the set's peak heat load P when
    P <= max_units * gas_to_heat * u, u = _fuel_per_unit(fc): its fuel
    alone then meets every heat load within the fuel's bound, and the
    units that takes within max_units. A cell with gas_to_heat or max_heat
    0 never does. Of the cells that cover P, the one whose fuel costs
    least per unit of heat in obj, obj[FU] / gas_to_heat, is chosen, the
    lowest index on ties. Its count starts in its FL row at the hour of
    the peak heat load, the first in row order on ties: that row needs the
    most units, so every other FL row then holds.

    Returns (i, (s, t)), or None when no fuel cell covers P.
    """
    fcs = catalog.fuel_cells
    heat = np.array([sc.heat_load for sc in scenario_set.scenarios])
    cover = [i for i, fc in enumerate(fcs)
             if fc.gas_to_heat > 0.0 and fc.max_heat > 0.0 and heat.max()
             <= fc.max_units * fc.gas_to_heat * _fuel_per_unit(fc)]
    if not cover:
        return None
    i = min(cover, key=lambda i: obj[index.ids[K_FUEL][0, 0, i]]
            / fcs[i].gas_to_heat)
    s, t = np.unravel_index(np.argmax(heat), heat.shape)
    return i, (int(s), int(t))


def _charge_start(index, scenario_set, catalog, obj, heat):
    """The columns that start at their upper bound, and the charge column
    each departure row starts basic in.

    At the start, with every other column at 0, an hour's grid import is
    its electric load less the heat fuel cell's electric output (its fuel
    meets the heat load exactly, see _heat_start), plus what the vehicles
    charge in it. Each visit (s, j) whose need, target less arrival
    energy, is above 0 walks its window's charge columns from the hour of
    cheapest import in obj to the dearest, the earliest first on ties,
    and uses an hour only if its import, once that hour's charge is added,
    stays within [0, grid_cap]. Each hour used charges at its upper bound,
    charger_power, until the need left is at most that: the hour that
    takes this remainder starts basic in SD{s}_{j}. A visit whose hours
    cannot meet its need keeps the charges it has, and its departure row
    its slack. Then PV{s}_{t} starts at its upper bound where that bound
    is at most the hour's import, charging included, so that import stays
    at or above 0.

    Returns (upper, sd_start): a bool mask over the columns, and a dict
    (s, j) -> the charge column basic in SD{s}_{j}.
    """
    ids, fleet = index.ids, catalog.ev_fleet
    imports = np.array([sc.elec_load for sc in scenario_set.scenarios])
    if heat is not None:
        fc = catalog.fuel_cells[heat[0]]
        imports -= fc.gas_to_elec / fc.gas_to_heat * np.array(
            [sc.heat_load for sc in scenario_set.scenarios])
    cost, cap = obj[ids[K_GRID]], index.ub[ids[K_GRID]]
    power = fleet.charger_power
    upper = np.zeros(index.n_cols, dtype=bool)
    sd_start = {}
    for (s, j), (a, d) in index.windows.items():
        need = index.ev_target - index.ev_init[(s, j)]
        if need <= 0.0:
            continue
        for t in sorted(range(a, d), key=lambda t: (cost[s, t], t)):
            take = min(need, power)
            load = imports[s, t] + take / fleet.eta_ch
            if not 0.0 <= load <= cap[s, t]:
                continue
            imports[s, t] = load
            col = ids[K_VCH][s, t, j]
            if take == need:
                sd_start[(s, j)] = col
                break
            upper[col] = True
            need -= take
    pv = ids[K_PV]
    upper[pv] = index.ub[pv] <= imports
    return upper, sd_start


def build_energy_balance(index, scenario_set, catalog, heat_fc) -> list:
    """Hourly electric equality and heat covering rows, per scenario.

    Each electric balance starts with its grid import basic (C_GRID = 1).
    Each heat balance starts with fuel cell heat_fc's fuel basic, or on its
    slack when heat_fc is None. With every other column at 0, the fuel
    meets the heat load exactly and import the electric load less that
    fuel's electric output."""
    rows = []
    ids, fleet = index.ids, catalog.ev_fleet
    bess, tess, fcs = catalog.bess, catalog.tess, catalog.fuel_cells
    elec = [C_PV, C_GRID, *(fc.gas_to_elec for fc in fcs),
            -1.0 / bess.eta_ch, bess.eta_dis]
    heat = [*(fc.gas_to_heat for fc in fcs), -1.0 / tess.eta_ch, tess.eta_dis]
    for s, sc in enumerate(scenario_set.scenarios):
        for t in range(index.hours):
            parked = ids[K_VCH][s, t] >= 0
            n_parked = int(parked.sum())
            rows.append((f"EB{s}_{t}", EQ, sc.elec_load[t],
                         [ids[K_PV][s, t], ids[K_GRID][s, t],
                          *ids[K_FUEL][s, t], ids[K_BCH][s, t],
                          ids[K_BDIS][s, t], *ids[K_VCH][s, t, parked],
                          *ids[K_VDIS][s, t, parked]],
                         elec + [-1.0 / fleet.eta_ch] * n_parked
                         + [fleet.eta_dis] * n_parked, ids[K_GRID][s, t]))
        for t in range(index.hours):
            fuel = ids[K_FUEL][s, t]
            rows.append((f"HB{s}_{t}", GE, sc.heat_load[t],
                         [*fuel, ids[K_TCH][s, t], ids[K_TDIS][s, t]], heat,
                         -1 if heat_fc is None else fuel[heat_fc]))
    return rows


def build_device_bounds(index, catalog, x_start) -> list:
    """Fuel-cell fuel limits tied to installed counts.

    PV availability, grid import and dispatch rate limits are plain column
    bounds, materialized when the index is built; this emits one row per
    (s, t, i), FL: P_fuel <= u_i * X_i, u_i = _fuel_per_unit. It states
    both port caps, C_ge*P_fuel <= max_elec*X and C_gh*P_fuel <=
    max_heat*X: each is a positive multiple of P_fuel <= cap*X, so only
    the lesser cap binds. Fuel cell i's count starts basic in its row
    (s, t) when x_start is (i, (s, t)); every other row on its slack.
    """
    fuel, x = index.ids[K_FUEL], index.ids[K_XFC]
    units = [_fuel_per_unit(fc) for fc in catalog.fuel_cells]
    return [(f"FL{s}_{t}_{i}", LE, 0.0, (fuel[s, t, i], x[i]), (1.0, -u),
             x[i] if x_start == (i, (s, t)) else -1)
            for s in range(index.n_scenarios) for t in range(index.hours)
            for i, u in enumerate(units)]


def _cyclic_chain(prefix, e, ch, dis) -> list:
    """Lossless daily cycle of one store in one scenario, hour 0 following
    the last: E(t) = E(t-1) + P_ch(t-1) - P_dis(t-1).

    The row of hour t >= 1 starts with E(t) basic, so every energy starts
    at 0. Hour 0's row closes the cycle and starts on its slack: over the
    whole cycle the energy columns alone are singular (their rows sum to
    zero), while without hour 0's row they are lower-bidiagonal."""
    return [(f"{prefix}{t}", EQ, 0.0, (e[t], e[t - 1], ch[t - 1], dis[t - 1]),
             (1.0, -1.0, -1.0, 1.0), e[t] if t else -1)
            for t in range(len(e))]


def build_bess_constraints(index, bess) -> list:
    """Battery SOC window, cyclic dynamics, rate caps, lifetime throughput.

    The lifetime row is the rearranged daily form:
    sum_t P_ch(s,t) <= T_ch * X_ESS / (PP * 365). The chain rows start as
    _cyclic_chain says; every other row on its slack.
    """
    rows = []
    t_day = index.hours
    ch, dis, e = index.ids[K_BCH], index.ids[K_BDIS], index.ids[K_BE]
    x = int(index.ids[K_XESS])
    life = bess.lifetime_cycles / (index.grid.planning_years * 365.0)
    for s in range(index.n_scenarios):
        for t in range(t_day):
            rows.append((f"BL{s}_{t}", LE, 0.0, (x, e[s, t]),
                         (bess.soc_min, -1.0), -1))
            rows.append((f"BU{s}_{t}", LE, 0.0, (e[s, t], x),
                         (1.0, -bess.soc_max), -1))
        rows += _cyclic_chain(f"BS{s}_", e[s], ch[s], dis[s])
        for t in range(t_day):
            rows.append((f"BRC{s}_{t}", LE, 0.0, (ch[s, t], x),
                         (1.0, -bess.rate_fraction), -1))
            rows.append((f"BRD{s}_{t}", LE, 0.0, (dis[s, t], x),
                         (1.0, -bess.rate_fraction), -1))
        rows.append((f"BW{s}", LE, 0.0, [*ch[s], x], [1.0] * t_day + [-life],
                     -1))
    return rows


def build_tess_constraints(index) -> list:
    """Thermal store: cyclic dynamics.

    Capacity is a fixed datum, so the SOC window and rate caps are column
    bounds; no lifetime row. The rows start as _cyclic_chain says.
    """
    ch, dis, e = index.ids[K_TCH], index.ids[K_TDIS], index.ids[K_TE]
    return [row for s in range(index.n_scenarios)
            for row in _cyclic_chain(f"TS{s}_", e[s], ch[s], dis[s])]


def build_ev_constraints(index) -> list:
    """Per-vehicle energy chains anchored at the arrival SOC.

    Charger and discharge rate caps are column bounds; the first chain row
    carries the arrival energy as its right-hand side. Each row starts with
    the vehicle's energy at its hour basic, so every energy starts at the
    arrival energy; no cycle closes, so every row of the chain can.
    """
    rows = []
    ch, dis, e = index.ids[K_VCH], index.ids[K_VDIS], index.ids[K_VE]
    for (s, j), (a, d) in index.windows.items():
        rows.append((f"VS{s}_{a + 1}_{j}", EQ, index.ev_init[(s, j)],
                     (e[s, a + 1, j], ch[s, a, j], dis[s, a, j]),
                     (1.0, -1.0, 1.0), e[s, a + 1, j]))
        for t in range(a + 2, d + 1):
            rows.append((f"VS{s}_{t}_{j}", EQ, 0.0,
                         (e[s, t, j], ch[s, t - 1, j], dis[s, t - 1, j],
                          e[s, t - 1, j]), (1.0, -1.0, 1.0, -1.0),
                         e[s, t, j]))
    return rows


def build_chance_constraints(index, config, sd_start) -> list:
    """Shortfall definition, big-M activation, and the cardinality cap.

    Z(s)=0 forces every vehicle in scenario s to depart at or above the
    target SOC; at most floor(N*zeta) scenarios may set Z=1. The big-M is
    the shortfall column's upper bound. The departure row SD{s}_{j}
    starts with the charge column sd_start[(s, j)] basic where there is
    one; every other row starts on its slack.
    """
    rows = []
    short, e, z = index.ids[K_SHORT], index.ids[K_VE], index.ids[K_Z]
    for (s, j), (_a, d) in index.windows.items():
        rows.append((f"SD{s}_{j}", GE, index.ev_target,
                     (short[s, j], e[s, d, j]), (1.0, 1.0),
                     sd_start.get((s, j), -1)))
        rows.append((f"SZ{s}_{j}", LE, 0.0, (short[s, j], z[s]),
                     (1.0, -index.ub[short[s, j]]), -1))
    limit = max_substandard(index.n_scenarios, config.zeta)
    rows.append(("CARD", LE, float(limit), z, [1.0] * index.n_scenarios,
                 -1))
    return rows


def assemble_model(grid, catalog, tariffs, scenario_set, config) -> MilpModel:
    """Index variables, run every builder, and freeze the sparse model.

    Each row is (name, sense, rhs, columns, coefficients, start); a row
    that names a column twice is refused, and zero coefficients are left
    out. start is the column basic in the row when an LP solve starts cold,
    or -1 for the row's slack; together they are the model's start_basis.
    The builders name the column each row defines: grid import in every
    electric balance, a store's energy E(t) in its chain row of hour
    t >= 1 (hour 0's row, which closes the cycle, keeps its slack) and a
    vehicle's energy in each of its chain rows. When a fuel cell covers
    the peak heat load (_heat_start), its fuel is basic in every heat
    balance and its count in its FL row of the peak hour. The model's
    start_upper seats the charges and PV that _charge_start plans on
    their upper bound, and a departure row SD{s}_{j} starts with the
    charge column of the hour that takes the visit's remainder basic.

    The start basis's structural block is block lower triangular, and
    nonsingular by construction, once its rows are taken in this order:
    the heat balances (each fixes its hour's fuel, the only basic in it),
    the FL row (fixes the count, given that hour's fuel), each
    store's chain rows and each visit's chain and departure rows (they fix
    the energies and the charge basic in the departure row), then the
    electric balances (each fixes its import, given its hour's fuel and
    charges). Every diagonal block is a nonzero scalar (the fuel, the
    count, and grid import, store and vehicle energies with coefficient
    1) except that of a visit whose departure row starts on a charge.
    That charge does not enter its departure row, but the block stays
    nonsingular: the departure row fixes the energy E(d); the chain rows,
    which sum to E(d) less the arrival energy less the window's net
    charge, fix the charge (coefficient 1); then each chain row fixes its
    energy given the hour before.

    With the nonbasics on the bounds start_upper names, those rows hold
    at the start: the fuel meets each heat load, the count every FL row,
    store energies are 0, a vehicle's energies rise from its arrival
    energy to its departure target, and import meets the electric load
    less the fuel cell's output and PV, plus the charging.
    The basics are within their bounds unless a load exceeds grid_cap,
    the fuel cell's output exceeds an electric load, or a visit cannot
    reach its target. From all slacks, every heat and electric balance,
    every vehicle's first chain row and every departure row would start
    out of bounds instead.

    The time grid is scenario_set.grid; grid must equal it, or the model
    is refused with a ModelBuildError naming both.
    """
    if grid != scenario_set.grid:
        raise ModelBuildError(f"grid {grid} is not the scenario set's grid "
                              f"{scenario_set.grid}")
    index = VarIndex(catalog, scenario_set, tariffs)
    obj = build_objective(index, catalog, tariffs)
    heat = _heat_start(index, scenario_set, catalog, obj)
    upper, sd_start = _charge_start(index, scenario_set, catalog, obj, heat)
    rows = (build_energy_balance(index, scenario_set, catalog,
                                 None if heat is None else heat[0])
            + build_device_bounds(index, catalog, heat)
            + build_bess_constraints(index, catalog.bess)
            + build_tess_constraints(index)
            + build_ev_constraints(index)
            + build_chance_constraints(index, config, sd_start))

    names, senses, rhs, cols, vals, starts = zip(*rows)
    n_rows = len(rows)
    start = np.array(starts, dtype=np.int64)
    slack = start < 0
    start[slack] = index.n_cols + np.flatnonzero(slack)
    ri = np.repeat(np.arange(n_rows), [len(c) for c in cols])
    ci = np.fromiter(chain.from_iterable(cols), np.int64, ri.size)
    vv = np.fromiter(chain.from_iterable(vals), float, ri.size)
    key = ri * index.n_cols + ci
    order = np.argsort(key, kind="stable")
    repeat = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeat.size:
        at = repeat.min()
        raise ModelBuildError(
            f"row {names[ri[at]]}: duplicate column {ci[at]}")
    keep = vv != 0.0
    a_matrix = sparse.csr_matrix((vv[keep], (ri[keep], ci[keep])),
                                 shape=(n_rows, index.n_cols))
    model = MilpModel(
        obj=obj, a_matrix=a_matrix,
        row_sense=np.array(senses, dtype=np.int8),
        rhs=np.array(rhs, dtype=float), row_names=list(names),
        col_lb=index.lb.copy(), col_ub=index.ub.copy(),
        col_kind=index.kind.copy(),
        col_names=list(index.names), var_index=index, start_basis=start,
        start_upper=upper)
    model.check()
    return model
