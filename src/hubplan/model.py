"""Assembly of the planning MILP.

First stage picks equipment (BESS capacity, integer fuel-cell counts); the
second stage dispatches every scenario day. The chance limit on EV departure
shortfalls enters through per-scenario indicator binaries Z(s) coupled to
shortfall slacks by big-M rows, with one cardinality row capping sum(Z).

Storage dynamics use storage-side power: the state gains P_ch and loses
P_dis one-for-one, while the bus pays P_ch/eta_ch and receives
eta_dis*P_dis. Daily cycles are closed: the start-of-day energy equals the
end-of-day energy plus the last hour's action.

All builders are pure and emit rows in deterministic (s,t,i,j) order.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import MONEY_SCALE, annualization_factor
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
K_YB = "y_bess"
K_YT = "y_tess"
K_YEV = "y_ev"
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
    K_SHORT: "SH{}_{}", K_YB: "YB{}_{}", K_YT: "YT{}_{}",
    K_YEV: "YV{}_{}_{}", K_Z: "Z{}",
}


@dataclass(frozen=True)
class ModelConfig:
    """Chance level and formulation switches.

    zeta              admissible fraction of substandard scenarios, in [0, 1)
    exclusivity_mode  "relaxed" drops charge/discharge exclusivity binaries
                      (round-trip losses make overlap dominated at optimum);
                      "binary" keeps them

    Big-M constants are bound-tightened per row from catalog data: storage
    rate caps use rate_fraction * capacity, the shortfall cap uses
    (target_soc - soc_min) * ev capacity.
    """

    zeta: float = 0.05
    exclusivity_mode: str = "relaxed"

    def __post_init__(self):
        if not (0.0 <= self.zeta < 1.0):
            raise InvalidParameterError("zeta must be in [0, 1)")
        if self.exclusivity_mode not in ("relaxed", "binary"):
            raise InvalidParameterError("exclusivity_mode must be 'relaxed' or 'binary'")


def max_substandard(n_scenarios: int, zeta: float) -> int:
    """floor(N * zeta), guarded against float representation of N*zeta."""
    return int(math.floor(n_scenarios * zeta + 1e-9))


class VarIndex:
    """Bijective map between semantic variable keys and column ids.

    Keys are tuples (kind, *indices): scenario s, hour t, fuel cell i and
    vehicle j are 0-based. EV dispatch exists for parked hours
    t in [arrive, depart); EV energies for t in [arrive+1, depart], the
    arrival state being the fixed datum initial_soc * capacity. Columns come
    out in deterministic order and all bounds are finite.

    ids[kind] holds the column id of every key of one kind in an integer
    array indexed by the key's indices, -1 where the key has no column
    (EV hours outside the parking window; the Y kinds in relaxed mode).
    """

    def __init__(self, grid, catalog, config, scenario_set, tariffs):
        n = self.n_scenarios = grid.n_scenarios
        t_day = self.hours = grid.hours_per_day
        self.fc_ids = tuple(f.fc_id for f in catalog.fuel_cells)
        n_fc = len(self.fc_ids)
        n_ev = self.n_ev = catalog.ev_fleet.n_ev
        self.binary_mode = config.exclusivity_mode == "binary"
        self.windows = {}  # (s, j) -> (arrive, depart)
        self.ev_init = {}  # (s, j) -> arrival energy datum (kWh)
        shapes = {K_XESS: (), K_XFC: (n_fc,), K_FUEL: (n, t_day, n_fc),
                  K_VCH: (n, t_day, n_ev), K_VDIS: (n, t_day, n_ev),
                  K_VE: (n, t_day + 1, n_ev), K_SHORT: (n, n_ev),
                  K_YEV: (n, t_day, n_ev), K_Z: (n,)}
        for k in (K_GRID, K_PV, K_BCH, K_BDIS, K_BE, K_TCH, K_TDIS, K_TE,
                  K_YB, K_YT):
            shapes[k] = (n, t_day)
        self.ids = {k: np.full(shape, -1, dtype=np.int64)
                    for k, shape in shapes.items()}

        keys, lb, ub, kind = [], [], [], []

        def add(key, lo, hi, k):
            self.ids[key[0]][key[1:]] = len(keys)
            keys.append(key)
            lb.append(lo)
            ub.append(hi)
            kind.append(k)

        bess, tess, fleet = catalog.bess, catalog.tess, catalog.ev_fleet
        add((K_XESS,), 0.0, bess.max_capacity, CONT)
        for i, fc in enumerate(catalog.fuel_cells):
            add((K_XFC, i), 0.0, float(fc.max_units), INTEGER)

        fuel_ub = []
        for fc in catalog.fuel_cells:
            caps = []
            if fc.gas_to_elec > 0.0:
                caps.append(fc.max_elec / fc.gas_to_elec)
            if fc.gas_to_heat > 0.0:
                caps.append(fc.max_heat / fc.gas_to_heat)
            fuel_ub.append(fc.max_units * min(caps) if caps else 0.0)

        for s, sc in enumerate(scenario_set.scenarios):
            for t in range(t_day):
                add((K_GRID, s, t), 0.0, tariffs.grid_cap, CONT)
                add((K_PV, s, t), 0.0, min(sc.pv_avail[t], tariffs.pv_cap), CONT)
                for i in range(len(catalog.fuel_cells)):
                    add((K_FUEL, s, t, i), 0.0, fuel_ub[i], CONT)
                rate = bess.rate_fraction * bess.max_capacity
                add((K_BCH, s, t), 0.0, rate, CONT)
                add((K_BDIS, s, t), 0.0, rate, CONT)
                add((K_BE, s, t), 0.0, bess.soc_max * bess.max_capacity, CONT)
                trate = tess.rate_fraction * tess.capacity
                add((K_TCH, s, t), 0.0, trate, CONT)
                add((K_TDIS, s, t), 0.0, trate, CONT)
                add((K_TE, s, t), 0.0, tess.capacity, CONT)

        for s, sc in enumerate(scenario_set.scenarios):
            if len(sc.ev_records) != n_ev:
                raise ModelBuildError(
                    f"scenario {s} has {len(sc.ev_records)} vehicle records, "
                    f"the fleet has {n_ev}")
            for j, rec in enumerate(sc.ev_records):
                if rec.depart_hour > t_day:
                    raise ModelBuildError(
                        f"scenario {s}, ev {j}: window [{rec.arrive_hour}, "
                        f"{rec.depart_hour}] leaves the day (T={t_day})")
                self.windows[(s, j)] = (rec.arrive_hour, rec.depart_hour)
                self.ev_init[(s, j)] = rec.initial_soc * fleet.capacity
                for t in range(rec.arrive_hour, rec.depart_hour):
                    add((K_VCH, s, t, j), 0.0, fleet.charger_power, CONT)
                for t in range(rec.arrive_hour, rec.depart_hour):
                    add((K_VDIS, s, t, j), 0.0,
                        fleet.discharge_rate_fraction * fleet.capacity, CONT)
                for t in range(rec.arrive_hour + 1, rec.depart_hour + 1):
                    add((K_VE, s, t, j), fleet.soc_min * fleet.capacity,
                        fleet.soc_max * fleet.capacity, CONT)
                add((K_SHORT, s, j), 0.0,
                    (fleet.target_departure_soc - fleet.soc_min) * fleet.capacity,
                    CONT)

        if self.binary_mode:
            for s in range(n):
                for t in range(t_day):
                    add((K_YB, s, t), 0.0, 1.0, BINARY)
                    add((K_YT, s, t), 0.0, 1.0, BINARY)
            for s, sc in enumerate(scenario_set.scenarios):
                for j, rec in enumerate(sc.ev_records):
                    for t in range(rec.arrive_hour, rec.depart_hour):
                        add((K_YEV, s, t, j), 0.0, 1.0, BINARY)

        for s in range(n):
            add((K_Z, s), 0.0, 1.0, BINARY)

        self.keys = keys
        self.lb = np.array(lb)
        self.ub = np.array(ub)
        self.kind = np.array(kind, dtype=np.int8)
        self.n_cols = len(keys)
        self._map = {k: c for c, k in enumerate(keys)}
        self.names = [_NAME_FMT[k[0]].format(*k[1:]) for k in keys]

    def col(self, kind, *idx) -> int:
        key = (kind, *idx)
        if key not in self._map:
            raise KeyError(f"no column for {key}")
        return self._map[key]

    def has(self, kind, *idx) -> bool:
        return (kind, *idx) in self._map

    def window(self, s, j):
        return self.windows[(s, j)]


@dataclass
class MilpModel:
    """A concrete MILP: min c'x s.t. rows, bounds, integrality."""

    n_rows: int
    n_cols: int
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

    def check(self):
        if len(set(self.row_names)) != self.n_rows:
            raise ModelBuildError("duplicate row names")
        if len(set(self.col_names)) != self.n_cols:
            raise ModelBuildError("duplicate column names")
        if np.any(np.isnan(self.col_lb)) or np.any(np.isnan(self.col_ub)):
            raise ModelBuildError("NaN column bound")
        if np.any(self.col_lb > self.col_ub + 1e-12):
            raise ModelBuildError("crossed column bounds")
        if self.a_matrix.shape != (self.n_rows, self.n_cols):
            raise ModelBuildError("matrix shape mismatch")


def build_objective(index, catalog, tariffs, m) -> np.ndarray:
    """Dense objective vector in money units (1e4 yuan), minimization.

    Investment costs land on the first-stage columns; m converts summed
    per-scenario hourly costs into planning-horizon present value and already
    carries the scenario-average weight. Only this vector depends on the
    tariffs' prices and carbon tax.
    """
    ids = index.ids
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


def build_energy_balance(index, scenario_set, catalog) -> list:
    """Hourly electric equality and heat covering rows, per scenario."""
    rows = []
    eta = catalog.bess
    tes = catalog.tess
    fleet = catalog.ev_fleet
    vch, vdis = index.ids[K_VCH], index.ids[K_VDIS]
    for s, sc in enumerate(scenario_set.scenarios):
        for t in range(index.hours):
            coefs = [(index.col(K_PV, s, t), C_PV),
                     (index.col(K_GRID, s, t), C_GRID)]
            for i, fc in enumerate(catalog.fuel_cells):
                coefs.append((index.col(K_FUEL, s, t, i), fc.gas_to_elec))
            coefs.append((index.col(K_BCH, s, t), -1.0 / eta.eta_ch))
            coefs.append((index.col(K_BDIS, s, t), eta.eta_dis))
            for j in np.flatnonzero(vch[s, t] >= 0):  # vehicles parked at t
                coefs.append((int(vch[s, t, j]), -1.0 / fleet.eta_ch))
                coefs.append((int(vdis[s, t, j]), fleet.eta_dis))
            rows.append((f"EB{s}_{t}", EQ, sc.elec_load[t], coefs))
        for t in range(index.hours):
            coefs = [(index.col(K_FUEL, s, t, i), fc.gas_to_heat)
                     for i, fc in enumerate(catalog.fuel_cells)
                     if fc.gas_to_heat != 0.0]
            coefs.append((index.col(K_TCH, s, t), -1.0 / tes.eta_ch))
            coefs.append((index.col(K_TDIS, s, t), tes.eta_dis))
            rows.append((f"HB{s}_{t}", GE, sc.heat_load[t], coefs))
    return rows


def build_device_bounds(index, catalog) -> list:
    """Fuel-cell output caps tied to installed counts.

    PV availability, grid import and dispatch rate limits are plain column
    bounds, materialized when the index is built; this emits the coupling
    rows C_ge*P_fuel <= X*max_elec and C_gh*P_fuel <= X*max_heat.
    """
    rows = []
    for s in range(index.n_scenarios):
        for t in range(index.hours):
            for i, fc in enumerate(catalog.fuel_cells):
                fuel = index.col(K_FUEL, s, t, i)
                x = index.col(K_XFC, i)
                rows.append((f"FE{s}_{t}_{i}", LE, 0.0,
                             [(fuel, fc.gas_to_elec), (x, -fc.max_elec)]))
                coefs = [(x, -fc.max_heat)]
                if fc.gas_to_heat != 0.0:
                    coefs.insert(0, (fuel, fc.gas_to_heat))
                rows.append((f"FH{s}_{t}_{i}", LE, 0.0, coefs))
    return rows


def build_bess_constraints(index, grid, bess) -> list:
    """Battery SOC window, cyclic dynamics, rate caps, lifetime throughput.

    The lifetime row is the rearranged daily form:
    sum_t P_ch(s,t) <= T_ch * X_ESS / (PP * 365).
    """
    rows = []
    t_day = grid.hours_per_day
    x = index.col(K_XESS)
    life = bess.lifetime_cycles / (grid.planning_years * 365.0)
    m_rate = bess.rate_fraction * bess.max_capacity
    for s in range(grid.n_scenarios):
        for t in range(t_day):
            e = index.col(K_BE, s, t)
            rows.append((f"BL{s}_{t}", LE, 0.0, [(x, bess.soc_min), (e, -1.0)]))
            rows.append((f"BU{s}_{t}", LE, 0.0, [(e, 1.0), (x, -bess.soc_max)]))
        for t in range(t_day):
            prev = (t - 1) % t_day
            rows.append((f"BS{s}_{t}", EQ, 0.0,
                         [(index.col(K_BE, s, t), 1.0),
                          (index.col(K_BE, s, prev), -1.0),
                          (index.col(K_BCH, s, prev), -1.0),
                          (index.col(K_BDIS, s, prev), 1.0)]))
        for t in range(t_day):
            rows.append((f"BRC{s}_{t}", LE, 0.0,
                         [(index.col(K_BCH, s, t), 1.0), (x, -bess.rate_fraction)]))
            rows.append((f"BRD{s}_{t}", LE, 0.0,
                         [(index.col(K_BDIS, s, t), 1.0), (x, -bess.rate_fraction)]))
        rows.append((f"BW{s}", LE, 0.0,
                     [(index.col(K_BCH, s, t), 1.0) for t in range(t_day)]
                     + [(x, -life)]))
        if index.binary_mode:
            for t in range(t_day):
                y = index.col(K_YB, s, t)
                rows.append((f"BXC{s}_{t}", LE, 0.0,
                             [(index.col(K_BCH, s, t), 1.0), (y, -m_rate)]))
                rows.append((f"BXD{s}_{t}", LE, m_rate,
                             [(index.col(K_BDIS, s, t), 1.0), (y, m_rate)]))
    return rows


def build_tess_constraints(index, grid, tess) -> list:
    """Thermal store: cyclic dynamics plus optional exclusivity.

    Capacity is a fixed datum, so the SOC window and rate caps are column
    bounds; no lifetime row.
    """
    rows = []
    t_day = grid.hours_per_day
    m_rate = tess.rate_fraction * tess.capacity
    for s in range(grid.n_scenarios):
        for t in range(t_day):
            prev = (t - 1) % t_day
            rows.append((f"TS{s}_{t}", EQ, 0.0,
                         [(index.col(K_TE, s, t), 1.0),
                          (index.col(K_TE, s, prev), -1.0),
                          (index.col(K_TCH, s, prev), -1.0),
                          (index.col(K_TDIS, s, prev), 1.0)]))
        if index.binary_mode:
            for t in range(t_day):
                y = index.col(K_YT, s, t)
                rows.append((f"TXC{s}_{t}", LE, 0.0,
                             [(index.col(K_TCH, s, t), 1.0), (y, -m_rate)]))
                rows.append((f"TXD{s}_{t}", LE, m_rate,
                             [(index.col(K_TDIS, s, t), 1.0), (y, m_rate)]))
    return rows


def build_ev_constraints(index, scenario_set, fleet) -> list:
    """Per-vehicle energy chains anchored at the arrival SOC.

    Charger and discharge rate caps are column bounds; the first chain row
    carries the arrival energy as its right-hand side.
    """
    rows = []
    m_dis = fleet.discharge_rate_fraction * fleet.capacity
    for s, sc in enumerate(scenario_set.scenarios):
        for j, rec in enumerate(sc.ev_records):
            a, d = rec.arrive_hour, rec.depart_hour
            for t in range(a + 1, d + 1):
                coefs = [(index.col(K_VE, s, t, j), 1.0),
                         (index.col(K_VCH, s, t - 1, j), -1.0),
                         (index.col(K_VDIS, s, t - 1, j), 1.0)]
                rhs = 0.0
                if t == a + 1:
                    rhs = rec.initial_soc * fleet.capacity
                else:
                    coefs.append((index.col(K_VE, s, t - 1, j), -1.0))
                rows.append((f"VS{s}_{t}_{j}", EQ, rhs, coefs))
            if index.binary_mode:
                for t in range(a, d):
                    y = index.col(K_YEV, s, t, j)
                    rows.append((f"VXC{s}_{t}_{j}", LE, 0.0,
                                 [(index.col(K_VCH, s, t, j), 1.0),
                                  (y, -fleet.charger_power)]))
                    rows.append((f"VXD{s}_{t}_{j}", LE, m_dis,
                                 [(index.col(K_VDIS, s, t, j), 1.0), (y, m_dis)]))
    return rows


def build_chance_constraints(index, scenario_set, fleet, config) -> list:
    """Shortfall definition, big-M activation, and the cardinality cap.

    Z(s)=0 forces every vehicle in scenario s to depart at or above the
    target SOC; at most floor(N*zeta) scenarios may set Z=1.
    """
    rows = []
    cap = fleet.capacity
    target = fleet.target_departure_soc * cap
    m_soc = (fleet.target_departure_soc - fleet.soc_min) * cap
    for s, sc in enumerate(scenario_set.scenarios):
        for j, rec in enumerate(sc.ev_records):
            short = index.col(K_SHORT, s, j)
            e_dep = index.col(K_VE, s, rec.depart_hour, j)
            rows.append((f"SD{s}_{j}", GE, target,
                         [(short, 1.0), (e_dep, 1.0)]))
            rows.append((f"SZ{s}_{j}", LE, 0.0,
                         [(short, 1.0), (index.col(K_Z, s), -m_soc)]))
    limit = max_substandard(scenario_set.grid.n_scenarios, config.zeta)
    rows.append(("CARD", LE, float(limit),
                 [(index.col(K_Z, s), 1.0)
                  for s in range(scenario_set.grid.n_scenarios)]))
    return rows


def assemble_model(grid, catalog, tariffs, scenario_set, config) -> MilpModel:
    """Index variables, run every builder, and freeze the sparse model."""
    index = VarIndex(grid, catalog, config, scenario_set, tariffs)
    m = annualization_factor(grid)
    obj = build_objective(index, catalog, tariffs, m)
    rows = []
    rows += build_energy_balance(index, scenario_set, catalog)
    rows += build_device_bounds(index, catalog)
    rows += build_bess_constraints(index, grid, catalog.bess)
    rows += build_tess_constraints(index, grid, catalog.tess)
    rows += build_ev_constraints(index, scenario_set, catalog.ev_fleet)
    rows += build_chance_constraints(index, scenario_set, catalog.ev_fleet, config)

    n_rows = len(rows)
    names = []
    senses = np.empty(n_rows, dtype=np.int8)
    rhs = np.empty(n_rows)
    ri, ci, vv = [], [], []
    for r, (name, sense, b, coefs) in enumerate(rows):
        names.append(name)
        senses[r] = sense
        rhs[r] = b
        seen = set()
        for c, v in coefs:
            if c in seen:
                raise ModelBuildError(f"row {name}: duplicate column {c}")
            seen.add(c)
            if v != 0.0:
                ri.append(r)
                ci.append(c)
                vv.append(v)
    a_matrix = sparse.csr_matrix(
        (np.array(vv), (np.array(ri, dtype=np.int64), np.array(ci, dtype=np.int64))),
        shape=(n_rows, index.n_cols))
    model = MilpModel(
        n_rows=n_rows, n_cols=index.n_cols, obj=obj, a_matrix=a_matrix,
        row_sense=senses, rhs=rhs, row_names=names,
        col_lb=index.lb.copy(), col_ub=index.ub.copy(), col_kind=index.kind.copy(),
        col_names=list(index.names), var_index=index)
    model.check()
    return model
